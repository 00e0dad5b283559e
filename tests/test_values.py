"""Valuations of trace-space models and isomorphism candidates."""

import random

import pytest

from ditop import fixtures
from ditop.algtop import FgAbGroup, FinSetMap, GroupHom, mat_mul
from ditop.errors import ParseError
from ditop.natsys import natural_system
from ditop.pathspace import TraceSpaceValue, trace_space
from ditop.values import Valuation, Value, ValueMap, iso_candidates, parse_valuation

from helpers import hom_pairs, hom_rows


class TestValuation:
    def test_parse(self):
        assert parse_valuation("pi0").label == "pi0"
        assert parse_valuation("hom:2").maxdeg == 2
        for bad in ("rainbow", "hom:x", "hom:-1", "hom:"):
            with pytest.raises(ParseError, match="valuation must be pi0 or hom:<k>"):
                parse_valuation(bad)

    def test_pi0_counts_extra_point(self):
        x = fixtures.load("FIX-A")
        val = Valuation("pi0")
        assert val.value(trace_space(x, "c2", "c2")).components == 1
        assert val.value(trace_space(x, "v0", "v3")).components == 2

    def test_hom_groups(self):
        x = fixtures.load("FIX-LOOPCELL")
        val = Valuation("hom", 1)
        v = val.value(trace_space(x, "u0", "u1"))
        assert v.groups == (FgAbGroup(1), FgAbGroup(1))
        assert v.describe() == "H0 = Z^1, H1 = Z^1"

    def test_value_shared_per_model_and_valuation(self):
        x = fixtures.load("FIX-A")
        ts = trace_space(x, "v0", "v3")
        hom1 = Valuation("hom", 1)
        assert hom1.value(ts) is hom1.value(TraceSpaceValue(ts.base, False))
        with_point = hom1.value(TraceSpaceValue(ts.base, True))
        assert with_point.components == hom1.value(ts).components + 1
        assert Valuation("pi0").value(ts) == Value(2) != hom1.value(ts)
        d = natural_system(x, hom1)
        for a, b in hom_pairs(d.index):
            m = d.map(a, b)
            assert m.src is d.values[a] and m.tgt is d.values[b]

    def test_describe_pi0(self):
        assert Value(1).describe() == "1 component"
        assert Value(2).describe() == "2 components"


class TestValueMapCompose:
    """``ValueMap.compose`` builds the composite without re-validation."""

    def test_composite_matches_validated_build(self):
        rng = random.Random(8)
        h1 = [FgAbGroup(0), FgAbGroup(1), FgAbGroup(0, (2,)), FgAbGroup(1, (6,))]
        for _ in range(200):
            vals = [
                Value(n, (FgAbGroup(n), g))
                for n, g in ((rng.randint(1, 3), rng.choice(h1)) for _ in range(3))
            ]
            maps = []
            for a, b in zip(vals, vals[1:]):
                comp = FinSetMap(
                    a.components,
                    b.components,
                    tuple(rng.randrange(b.components) for _ in range(a.components)),
                )
                rows = hom_rows(rng, a.groups[1], b.groups[1], -5, 5)
                hom = GroupHom.make(a.groups[1], b.groups[1], rows)
                maps.append(ValueMap(a, b, comp, (hom,)))
            first, second = maps
            src, mid, tgt = (v.groups[1] for v in vals)
            rows = (
                mat_mul([list(r) for r in second.homs[0].matrix],
                        [list(r) for r in first.homs[0].matrix])
                if mid.n_gens
                else [[0] * src.n_gens] * tgt.n_gens
            )
            expected = ValueMap(
                first.src,
                second.tgt,
                FinSetMap(
                    first.src.components,
                    second.tgt.components,
                    tuple(second.comp.images[i] for i in first.comp.images),
                ),
                (GroupHom.make(src, tgt, rows),),
            )
            assert second.compose(first) == expected

    def test_equal_values_compose_and_others_do_not(self):
        a, b = Value(2), Value(2)
        swap = ValueMap(a, a, FinSetMap(2, 2, (1, 0)))
        swap_b = ValueMap(b, b, FinSetMap(2, 2, (1, 0)))
        assert swap_b.compose(swap) == ValueMap.identity(a)
        with pytest.raises(ValueError, match="not composable"):
            ValueMap.identity(Value(3)).compose(swap)
        with pytest.raises(ValueError, match="not composable"):
            ValueMap.identity(Value(2, (FgAbGroup(2), FgAbGroup(0)))).compose(swap)


class TestIsoCandidates:
    def test_size_mismatch_exact_empty(self):
        cands, complete = iso_candidates(Value(1), Value(2))
        assert cands == [] and complete

    def test_bijections_complete(self):
        cands, complete = iso_candidates(Value(2), Value(2))
        assert complete and len(cands) == 2
        assert all(c.is_iso() for c in cands)

    def test_single_free_generator(self):
        a = Value(1, (FgAbGroup(1), FgAbGroup(1)))
        cands, complete = iso_candidates(a, a)
        assert complete and len(cands) == 2  # identity and negation on H1
        mats = {c.homs[0].matrix for c in cands}
        assert mats == {((1,),), ((-1,),)}

    def test_rank_two_incomplete(self):
        a = Value(1, (FgAbGroup(1), FgAbGroup(2)))
        cands, complete = iso_candidates(a, a)
        assert not complete
        assert len(cands) == 8  # signed permutations of two free generators
        assert all(c.is_iso() for c in cands)

    def test_single_torsion_complete(self):
        a = Value(1, (FgAbGroup(1), FgAbGroup(0, (5,))))
        cands, complete = iso_candidates(a, a)
        assert complete and len(cands) == 4  # units mod 5

    def test_group_mismatch(self):
        a = Value(1, (FgAbGroup(1), FgAbGroup(1)))
        b = Value(1, (FgAbGroup(1), FgAbGroup(0)))
        cands, complete = iso_candidates(a, b)
        assert cands == [] and complete
