"""Trace categories, factorization posets, natural systems, induced maps."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ditop import fixtures, values
from ditop.algtop import FinSetMap
from ditop.bisim import check_open
from ditop.errors import NotFunctorial
from ditop.gcomplex import (
    CellularMap,
    GlobularComplex,
    identity_map,
    parse_gcx,
    subdivide_2cell,
    subdivide_edge,
)
from ditop.natsys import (
    coarsening_map,
    crush_induced_map,
    diagram_export,
    DiagramMap,
    dt_comparison,
    factorization_category,
    identity_diagram_map,
    map_chain_through,
    natural_system,
    nt_value_of_path,
    trace_category,
)
from ditop.pathspace import DirectedPathPL
from ditop.reparam import PLMap
from ditop.values import Valuation, ValueMap

from helpers import closure_maps, hom_pairs, is_subchain, load_data, scan_targets

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from gridgen import grid  # noqa: E402

F = Fraction
PI0 = Valuation("pi0")
HOM1 = Valuation("hom", 1)
HOM2 = Valuation("hom", 2)


def dag_path_count(x):
    """Independent oracle: count chains by dynamic programming."""
    succ = {}
    for a, b in x.order_arcs():
        succ.setdefault(a, []).append(b)
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def paths_from(c):
        return 1 + sum(paths_from(d) for d in succ.get(c, ()))

    return sum(paths_from(c) for c in x.all_cells())


class TestTraceCategory:
    def test_fix_edge_six_morphisms(self):
        tc = trace_category(fixtures.load("FIX-EDGE"))
        assert set(tc.chains) == {
            ("v0",),
            ("d",),
            ("v1",),
            ("v0", "d"),
            ("d", "v1"),
            ("v0", "d", "v1"),
        }

    def test_single_state(self):
        x = GlobularComplex("PT", ["v"])
        tc = trace_category(x)
        assert tc.chains == (("v",),)

    def test_fix_b_count_matches_dag_oracle(self):
        x = fixtures.load("FIX-B")
        tc = trace_category(x)
        assert len(tc.chains) == dag_path_count(x)
        assert len(set(tc.chains)) == len(tc.chains)

    def test_composition(self):
        tc = trace_category(fixtures.load("FIX-EDGE"))
        assert tc.compose(("v0", "d"), ("d", "v1")) == ("v0", "d", "v1")
        with pytest.raises(NotFunctorial):
            tc.compose(("v0", "d"), ("v1",))


class TestFactCat:
    def test_fix_edge_generators(self):
        fc = factorization_category(trace_category(fixtures.load("FIX-EDGE")))
        assert len(fc.objects) == 6
        gens = set(fc.generators())
        assert gens == {
            (("d",), ("v0", "d")),
            (("d",), ("d", "v1")),
            (("v0", "d"), ("v0", "d", "v1")),
            (("d", "v1"), ("v0", "d", "v1")),
            (("v0",), ("v0", "d")),
            (("v1",), ("d", "v1")),
        }

    def test_identity_morphisms(self):
        fc = factorization_category(trace_category(fixtures.load("FIX-EDGE")))
        for t in fc.objects:
            assert fc.hom(t, t)
            assert t in fc.targets_from(t) and t not in fc.gens_from(t)

    def test_generator_side(self):
        # a generator a -> b extends a on the left exactly when b[1:] == a,
        # else on the right, when b[:-1] == a
        fc = factorization_category(trace_category(fixtures.load("FIX-EDGE")))
        left = {(a, b) for a, b in fc.generators() if b[1:] == a}
        right = {(a, b) for a, b in fc.generators() if b[:-1] == a}
        assert left == {
            (("d",), ("v0", "d")),
            (("d", "v1"), ("v0", "d", "v1")),
            (("v1",), ("d", "v1")),
        }
        assert right == set(fc.generators()) - left
        for name in fixtures.GALLERY:
            fc = factorization_category(trace_category(fixtures.load(name)))
            for a, b in fc.generators():
                assert (b[1:] == a) != (b[:-1] == a), (name, a, b)

    def test_two_sided_square(self):
        fc = factorization_category(trace_category(fixtures.load("FIX-EDGE")))
        # left then right and right then left meet at the same object
        b = ("v0", "d", "v1")
        assert fc.hom(("d",), b)
        # b = u * [d] * v with u = [v0,d] = b[:-1] and v = [d,v1] = b[1:]
        assert b[:-1] == ("v0", "d") and b[1:] == ("d", "v1")
        assert set(fc.gens_from(("d",))) == {b[:-1], b[1:]}
        assert b in fc.gens_from(b[:-1]) and b in fc.gens_from(b[1:])


def with_single_step_splits(name):
    """A gallery fixture and each of its single-step splits."""
    x = fixtures.load(name)
    yield name, x
    for e in x.edges:
        yield f"{name}|edge:{e}", subdivide_edge(x, e)[0]
    for c in x.cells2:
        for k in (1, 2):
            yield f"{name}|chord:{c}:{k}", subdivide_2cell(x, c, k)[0]


class TestIndexAgainstScan:
    """Hom-sets from one-cell extensions against the all-pairs scan."""

    @pytest.mark.parametrize("name", fixtures.GALLERY)
    def test_targets_gens_and_hom(self, name):
        for label, x in with_single_step_splits(name):
            fc = factorization_category(trace_category(x))
            for a in fc.objects:
                scan = scan_targets(fc, a)
                assert fc.targets_from(a) == scan, (label, a)
                longer = tuple(b for b in scan if len(b) == len(a) + 1)
                assert fc.gens_from(a) == longer, (label, a)
                for b in fc.objects:
                    assert fc.hom(a, b) == is_subchain(a, b), (label, a, b)

    def test_non_object_has_no_targets(self):
        fc = factorization_category(trace_category(fixtures.load("FIX-EDGE")))
        assert fc.targets_from(("v1", "v0")) == ()
        assert fc.gens_from(("v1", "v0")) == ()
        assert not fc.hom(("v1", "v0"), ("v0", "d", "v1"))


class TestNaturalSystem:
    def test_fix_edge_all_singletons(self):
        d = natural_system(fixtures.load("FIX-EDGE"), PI0)
        assert all(v.components == 1 for v in d.values.values())
        assert all(d.map(a, b).comp.is_bijective() for a, b in hom_pairs(d.index))

    def test_fix_b_middle_value(self):
        d = natural_system(fixtures.load("FIX-B"), PI0)
        assert d.values[("d1", "v1", "d2", "v2", "d3")].components == 2

    def test_fix_a_extension_lands_in_filled_class(self):
        d = natural_system(fixtures.load("FIX-A"), PI0)
        assert d.values[("c2",)].components == 1
        m = d.map(("c2",), ("v0", "c2", "v3"))
        assert m.tgt.components == 2
        assert m.comp.images == (0,)

    def test_values_depend_only_on_endpoints(self):
        for name in fixtures.GALLERY:
            d = natural_system(fixtures.load(name), PI0)
            by_ends = {}
            for t, v in d.values.items():
                key = (t[0], t[-1])
                by_ends.setdefault(key, set()).add(v)
            assert all(len(s) == 1 for s in by_ends.values())

    def test_silent_extensions_are_identities(self):
        # prepending a cell whose final state is the current head vertex
        for name in fixtures.GALLERY:
            x = fixtures.load(name)
            d = natural_system(x, PI0)
            found = 0
            for a, b in d.index.generators():
                if len(a) < 2:
                    continue
                if b[1:] == a and x.dim(b[0]) >= 1:
                    assert d.map(a, b) == ValueMap.identity(d.values[a])
                    found += 1
                if b[:-1] == a and x.dim(b[-1]) >= 1:
                    assert d.map(a, b) == ValueMap.identity(d.values[a])
                    found += 1
            if name in ("FIX-A", "FIX-B"):
                assert found

    def test_functoriality_on_all_squares(self):
        # composing generator images along any two-step factorization
        for name in ["FIX-A", "FIX-SQUARE", "FIX-LOOPCELL"]:
            d = natural_system(fixtures.load(name), PI0)
            for a, b in hom_pairs(d.index):
                for mid in d.index.targets_from(a):
                    if d.index.hom(mid, b):
                        left = d.map(mid, b).compose(d.map(a, mid))
                        assert left == d.map(a, b)

    def test_components_computed_once_per_complex(self, monkeypatch):
        computed = []
        real_pi0 = values.pi0

        def counting_pi0(p):
            computed.append(p)
            return real_pi0(p)

        monkeypatch.setattr(values, "pi0", counting_pi0)
        d = natural_system(fixtures.load("FIX-TWOCELLS"), HOM1)
        distinct = {id(s.base) for s in d.spaces.values()}
        assert len(computed) == len({id(p) for p in computed}) == len(distinct)

    def test_export_contains_value_lines(self):
        d = natural_system(fixtures.load("FIX-A"), PI0)
        text = diagram_export(d)
        assert "value [c2] : 1 component" in text
        assert "object [v0,c2,v3]" in text

    def test_hom_valuation_loopcell(self):
        d = natural_system(fixtures.load("FIX-LOOPCELL"), HOM1)
        v = d.values[("u0", "g", "u1")]
        assert v.groups[1].rank == 1


def hom_map_cases():
    """(label, complex, valuation) whose hom maps are checked against the
    closure oracle: the gallery under pi0 and hom:1, LOOPS under hom:2 and
    two holed grids."""
    for name in fixtures.GALLERY:
        for val in (PI0, HOM1):
            yield f"{name} {val.label}", fixtures.load(name), val
    yield "LOOPS hom:2", load_data("LOOPS"), HOM2
    for n, m, holes in ((2, 2, [(0, 0)]), (2, 3, [(1, 1)])):
        x = parse_gcx(grid(n, m, holes).text(), f"G{n}x{m}")
        for val in (PI0, HOM1):
            yield f"{x.name} {val.label}", x, val


class TestHomMaps:
    """A diagram stores its generator maps and composes the rest on demand."""

    CASES = list(hom_map_cases())

    @pytest.mark.parametrize("label, x, val", CASES, ids=[c[0] for c in CASES])
    def test_map_matches_closure(self, label, x, val):
        d = natural_system(x, val)
        assert list(d.maps) == list(d.index.generators()), label
        oracle = closure_maps(d)
        pairs = hom_pairs(d.index)
        assert set(oracle) == set(pairs), label
        for a, b in pairs:
            assert d.map(a, b) == oracle[(a, b)], (label, a, b)

    def test_non_morphism_rejected(self):
        d = natural_system(fixtures.load("FIX-EDGE"), PI0)
        with pytest.raises(NotFunctorial, match="no morphism"):
            d.map(("v1",), ("v0", "d"))

    def test_corrupted_generator_fails_a_square(self):
        # a left generator into the two-component chain [d1,v1,d2,v2,d3]
        # with its target components swapped: the square at [v1,d2,v2]
        # no longer commutes
        x = fixtures.load("FIX-B")
        b = ("d1", "v1", "d2", "v2", "d3")
        gens = list(natural_system(x, PI0).index.generators())
        target = gens.index((b[1:], b))

        class SwapOne:
            """pi0, except that the generator maps are counted in the order
            the build values them and the target-th has its two target
            components swapped."""

            label = "pi0"

            def __init__(self):
                self.calls = 0

            def value(self, v):
                return PI0.value(v)

            def map(self, sm):
                m = PI0.map(sm)
                self.calls += 1
                if self.calls - 1 == target:
                    assert m.tgt.components == 2
                    m = ValueMap(m.tgt, m.tgt, FinSetMap(2, 2, (1, 0))).compose(m)
                return m

        with pytest.raises(NotFunctorial, match="extension square"):
            natural_system(x, SwapOne())
        natural_system(x, PI0)  # the uncorrupted build passes


class TestPlantedMaps:
    def test_non_natural_component(self):
        # FIX-B's identity map with the component at [v1,d2,v2] swapped:
        # every morphism into or out of that chain fails its square; the
        # failures come by source in object order, targets in object order
        d = natural_system(fixtures.load("FIX-B"), PI0)
        dm = identity_diagram_map(d)
        t = ("v1", "d2", "v2")
        v = d.values[t]
        dm.components[t] = ValueMap(v, v, FinSetMap(2, 2, (1, 0)))
        expected = [
            "[d2] -> [v1,d2,v2]",
            "[v1] -> [v1,d2,v2]",
            "[v2] -> [v1,d2,v2]",
            "[d2,v2] -> [v1,d2,v2]",
            "[v1,d2] -> [v1,d2,v2]",
            "[v1,d2,v2] -> [d1,v1,d2,v2]",
            "[v1,d2,v2] -> [v1,d2,v2,d3]",
            "[v1,d2,v2] -> [d1,v1,d2,v2,d3]",
            "[v1,d2,v2] -> [v0,d1,v1,d2,v2]",
            "[v1,d2,v2] -> [v1,d2,v2,d3,v3]",
            "[v1,d2,v2] -> [d1,v1,d2,v2,d3,v3]",
            "[v1,d2,v2] -> [v0,d1,v1,d2,v2,d3]",
            "[v1,d2,v2] -> [v0,d1,v1,d2,v2,d3,v3]",
        ]
        lines = [f"not-natural: square at {s} does not commute" for s in expected]
        chk = check_open(dm, max_failures=100)
        assert not chk.ok
        assert [str(f) for f in chk.failures] == lines
        capped = check_open(dm)
        assert [str(f) for f in capped.failures] == lines[:10]

    def test_non_functorial_object_map(self):
        # FIX-EDGE's identity map with [v0] sent to [v1]: the generator
        # [v0] -> [v0,d] has no image morphism
        d = natural_system(fixtures.load("FIX-EDGE"), PI0)
        ident = identity_diagram_map(d)
        dm = DiagramMap(d, d, {**ident.obj_map, ("v0",): ("v1",)}, ident.components)
        message = (
            "image of ('v0',) -> ('v0', 'd') is not a morphism: "
            "('v1',) !-> ('v0', 'd')"
        )
        with pytest.raises(NotFunctorial) as err:
            dm.check_functorial()
        assert str(err.value) == message
        chk = check_open(dm)
        assert not chk.ok
        assert [str(f) for f in chk.failures] == [f"not-functorial: {message}"]


class TestNtValueOfPath:
    def test_interior_of_filled_cell(self):
        x = fixtures.load("FIX-A")
        gamma = DirectedPathPL(
            (("c2", F(1, 2)),), PLMap([(0, F(1, 4)), (1, F(3, 4))])
        )
        rep = nt_value_of_path(x, gamma, PI0)
        assert rep.start_cell == "c2" and rep.end_cell == "c2"
        assert rep.direct.components == 1 and rep.consistent

    def test_between_edges_of_fix_b(self):
        x = fixtures.load("FIX-B")
        gamma = DirectedPathPL(
            (("d1", None), ("d2", None), ("d3", None)),
            PLMap([(0, F(1, 2)), (1, F(5, 2))]),
        )
        rep = nt_value_of_path(x, gamma, PI0)
        assert rep.start_cell == "d1" and rep.end_cell == "d3"
        assert rep.direct.components == 2 and rep.consistent

    def test_constant_at_vertex(self):
        x = fixtures.load("FIX-B")
        gamma = DirectedPathPL((("d1", None),), PLMap([(0, 1), (1, 1)]))
        rep = nt_value_of_path(x, gamma, PI0)
        assert rep.chain == ("v1",)
        assert rep.direct.components == 1 and rep.consistent


class TestCrushInducedMap:
    def test_identity_cellular_map(self):
        x = fixtures.load("FIX-A")
        dm = crush_induced_map(identity_map(x), x, x, PI0)
        assert all(dm.obj_map[t] == t for t in dm.src.index.objects)
        assert all(
            dm.components[t] == ValueMap.identity(dm.src.values[t])
            for t in dm.src.index.objects
        )

    def test_crush_object_images(self):
        a, b = fixtures.load("FIX-A"), fixtures.load("FIX-B")
        m = fixtures.crush_a_to_b()
        assert map_chain_through(m, a, b, ("c2",)) == (
            "d1",
            "v1",
            "d2",
            "v2",
            "d3",
        )
        assert map_chain_through(m, a, b, ("v0", "c2", "v3")) == (
            "v0",
            "d1",
            "v1",
            "d2",
            "v2",
            "d3",
            "v3",
        )
        assert map_chain_through(m, a, b, ("v0", "d1")) == ("v0", "d1")

    def test_crush_component_not_bijective(self):
        a, b = fixtures.load("FIX-A"), fixtures.load("FIX-B")
        dm = crush_induced_map(fixtures.crush_a_to_b(), a, b, PI0)
        comp = dm.components[("c2",)]
        assert comp.src.components == 1 and comp.tgt.components == 2
        assert not comp.comp.is_bijective()
        ident = dm.components[("v0",)]
        assert ident == ValueMap.identity(dm.src.values[("v0",)])

    def test_crush_is_natural(self):
        a, b = fixtures.load("FIX-A"), fixtures.load("FIX-B")
        for val in (PI0, HOM1):
            dm = crush_induced_map(fixtures.crush_a_to_b(), a, b, val)
            assert dm.naturality_failures() == []

    def test_bad_cellular_map_rejected(self):
        a, b = fixtures.load("FIX-A"), fixtures.load("FIX-B")
        m = fixtures.crush_a_to_b()
        bad = CellularMap(
            m.src_name,
            m.tgt_name,
            m.state_map,
            {**m.cell_map, "e": ("d4",)},  # wrong span: d4 runs v1 -> v2
        )
        with pytest.raises(NotFunctorial):
            crush_induced_map(bad, a, b, PI0)


class TestDtComparison:
    def test_objects_biject(self):
        x = fixtures.load("FIX-B")
        dm = dt_comparison(x, PI0)
        images = set(dm.obj_map.values())
        assert images == set(dm.tgt.index.objects)
        assert len(dm.obj_map) == len(dm.tgt.index.objects)

    def test_components_are_identities(self):
        x = fixtures.load("FIX-A")
        dm = dt_comparison(x, PI0)
        for t, comp in dm.components.items():
            assert comp == ValueMap.identity(dm.src.values[t])

    def test_natural(self):
        for name in ["FIX-EDGE", "FIX-A", "FIX-LOOPCELL"]:
            dm = dt_comparison(fixtures.load(name), PI0)
            assert dm.naturality_failures() == []


class TestCoarsening:
    def test_natural_for_all_single_step_subdivisions(self):
        for name in fixtures.GALLERY:
            if name == "FIX-EDGE-split":
                continue
            x = fixtures.load(name)
            steps = [subdivide_edge(x, e) for e in x.edges]
            steps += [subdivide_2cell(x, c, k) for c in x.cells2 for k in (1, 2)]
            for y, ref in steps:
                dm = coarsening_map(y, x, ref, PI0)
                assert dm.naturality_failures() == []

    def test_component_values_iso(self):
        x = fixtures.load("FIX-B")
        y, ref = subdivide_edge(x, "d2")
        dm = coarsening_map(y, x, ref, PI0)
        assert all(c.is_iso() for c in dm.components.values())
