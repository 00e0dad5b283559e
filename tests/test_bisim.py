"""Open-map checking, bisimulation search and verification."""

import random

import pytest

from ditop import fixtures
from ditop.errors import NotOpen
from ditop.gcomplex import subdivide_2cell, subdivide_edge
from ditop.bisim import (
    Bisimulation,
    bisimilar,
    check_open,
    span_to_bisimulation,
    verify_bisimulation,
)
from ditop.natsys import (
    Diagram,
    FactCat,
    crush_induced_map,
    dt_comparison,
    format_chain,
    identity_diagram_map,
    natural_system,
    refinement_span,
)
from ditop.algtop import FinSetMap
from ditop.values import Valuation, Value, ValueMap, iso_candidates

from helpers import (
    bisimilar_by_scan,
    verify_bisimulation_by_gen_scan,
    verify_bisimulation_by_scan,
)

PI0 = Valuation("pi0")
HOM1 = Valuation("hom", 1)


def one_object_diagram(size: int) -> Diagram:
    index = FactCat([("a",)])
    value = Value(size)
    return Diagram(
        index, {}, {("a",): value}, {(("a",), ("a",)): ValueMap.identity(value)}
    )


def assert_verifiers_agree(triples, f, g):
    """The verifier names the first violation the generator scan names,
    and reaches the verdict of the exhaustive scan; returns the verdict."""
    verdict = verify_bisimulation(triples, f, g)
    assert verify_bisimulation_by_gen_scan(triples, f, g) == verdict
    assert verify_bisimulation_by_scan(triples, f, g)[0] == verdict[0]
    return verdict


class TestCheckOpen:
    def test_identity_open(self):
        d = natural_system(fixtures.load("FIX-B"), PI0)
        assert check_open(identity_diagram_map(d)).ok

    def test_crush_not_open_witness_first(self):
        a, b = fixtures.load("FIX-A"), fixtures.load("FIX-B")
        dm = crush_induced_map(fixtures.crush_a_to_b(), a, b, PI0)
        chk = check_open(dm)
        assert not chk.ok
        first = chk.failures[0]
        assert first.kind == "component-not-iso"
        assert "[c2]" in first.detail
        assert "1 component" in first.detail and "2 components" in first.detail

    def test_dt_comparison_open_everywhere(self):
        for name in fixtures.GALLERY:
            for val in (PI0, HOM1):
                chk = check_open(dt_comparison(fixtures.load(name), val))
                assert chk.ok, (name, val.label, chk.failures[:2])

    def test_coarsening_open(self):
        x = fixtures.load("FIX-SQUARE")
        y, ref = subdivide_2cell(x, "q", 1)
        from ditop.natsys import coarsening_map

        assert check_open(coarsening_map(y, x, ref, PI0)).ok


class TestVerifyBisimulation:
    def test_diagonal(self):
        d = natural_system(fixtures.load("FIX-EDGE"), PI0)
        diag = Bisimulation(
            tuple(
                (t, ValueMap.identity(d.values[t]), t) for t in d.index.objects
            )
        )
        ok, why = verify_bisimulation(diag, d, d)
        assert ok, why

    def test_missing_object_clause_one(self):
        d = natural_system(fixtures.load("FIX-EDGE"), PI0)
        partial = Bisimulation(
            tuple(
                (t, ValueMap.identity(d.values[t]), t)
                for t in d.index.objects[:-1]
            )
        )
        ok, why = verify_bisimulation(partial, d, d)
        assert not ok and "clause 1" in why

    def test_maps_out_of_one_object_differ(self):
        # x extends to [x,y] by the identity and to [w,x] by the swap, so a
        # square along x -> [x,y] commutes only with the map into [x,y]
        two = Value(2)
        ident = ValueMap.identity(two)
        swap = ValueMap(two, two, FinSetMap(2, 2, (1, 0)))
        index = FactCat([("x",), ("y",), ("w",), ("x", "y"), ("w", "x")])
        maps = {(t, t): ident for t in index.objects}
        maps.update(
            {
                (("x",), ("x", "y")): ident,
                (("x",), ("w", "x")): swap,
                (("y",), ("x", "y")): ident,
                (("w",), ("w", "x")): ident,
            }
        )
        d = Diagram(index, {}, {t: two for t in index.objects}, maps)
        diagonal = tuple((t, ident, t) for t in index.objects)
        assert assert_verifiers_agree(diagonal, d, d) == (True, None)
        twisted = ((("x",), swap, ("x",)),) + diagonal[1:]
        assert assert_verifiers_agree(twisted, d, d) == (
            False,
            "clause 2 (forth): [x] ~ [x] stuck along [x] -> [x,y]",
        )

    def test_roundtrip_from_search(self):
        x = fixtures.load("FIX-EDGE")
        y, _ = subdivide_edge(x, "d")
        f = natural_system(x, PI0)
        g = natural_system(y, PI0)
        res = bisimilar(f, g)
        assert res.verdict == "yes"
        ok, why = verify_bisimulation(res.bisimulation, f, g)
        assert ok, why


class TestVerifierNegatives:
    """Corrupted certificates of bisim FIX-A FIX-B: the verifier, the
    brute-force generator scan and the exhaustive scan must all reject
    them, and the first two with one message."""

    @pytest.fixture(scope="class")
    def certificate(self):
        f = natural_system(fixtures.load("FIX-A"), PI0)
        g = natural_system(fixtures.load("FIX-B"), PI0)
        res = bisimilar(f, g)
        assert res.verdict == "yes"
        return f, g, res.bisimulation.triples

    @staticmethod
    def first_bijection(triples):
        """Index of the first triple linking values of two or more components."""
        return next(k for k, t in enumerate(triples) if t[1].comp.src_size >= 2)

    @staticmethod
    def assert_rejected_both_ways(triples, f, g):
        """Rejected as given (left f) and converse (left g), by all verifiers."""
        converse = tuple((j, eta.inverse(), i) for i, eta, j in triples)
        for rel, left, right in ((triples, f, g), (converse, g, f)):
            verdict = assert_verifiers_agree(rel, left, right)
            assert not verdict[0] and verdict[1].startswith("clause 2")

    def test_certificate_accepted_by_both(self, certificate):
        f, g, triples = certificate
        assert verify_bisimulation(triples, f, g) == (True, None)
        assert verify_bisimulation_by_gen_scan(triples, f, g) == (True, None)
        assert verify_bisimulation_by_scan(triples, f, g) == (True, None)

    def test_dropped_triple_rejected(self, certificate):
        f, g, triples = certificate
        k = self.first_bijection(triples)
        self.assert_rejected_both_ways(triples[:k] + triples[k + 1 :], f, g)

    def test_swapped_bijection_rejected(self, certificate):
        f, g, triples = certificate
        k = self.first_bijection(triples)
        i, eta, j = triples[k]
        images = eta.comp.images
        swapped = ValueMap(
            eta.src, eta.tgt, FinSetMap(len(images), len(images), images[::-1])
        )
        assert swapped != eta
        corrupted = triples[:k] + ((i, swapped, j),) + triples[k + 1 :]
        self.assert_rejected_both_ways(corrupted, f, g)

    def test_nearby_drops_agree_with_scan(self, certificate):
        f, g, triples = certificate
        first = self.first_bijection(triples)
        verdicts = set()
        for k in range(first, first + 8):
            corrupted = triples[:k] + triples[k + 1 :]
            verdicts.add(assert_verifiers_agree(corrupted, f, g)[0])
        assert verdicts == {True, False}


class TestGeneratorVerdicts:
    """Challenging generators only is sound on functorial diagrams: on a
    seeded sample of corrupted certificates the verifier reaches the
    exhaustive scan's verdict every time."""

    @staticmethod
    def corruptions(f, g, n_drops, n_swaps, seed):
        """n_drops single-triple drops, then n_swaps certificates with one
        component replaced by another iso candidate of the same values."""
        triples = bisimilar(f, g).bisimulation.triples
        rng = random.Random(seed)
        for k in sorted(rng.sample(range(len(triples)), n_drops)):
            yield triples[:k] + triples[k + 1 :]
        swappable = [
            k
            for k, (_, eta, _) in enumerate(triples)
            if len(iso_candidates(eta.src, eta.tgt)[0]) >= 2
        ]
        for k in sorted(rng.sample(swappable, n_swaps)):
            i, eta, j = triples[k]
            other = rng.choice(
                [c for c in iso_candidates(eta.src, eta.tgt)[0] if c != eta]
            )
            yield triples[:k] + ((i, other, j),) + triples[k + 1 :]

    @pytest.mark.parametrize(
        "left, right, val, n_drops, n_swaps",
        [
            ("FIX-A", "FIX-B", PI0, 4, 4),
            ("FIX-EDGE", "FIX-EDGE-split", HOM1, 40, 0),
            ("FIX-LOOPCELL", "FIX-LOOPCELL", HOM1, 8, 8),
        ],
    )
    def test_same_verdict_as_exhaustive_scan(self, left, right, val, n_drops, n_swaps):
        f = natural_system(fixtures.load(left), val)
        g = natural_system(fixtures.load(right), val)
        verdicts = []
        for rel in self.corruptions(f, g, n_drops, n_swaps, seed=7):
            verdict = verify_bisimulation(rel, f, g)[0]
            assert verify_bisimulation_by_scan(rel, f, g)[0] == verdict
            verdicts.append(verdict)
        assert len(verdicts) == n_drops + n_swaps
        assert set(verdicts) == {True, False}


class TestBisimilar:
    def test_reflexive(self):
        d = natural_system(fixtures.load("FIX-EDGE"), PI0)
        res = bisimilar(d, d)
        assert res.verdict == "yes" and res.exact

    def test_subdivision_pairs(self):
        x = fixtures.load("FIX-EDGE")
        y, _ = subdivide_edge(x, "d")
        for val in (PI0, HOM1):
            res = bisimilar(natural_system(x, val), natural_system(y, val))
            assert res.verdict == "yes" and res.exact

    def test_size_mismatch_refuted(self):
        res = bisimilar(one_object_diagram(1), one_object_diagram(2))
        assert res.verdict == "no" and res.exact
        assert res.bisimulation is None
        assert any("uncovered" in line for line in res.refutation)

    def test_edge_vs_b_not_bisimilar(self):
        f = natural_system(fixtures.load("FIX-EDGE"), PI0)
        g = natural_system(fixtures.load("FIX-B"), PI0)
        res = bisimilar(f, g)
        assert res.verdict == "no" and res.exact

    def test_exploratory_a_vs_b_runs(self):
        f = natural_system(fixtures.load("FIX-A"), PI0)
        g = natural_system(fixtures.load("FIX-B"), PI0)
        res = bisimilar(f, g)
        assert res.verdict in ("yes", "no", "unknown")
        if res.verdict == "yes":
            ok, why = verify_bisimulation(res.bisimulation, f, g)
            assert ok, why
        else:
            assert res.refutation

    def test_loopcell_vs_square_pi0_yes_hom_no(self):
        # same component counts everywhere, but a circle shows up in H1
        f0 = natural_system(fixtures.load("FIX-LOOPCELL"), PI0)
        g0 = natural_system(fixtures.load("FIX-SQUARE"), PI0)
        r0 = bisimilar(f0, g0)
        f1 = natural_system(fixtures.load("FIX-LOOPCELL"), HOM1)
        g1 = natural_system(fixtures.load("FIX-SQUARE"), HOM1)
        r1 = bisimilar(f1, g1)
        assert r1.verdict == "no" and r1.exact
        assert r0.verdict in ("yes", "no")


class TestFixpointAgainstScan:
    """The fixpoint against a brute-force greatest fixpoint that checks
    every morphism and scans every triple for answers."""

    @pytest.mark.parametrize(
        "left, right, val",
        [
            ("FIX-EDGE", "FIX-EDGE-split", PI0),
            ("FIX-EDGE", "FIX-EDGE-split", HOM1),
            ("FIX-EDGE", "FIX-B", PI0),
            ("FIX-LOOPCELL", "FIX-LOOPCELL", HOM1),
            ("FIX-HOLLOW", "FIX-SQUARE", PI0),
            ("FIX-A", "FIX-B", PI0),
        ],
    )
    def test_same_verdict_and_certificate(self, left, right, val):
        f = natural_system(fixtures.load(left), val)
        g = natural_system(fixtures.load(right), val)
        res = bisimilar(f, g)
        verdict, survivors = bisimilar_by_scan(f, g)
        assert res.verdict == verdict
        if verdict == "yes":
            assert res.bisimulation.triples == survivors
        else:
            # a refutation opens with the objects the survivors leave uncovered
            left_cov = {i for i, _, _ in survivors}
            right_cov = {j for _, _, j in survivors}
            uncovered = [
                f"uncovered left object {format_chain(i)}"
                for i in f.index.objects
                if i not in left_cov
            ] + [
                f"uncovered right object {format_chain(j)}"
                for j in g.index.objects
                if j not in right_cov
            ]
            got = [line for line in res.refutation if line.startswith("uncovered")]
            assert got == uncovered[:50]


class TestSpans:
    def test_identity_span_diagonal(self):
        d = natural_system(fixtures.load("FIX-B"), PI0)
        ident = identity_diagram_map(d)
        bis = span_to_bisimulation(ident, ident)
        assert all(i == j for i, _, j in bis.triples)
        ok, _ = verify_bisimulation(bis, d, d)
        assert ok

    def test_refinement_span_verifies(self):
        x = fixtures.load("FIX-EDGE")
        y, ref = subdivide_edge(x, "d")
        p, q = refinement_span(y, x, ref, PI0)
        bis = span_to_bisimulation(p, q)
        ok, why = verify_bisimulation(bis, p.tgt, q.tgt)
        assert ok, why

    def test_non_open_leg_rejected(self):
        a, b = fixtures.load("FIX-A"), fixtures.load("FIX-B")
        dm = crush_induced_map(fixtures.crush_a_to_b(), a, b, PI0)
        with pytest.raises(NotOpen):
            span_to_bisimulation(dm, identity_diagram_map(dm.src))

    def test_span_agrees_with_search(self):
        # whenever a span connects two systems, the search also says yes
        for name in ["FIX-EDGE", "FIX-SQUARE", "FIX-LOOPCELL"]:
            x = fixtures.load(name)
            e = next(iter(x.edges))
            y, ref = subdivide_edge(x, e)
            p, q = refinement_span(y, x, ref, PI0)
            span_to_bisimulation(p, q)
            res = bisimilar(p.tgt, q.tgt)
            assert res.verdict == "yes"
