"""Trace categories, factorization posets, natural systems, induced maps."""

from fractions import Fraction

import pytest

from ditop import fixtures, values
from ditop.errors import NotFunctorial
from ditop.gcomplex import (
    CellularMap,
    GlobularComplex,
    identity_map,
    subdivide_2cell,
    subdivide_edge,
)
from ditop.natsys import (
    coarsening_map,
    crush_induced_map,
    diagram_export,
    dt_comparison,
    factorization_category,
    map_chain_through,
    natural_system,
    nt_value_of_path,
    trace_category,
)
from ditop.pathspace import DirectedPathPL
from ditop.reparam import PLMap
from ditop.values import Valuation, ValueMap

from helpers import is_subchain, scan_targets

F = Fraction
PI0 = Valuation("pi0")
HOM1 = Valuation("hom", 1)


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
            u, v = fc.extension_pair(t, t)
            assert u == (t[0],) and v == (t[-1],)

    def test_two_sided_square(self):
        fc = factorization_category(trace_category(fixtures.load("FIX-EDGE")))
        # left then right and right then left meet at the same object
        assert fc.hom(("d",), ("v0", "d", "v1"))
        u, v = fc.extension_pair(("d",), ("v0", "d", "v1"))
        assert u == ("v0", "d") and v == ("d", "v1")


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
        assert all(m.comp.is_bijective() for m in d.maps.values())

    def test_fix_b_middle_value(self):
        d = natural_system(fixtures.load("FIX-B"), PI0)
        assert d.values[("d1", "v1", "d2", "v2", "d3")].components == 2

    def test_fix_a_extension_lands_in_filled_class(self):
        d = natural_system(fixtures.load("FIX-A"), PI0)
        assert d.values[("c2",)].components == 1
        m = d.maps[(("c2",), ("v0", "c2", "v3"))]
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
                u, v = d.index.extension_pair(a, b)
                if len(a) < 2:
                    continue
                if len(u) == 2 and x.dim(b[0]) >= 1:
                    assert d.maps[(a, b)] == ValueMap.identity(d.values[a])
                    found += 1
                if len(v) == 2 and x.dim(b[-1]) >= 1:
                    assert d.maps[(a, b)] == ValueMap.identity(d.values[a])
                    found += 1
            if name in ("FIX-A", "FIX-B"):
                assert found

    def test_functoriality_on_all_squares(self):
        # composing generator images along any two-step factorization
        for name in ["FIX-A", "FIX-SQUARE", "FIX-LOOPCELL"]:
            d = natural_system(fixtures.load(name), PI0)
            for a, b in d.maps:
                for mid in d.index.targets_from(a):
                    if d.index.hom(mid, b):
                        left = d.maps[(mid, b)].compose(d.maps[(a, mid)])
                        assert left == d.maps[(a, b)]

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
