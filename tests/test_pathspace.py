"""Route complexes, trace-space models, discrete traces, naturalization."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from ditop import fixtures
from ditop.algtop import homology_basis, mat_vec
from ditop.errors import (
    EndpointMismatch,
    InvalidFaces,
    NoTrace,
    NotCubical,
    NotExecutionPath,
    NotFunctorial,
    NotLoopFree,
    UnknownState,
)
from ditop.gcomplex import Cell2, Edge, GlobularComplex
from ditop import pathspace
from ditop.natsys import (
    _SystemBuilder,
    crush_component,
    map_chain_through,
    trace_category,
)
from ditop.pathspace import (
    DEFAULT_CAP,
    DirectedPathPL,
    SpaceMap,
    concat_paths,
    discrete_trace,
    enumerate_vertex_paths,
    extend_map,
    format_path_spec,
    has_chain,
    naturalize,
    parse_path_spec,
    path_complex,
    point_cell,
    rep_path,
    trace_space,
)
from ditop.reparam import PLMap, is_regular, MoorePathPL
from ditop.values import Valuation, ValueMap

from helpers import chain_matrices, load_data, rand_monotone, routes

F = Fraction


class TestVertexPaths:
    def test_hollow_two_routes(self):
        x = fixtures.load("FIX-HOLLOW")
        assert enumerate_vertex_paths(x, "s00", "s11") == [("a", "b"), ("c", "d")]

    def test_b_middle(self):
        x = fixtures.load("FIX-B")
        assert enumerate_vertex_paths(x, "v1", "v2") == [("d2",), ("d4",)]

    def test_self_pair_constant_only(self):
        x = fixtures.load("FIX-B")
        assert enumerate_vertex_paths(x, "v1", "v1") == [()]

    def test_rejects_cycles(self):
        x = GlobularComplex(
            "X", ["u", "v"], [Edge("a", "u", "v"), Edge("b", "v", "u")]
        )
        with pytest.raises(NotLoopFree):
            enumerate_vertex_paths(x, "u", "v")

    def test_unknown_state(self):
        with pytest.raises(UnknownState):
            enumerate_vertex_paths(fixtures.load("FIX-B"), "v0", "zz")


class TestPathComplex:
    def test_first_call_validates(self):
        cyclic = GlobularComplex(
            "X", ["u", "v"], [Edge("a", "u", "v"), Edge("b", "v", "u")]
        )
        with pytest.raises(NotLoopFree):
            path_complex(cyclic, "u", "v")
        dangling = GlobularComplex("Y", ["u", "v"], [Edge("a", "u", "w")])
        with pytest.raises(InvalidFaces):
            path_complex(dangling, "u", "v")
        with pytest.raises(UnknownState):
            path_complex(fixtures.load("FIX-B"), "v0", "zz")

    def test_checks_run_once_and_failures_repeat(self, monkeypatch):
        calls = []
        real = pathspace.require_valid
        monkeypatch.setattr(
            pathspace, "require_valid", lambda x: calls.append(x.name) or real(x)
        )
        x = fixtures.load("FIX-A")
        for _ in range(3):
            trace_space(x, "v0", "c2")
            path_complex(x, "v1", "v3")
        assert calls == ["FIX-A"]
        cyclic = GlobularComplex(
            "X", ["u", "v"], [Edge("a", "u", "v"), Edge("b", "v", "u")]
        )
        dangling = GlobularComplex("Y", ["u", "v"], [Edge("a", "u", "w")])
        for _ in range(2):
            with pytest.raises(InvalidFaces):
                trace_space(dangling, "u", "v")
        for _ in range(2):  # a skipped check would enumerate without end here
            with pytest.raises(NotLoopFree):
                trace_space(cyclic, "u", "v")

    def test_one_successor_map(self):
        x = fixtures.load("FIX-A")
        succ = x.successors()
        assert has_chain(x, "v0", "v3") and trace_category(x).chains
        assert x.successors() is succ
        assert sorted((a, b) for a, bs in succ.items() for b in bs) == sorted(
            x.order_arcs()
        )

    def test_square(self):
        p = path_complex(fixtures.load("FIX-SQUARE"), "s00", "s11")
        assert [len(level) for level in p.cubes] == [2, 1]
        assert p.cubes[1] == (("q",),)
        assert p.face_word(("q",), 1, 0) == ("a", "b")
        assert p.face_word(("q",), 1, 1) == ("c", "d")

    def test_fix_a(self):
        p = path_complex(fixtures.load("FIX-A"), "v0", "v3")
        assert [len(level) for level in p.cubes] == [3, 1]
        assert p.cubes[0] == (("d1", "d2", "d3"), ("d1", "d4", "d3"), ("e",))

    def test_twocells(self):
        p = path_complex(fixtures.load("FIX-TWOCELLS"), "x0", "x2")
        assert [len(level) for level in p.cubes] == [4, 4, 1]
        assert p.cubes[2] == (("s1", "s2"),)

    def test_vertex_count_matches_enumeration(self):
        for name in fixtures.GALLERY:
            x = fixtures.load(name)
            for alpha in x.states:
                for beta in x.states:
                    p = path_complex(x, alpha, beta)
                    assert len(p.vertices) == len(
                        enumerate_vertex_paths(x, alpha, beta)
                    )

    def test_no_2cells_dimension_zero(self):
        p = path_complex(fixtures.load("FIX-HOLLOW"), "s00", "s11")
        assert p.dimension == 0

    def test_loopcell_loop_edge(self):
        p = path_complex(fixtures.load("FIX-LOOPCELL"), "u0", "u1")
        assert [len(level) for level in p.cubes] == [1, 1]
        f = p.faces(1)[0][0]
        assert f[0] == f[1]

    def test_precubical_identities(self):
        for name in fixtures.GALLERY:
            x = fixtures.load(name)
            for alpha in x.states:
                for beta in x.states:
                    p = path_complex(x, alpha, beta)
                    for k in range(2, p.dimension + 1):
                        for w in p.cubes[k]:
                            for j in range(2, k + 1):
                                for i in range(1, j):
                                    for ea in (0, 1):
                                        for eb in (0, 1):
                                            one = p.face_word(
                                                p.face_word(w, j, eb), i, ea
                                            )
                                            two = p.face_word(
                                                p.face_word(w, i, ea), j - 1, eb
                                            )
                                            assert one == two


class TestTraceSpace:
    def test_b_d1_d3(self):
        x = fixtures.load("FIX-B")
        ts = trace_space(x, "d1", "d3")
        assert not ts.extra_point
        assert ts.base.alpha == "v1" and ts.base.beta == "v2"
        assert len(ts.base.vertices) == 2 and ts.base.dimension == 0

    def test_self_trace_singleton(self):
        x = fixtures.load("FIX-A")
        for c in ["v0", "d1", "c2"]:
            ts = trace_space(x, c, c)
            assert ts.extra_point and len(ts.base.vertices) == 0
            assert ts.n_points() == 1

    def test_fix_a_ends(self):
        ts = trace_space(fixtures.load("FIX-A"), "v0", "v3")
        assert len(ts.base.vertices) == 3 and ts.base.n_cubes(1) == 1

    def test_no_trace(self):
        x = fixtures.load("FIX-B")
        with pytest.raises(NoTrace):
            trace_space(x, "v3", "v0")
        with pytest.raises(NoTrace):
            trace_space(x, "d2", "d4")

    def test_cell_to_incident_vertex(self):
        x = fixtures.load("FIX-B")
        ts = trace_space(x, "v1", "d2")
        assert ts.base.alpha == "v1" and ts.base.beta == "v1"
        assert len(ts.base.vertices) == 1


class TestExtendMap:
    def test_left_extension_injective(self):
        x = fixtures.load("FIX-TWOCELLS")
        v = routes(x, "x1", "x2")
        m = extend_map(v, "left", ("f",))
        assert m.tgt.base.alpha == "x0"
        imgs = {
            v.base.cubes[0][i]: m.tgt.base.cubes[0][m.vertex_images[i]]
            for i in range(2)
        }
        assert imgs == {("h",): ("f", "h"), ("k",): ("f", "k")}

    def test_empty_path_identity(self):
        v = routes(fixtures.load("FIX-B"), "v0", "v3")
        m = extend_map(v, "left", ())
        assert m.src is m.tgt
        assert m.vertex_images == tuple(range(len(v.base.vertices)))
        assert m.cube_images == tuple(
            tuple(range(len(level))) for level in v.base.cubes[1:]
        )
        assert m.extra_image is None

    def test_rep_path_lands_in_filled_component(self):
        x = fixtures.load("FIX-A")
        m = extend_map(routes(x, "v0", "v0"), "right", rep_path(x, "c2"))
        image_word = m.tgt.base.cubes[0][m.vertex_images[0]]
        assert image_word == ("d1", "d2", "d3")

    def test_endpoint_mismatch(self):
        v = routes(fixtures.load("FIX-B"), "v1", "v2")
        with pytest.raises(EndpointMismatch):
            extend_map(v, "left", ("d3",))

    def test_swapped_cube_images_fail_face_check(self):
        x = fixtures.load("FIX-TWOCELLS")
        m = extend_map(routes(x, "x0", "x2"), "left", ())
        faces = m.src.base.faces(1)
        i, j = next(
            (i, j)
            for i in range(len(faces))
            for j in range(i)
            if faces[i] != faces[j]
        )
        level = list(m.cube_images[0])
        level[i], level[j] = level[j], level[i]
        swapped = replace(m, cube_images=(tuple(level),) + m.cube_images[1:])
        with pytest.raises(NotCubical, match="face maps do not commute"):
            swapped.check_faces()


def _uneven(w):
    """Send FIX-A's filled track to nothing but keep its faces apart."""
    return tuple(c for c in w if c != "c2") or ("e",)


def _even(w):
    """Collapse FIX-A's filled track onto its lower route d1.d2.d3."""
    return ("d1", "d2", "d3") if w in (("c2",), ("e",)) else w


class TestSpaceMaps:
    def test_same_base_identity(self):
        x = fixtures.load("FIX-B")
        ts = trace_space(x, "v0", "v3")
        sm = extend_map(ts, "left", ())
        m = Valuation("hom", 1).map(sm)
        assert m == ValueMap.identity(m.src)

    def test_collapse(self):
        x = fixtures.load("FIX-A")
        big = trace_space(x, "v0", "v3")
        point = trace_space(x, "c2", "c2")
        m = Valuation("pi0").map(SpaceMap.collapse(big, point))
        assert m.tgt.components == 1
        assert m.comp.images == (0, 0)

    def test_word_map_degenerate_needs_even_collapse(self):
        # collapsing only one side of a filled track is not a chain map
        x = fixtures.load("FIX-A")
        ts = trace_space(x, "v0", "v3")
        sm = SpaceMap.by_words(ts, ts, _uneven)
        with pytest.raises(NotFunctorial):
            Valuation("hom", 1).map(sm)

    def test_by_words_degenerates_a_cube_that_loses_a_letter(self):
        ts = trace_space(fixtures.load("FIX-A"), "v0", "v3")
        sm = SpaceMap.by_words(ts, ts, _even)
        assert sm.vertex_images == (0, 1, 0)
        assert sm.cube_images == ((None,),)
        sm.check_chain_map()
        assert sm.push(1, [3]) == [0]

    def test_check_faces_rejects_a_degenerate_cube(self):
        ts = trace_space(fixtures.load("FIX-A"), "v0", "v3")
        with pytest.raises(NotCubical, match="degenerates"):
            SpaceMap.by_words(ts, ts, _even).check_faces()

    @pytest.mark.parametrize(
        "word_fn, message",
        [
            (lambda w: ("s",), "image of a 0-cube has degree 1"),
            (lambda w: w + ("g",), "missing from target"),
        ],
    )
    def test_by_words_rejects_bad_vertex_images(self, word_fn, message):
        ts = trace_space(fixtures.load("FIX-LOOPCELL"), "u0", "u1")
        with pytest.raises(NotCubical, match=message):
            SpaceMap.by_words(ts, ts, word_fn)

    def test_by_words_rejects_a_square_that_gains_a_letter(self):
        ts = trace_space(two_loops(), "u0", "u2")
        with pytest.raises(NotCubical, match="image of a 1-cube has degree 2"):
            SpaceMap.by_words(ts, ts, lambda w: ("s1", "s2") if "s1" in w else w)

    def test_by_words_places_the_extra_point(self):
        x = fixtures.load("FIX-A")
        point = trace_space(x, "c2", "c2")
        ts = trace_space(x, "v0", "v3")
        sm = SpaceMap.by_words(point, ts, lambda w: w, extra_word=("e",))
        assert sm.extra_image == ts.base.index[("e",)][1] == 2
        assert Valuation("pi0").map(sm).comp.images == (0,)  # e lies on c2
        with pytest.raises(ValueError, match="needs an image word"):
            SpaceMap.by_words(point, ts, lambda w: w)
        with pytest.raises(NotCubical, match="not a target vertex"):
            SpaceMap.by_words(point, ts, lambda w: w, extra_word=("c2",))


def _outcome(fn, *args):
    """The result of fn, or the class and message of the NotFunctorial it raised."""
    try:
        return fn(*args)
    except NotFunctorial as err:
        return (type(err), str(err))


def two_loops():
    """Two loop cells in a row between tails, so that route complexes carry
    H1 and H2 (the gallery's generator maps have none in their sources)."""
    return load_data("LOOPS")


@pytest.fixture(scope="module")
def oracle_maps():
    """Every generator map of every gallery fixture and of ``two_loops``
    under hom:2, every component of the crush map FIX-A -> FIX-B, and
    FIX-A's uneven collapse."""
    hom2 = Valuation("hom", 2)
    out = []
    for x in [fixtures.load(name) for name in fixtures.GALLERY] + [two_loops()]:
        b = _SystemBuilder(x, hom2, DEFAULT_CAP)
        out += [b.gen_space_map(s, t) for s, t in b.index.generators()]
    x, y = fixtures.load("FIX-A"), fixtures.load("FIX-B")
    bx = _SystemBuilder(x, hom2, DEFAULT_CAP)
    by = _SystemBuilder(y, hom2, DEFAULT_CAP)
    m = fixtures.crush_a_to_b()
    for t in bx.index.objects:
        t2 = map_chain_through(m, x, y, t)
        out.append(crush_component(m, x, y, t, t2, bx.space(t), by.space(t2)))
    ts = trace_space(x, "v0", "v3")
    out.append(SpaceMap.by_words(ts, ts, _uneven))
    return out


def _perturbed(sm):
    """Nearby maps: top cube dropped, two degree-1 images swapped, the
    first vertex sent past the target's base vertices."""
    out = []
    if sm.cube_images and sm.cube_images[-1]:
        top = (None,) + sm.cube_images[-1][1:]
        out.append(replace(sm, cube_images=sm.cube_images[:-1] + (top,)))
    if sm.cube_images and len(set(sm.cube_images[0])) > 1:
        level = list(sm.cube_images[0])
        j = next(j for j, img in enumerate(level) if img != level[0])
        level[0], level[j] = level[j], level[0]
        out.append(replace(sm, cube_images=(tuple(level),) + sm.cube_images[1:]))
    if sm.vertex_images:
        far = (len(sm.tgt.base.vertices),) + sm.vertex_images[1:]
        out.append(replace(sm, vertex_images=far))
    return out


class TestSpaceMapAgainstMatrices:
    """``check_chain_map`` and ``push`` against the dense chain matrices
    that ``Valuation.map`` used to build, kept in ``helpers.chain_matrices``."""

    def test_push_matches_matrices(self, oracle_maps):
        cycles = 0
        for sm in oracle_maps:
            mats = _outcome(chain_matrices, sm)
            if isinstance(mats, tuple):
                continue
            for k in range(1, len(mats)):
                basis = homology_basis(sm.src.base, k)
                chains = [basis.generator_cycle(i) for i in range(basis.group.n_gens)]
                cycles += len(chains)
                n = sm.src.base.n_cubes(k)
                chains += [[int(i == j) for j in range(n)] for i in range(n)]
                chains.append([2 * i - n for i in range(n)])
                for z in chains:
                    assert sm.push(k, z) == mat_vec(mats[k], z)
        assert cycles > 20

    def test_check_raises_where_the_old_check_raised(self, oracle_maps):
        raised = 0
        for sm in oracle_maps + [p for sm in oracle_maps for p in _perturbed(sm)]:
            old = _outcome(chain_matrices, sm)
            new = _outcome(sm.check_chain_map)
            if isinstance(old, tuple):
                assert new == old
                raised += 1
            else:
                assert new is None
        assert raised > 50


def two_squares():
    """Two filled squares glued corner to corner."""
    return GlobularComplex(
        "TWOSQ",
        ["s00", "s01", "s10", "s11", "t01", "t10", "t11"],
        [
            Edge("a1", "s00", "s01"),
            Edge("b1", "s01", "s11"),
            Edge("c1", "s00", "s10"),
            Edge("d1", "s10", "s11"),
            Edge("a2", "s11", "t01"),
            Edge("b2", "t01", "t11"),
            Edge("c2", "s11", "t10"),
            Edge("d2", "t10", "t11"),
        ],
        [
            Cell2("q1", ("a1", "b1"), ("c1", "d1")),
            Cell2("q2", ("a2", "b2"), ("c2", "d2")),
        ],
    )


class TestDiscreteTrace:
    def test_full_edge_traversal(self):
        x = fixtures.load("FIX-EDGE")
        gamma = DirectedPathPL((("d", None),), PLMap([(0, 0), (1, 1)]))
        chain, cuts = discrete_trace(x, gamma)
        assert chain == ("v0", "d", "v1")
        assert cuts == (0, 0, 1, 1)

    def test_interior_constant(self):
        x = fixtures.load("FIX-EDGE")
        gamma = DirectedPathPL((("d", None),), PLMap([(0, F(1, 2)), (1, F(1, 2))]))
        chain, cuts = discrete_trace(x, gamma)
        assert chain == ("d",)
        assert cuts == (0, 1)

    def test_partial_window(self):
        x = fixtures.load("FIX-HOLLOW")
        clock = PLMap([(0, F(1, 2)), (1, F(3, 2))])
        gamma = DirectedPathPL((("a", None), ("b", None)), clock)
        chain, cuts = discrete_trace(x, gamma)
        assert chain == ("a", "s01", "b")
        assert cuts == (0, F(1, 2), F(1, 2), 1)

    def test_flat_plateau_at_state(self):
        x = fixtures.load("FIX-HOLLOW")
        clock = PLMap([(0, F(1, 2)), (F(1, 4), 1), (F(3, 4), 1), (1, F(3, 2))])
        gamma = DirectedPathPL((("a", None), ("b", None)), clock)
        chain, cuts = discrete_trace(x, gamma)
        assert chain == ("a", "s01", "b")
        assert cuts == (0, F(1, 4), F(3, 4), 1)

    def test_five_conditions_random(self):
        rng = random.Random(20)
        for name in ["FIX-A", "FIX-B", "FIX-SQUARE", "FIX-TWOCELLS", "FIX-LOOPCELL"]:
            x = fixtures.load(name)
            for _ in range(10):
                gamma = _random_path(rng, x)
                _assert_trace_conditions(x, gamma)

    def test_concatenation_merges_traces(self):
        x = two_squares()
        g1 = DirectedPathPL(
            (("q1", F(1, 3)),), PLMap([(0, 0), (1, 1)])
        )
        g2 = DirectedPathPL(
            (("q2", F(1, 2)),), PLMap([(0, 0), (1, 1)])
        )
        both = concat_paths(x, g1, g2)
        c1, _ = discrete_trace(x, g1)
        c2, _ = discrete_trace(x, g2)
        merged, _ = discrete_trace(x, both)
        assert merged == c1 + c2[1:]

    def test_tame_normal_form_same_trace(self):
        x = two_squares()
        rng = random.Random(21)
        for _ in range(10):
            clock = rand_monotone(rng, 1, 2, n_pts=4)
            gamma = DirectedPathPL(
                (("q1", F(1, 3)), ("q2", F(2, 3))), clock
            )
            natgl, _ = naturalize(x, gamma)
            assert discrete_trace(x, gamma)[0] == discrete_trace(x, natgl)[0]


def _random_path(rng, x):
    arcs = {}
    for s in x.states:
        arcs[s] = [n for n in list(x.edges) + list(x.cells2) if x.src(n) == s]
    starts = [s for s in x.states if arcs[s]]
    state = rng.choice(starts)
    word = []
    while arcs.get(state) and (not word or rng.random() < 0.7):
        cell = rng.choice(arcs[state])
        z = None
        if cell in x.cells2:
            z = F(rng.randint(1, 5), 6)
        word.append((cell, z))
        state = x.tgt(cell)
    n = len(word)
    style = rng.random()
    if style < 0.2:
        v = F(rng.randint(0, 4 * n), 4)
        clock = PLMap([(0, v), (1, v)])
    elif style < 0.5:
        clock = rand_monotone(rng, 1, n, n_pts=4)  # surjective
    else:
        clock = rand_monotone(rng, 1, n, n_pts=4, surjective=False)
    return DirectedPathPL(tuple(word), clock)


def _assert_trace_conditions(x, gamma):
    chain, cuts = discrete_trace(x, gamma)
    m = len(chain)
    assert len(cuts) == m + 1
    assert cuts[0] == 0 and cuts[-1] == 1
    assert all(a <= b for a, b in zip(cuts, cuts[1:]))
    # consecutive entries differ
    assert all(a != b for a, b in zip(chain, chain[1:]))
    # endpoints
    assert point_cell(x, gamma, 0) == chain[0]
    assert point_cell(x, gamma, 1) == chain[-1]
    for i in range(m):
        a, b = cuts[i], cuts[i + 1]
        cell = chain[i]
        closure = {cell}
        if x.dim(cell) >= 1:
            closure |= {x.src(cell), x.tgt(cell)}
        probes = [a, b, (a + b) / 2] if a != b else [a]
        # refine probes with the clock's own breakpoints inside [a, b]
        probes += [t for t, _ in gamma.clock.breakpoints if a < t < b]
        for t in probes:
            assert point_cell(x, gamma, t) in closure
        if a != b:
            interior = [(a + b) / 2]
            interior += [t for t, _ in gamma.clock.breakpoints if a < t < b]
            mids = interior + [
                (p + q) / 2 for p, q in zip(sorted(interior), sorted(interior)[1:])
            ]
            for t in mids:
                if a < t < b:
                    assert point_cell(x, gamma, t) == cell
    for i in range(1, m):
        assert point_cell(x, gamma, cuts[i]) in (chain[i - 1], chain[i])


class TestNaturalize:
    def test_reads_off_decomposition(self):
        x = fixtures.load("FIX-EDGE")
        clock = PLMap([(0, 0), (F(1, 2), F(1, 4)), (1, 1)])
        gamma = DirectedPathPL((("d", None),), clock)
        natgl, phi = naturalize(x, gamma)
        assert natgl.clock == PLMap([(0, 0), (1, 1)])
        assert phi == clock
        assert is_regular(MoorePathPL(1, [natgl.clock]))

    def test_two_letter_clock_class(self):
        x = fixtures.load("FIX-HOLLOW")
        clock = PLMap([(0, 0), (F(1, 3), F(3, 2)), (1, 2)])
        gamma = DirectedPathPL((("a", None), ("b", None)), clock)
        natgl, phi = naturalize(x, gamma)
        assert natgl.clock == PLMap([(0, 0), (1, 2)])
        assert phi.v_first == 0 and phi.v_last == 2

    def test_rejects_non_surjective(self):
        x = fixtures.load("FIX-EDGE")
        gamma = DirectedPathPL((("d", None),), PLMap([(0, 0), (1, F(1, 2))]))
        with pytest.raises(NotExecutionPath):
            naturalize(x, gamma)


class TestPathSpecFormat:
    def test_roundtrip(self):
        x = fixtures.load("FIX-A")
        gamma = DirectedPathPL(
            (("c2", F(1, 2)),), PLMap([(0, 0), (F(1, 3), F(1, 2)), (1, 1)])
        )
        text = format_path_spec(gamma)
        back = parse_path_spec(text, x)
        assert back == gamma

    def test_parse_example(self):
        x = fixtures.load("FIX-HOLLOW")
        g = parse_path_spec(
            "path : a b clock: 0/1,1/2 1/1,3/2", x
        )
        assert g.word == (("a", None), ("b", None))
        assert g.clock == PLMap([(0, F(1, 2)), (1, F(3, 2))])
