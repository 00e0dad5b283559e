"""Smith normal form, chain complexes, homology, induced maps."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from ditop import algtop, fixtures
from ditop.algtop import (
    FgAbGroup,
    ChainComplex,
    FinSetMap,
    GroupHom,
    HomologyBasis,
    _snf,
    chain_complex,
    homology,
    homology_basis,
    mat_identity,
    mat_mul,
    mat_vec,
    mat_zero,
    pi0,
    smith_normal_form,
)
from ditop.gcomplex import parse_gcx, subdivide_2cell, subdivide_edge
from ditop.pathspace import extend_map, path_complex, rep_path
from ditop.values import Valuation
from helpers import (
    HomologyBasisBySolve,
    hom_rows,
    inverse_by_solve,
    kills_torsion,
    load_data,
    routes,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from gridgen import grid  # noqa: E402

PI0 = Valuation("pi0")
HOM1 = Valuation("hom", 1)


def det(m):
    """Exact determinant by fraction-free elimination (test oracle)."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for i in range(n):
        piv = next((r for r in range(i, n) if a[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            sign = -sign
        for r in range(i + 1, n):
            factor = a[r][i] / a[i][i]
            for c in range(i, n):
                a[r][c] -= factor * a[i][c]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    assert out.denominator == 1
    return int(out)


def gcd_all(values):
    from math import gcd

    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g


class TestSNF:
    def test_gcd_of_minors_oracle(self):
        m = [[2, 4], [6, 8]]
        d, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        d1, d2 = d[0][0], d[1][1]
        assert d1 == gcd_all([2, 4, 6, 8]) == 2
        assert d1 * d2 == abs(det(m)) == 8

    def test_identity(self):
        m = mat_identity(3)
        d, u, v = smith_normal_form(m)
        assert d == mat_identity(3)

    def test_zero(self):
        m = [[0, 0], [0, 0], [0, 0]]
        d, u, v = smith_normal_form(m)
        assert d == m
        assert mat_mul(mat_mul(u, m), v) == d

    def test_random_roundtrip(self):
        rng = random.Random(30)
        for _ in range(200):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            d, u, v = smith_normal_form(m)
            assert mat_mul(mat_mul(u, m), v) == d
            assert abs(det(u)) == 1 and abs(det(v)) == 1
            diag = [d[i][i] for i in range(min(rows, cols))]
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert d[i][j] == 0
            nz = [x for x in diag if x]
            assert diag[: len(nz)] == nz  # zeros trail
            for a, b in zip(nz, nz[1:]):
                assert b % a == 0
            assert all(x >= 0 for x in diag)
            st = _snf(m)
            assert mat_mul(st.u, st.u_inv) == mat_identity(rows)
            assert mat_mul(st.v, st.v_inv) == mat_identity(cols)
            oracle = sympy_snf(Matrix(m), domain=ZZ)
            oracle_diag = [abs(oracle[i, i]) for i in range(min(rows, cols))]
            assert nz == [x for x in oracle_diag if x]


class TestChainComplex:
    def test_square_boundary(self):
        p = path_complex(fixtures.load("FIX-SQUARE"), "s00", "s11")
        cx = chain_complex(p)
        assert cx.ranks == (2, 1)
        assert cx.boundary(1) == [[-1], [1]]

    def test_zero_dimensional(self):
        p = path_complex(fixtures.load("FIX-HOLLOW"), "s00", "s11")
        cx = chain_complex(p)
        assert cx.ranks == (2,)
        assert cx.boundary(1) == [[], []]

    def test_loopcell_cancels(self):
        p = path_complex(fixtures.load("FIX-LOOPCELL"), "u0", "u1")
        cx = chain_complex(p)
        assert cx.boundary(1) == [[0]]

    def test_dd_zero_everywhere(self):
        for name in fixtures.GALLERY:
            x = fixtures.load(name)
            for a in x.states:
                for b in x.states:
                    chain_complex(path_complex(x, a, b))  # raises if dd != 0


class TestHomology:
    def test_fix_b_two_components(self):
        p = path_complex(fixtures.load("FIX-B"), "v0", "v3")
        assert homology(p, 0) == FgAbGroup(2)

    def test_square_contractible(self):
        p = path_complex(fixtures.load("FIX-SQUARE"), "s00", "s11")
        assert homology(p, 0) == FgAbGroup(1)
        assert homology(p, 1) == FgAbGroup(0)

    def test_loopcell_circle(self):
        p = path_complex(fixtures.load("FIX-LOOPCELL"), "u0", "u1")
        assert homology(p, 0) == FgAbGroup(1)
        assert homology(p, 1) == FgAbGroup(1)

    def test_twocells(self):
        p = path_complex(fixtures.load("FIX-TWOCELLS"), "x0", "x2")
        assert homology(p, 0) == FgAbGroup(1)
        assert homology(p, 1) == FgAbGroup(0)

    def test_h0_rank_equals_pi0(self):
        for name in fixtures.GALLERY:
            x = fixtures.load(name)
            for a in x.states:
                for b in x.states:
                    p = path_complex(x, a, b)
                    assert homology(p, 0).rank == pi0(p).n_classes
                    assert homology(p, 0).torsion == ()

    def test_generator_cycles_classify_to_identity(self):
        p = path_complex(fixtures.load("FIX-LOOPCELL"), "u0", "u1")
        basis = homology_basis(p, 1)
        for i in range(basis.group.n_gens):
            z = basis.generator_cycle(i)
            cls = basis.class_of_cycle(z)
            assert cls == [1 if j == i else 0 for j in range(basis.group.n_gens)]

    def test_snf_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(algtop, "_snf", lambda m: calls.append(1) or _snf(m))
        cx = chain_complex(path_complex(load_data("LOOPS"), "p", "q"))
        for k in range(4):
            calls.clear()
            HomologyBasis(cx, k)
            assert len(calls) <= 2, k
        calls.clear()
        g = FgAbGroup(1, (2,))
        GroupHom.make(g, g, [[1, 1], [0, 1]]).inverse()
        assert len(calls) == 1

    def test_class_of_non_cycle_raises(self):
        # H1 of the square is 0 and its one 1-cube is no cycle
        p = path_complex(fixtures.load("FIX-SQUARE"), "s00", "s11")
        basis = homology_basis(p, 1)
        with pytest.raises(ValueError, match="not in the kernel lattice"):
            basis.class_of_cycle([1])


class TestPi0:
    def test_fix_a_components(self):
        p = path_complex(fixtures.load("FIX-A"), "v0", "v3")
        part = pi0(p)
        assert part.n_classes == 2
        by_word = dict(zip(p.vertices, part.classes))
        assert by_word[("d1", "d2", "d3")] == by_word[("e",)] == 0
        assert by_word[("d1", "d4", "d3")] == 1

    def test_square_connected(self):
        p = path_complex(fixtures.load("FIX-SQUARE"), "s00", "s11")
        assert pi0(p).n_classes == 1

    def test_empty(self):
        p = path_complex(fixtures.load("FIX-B"), "v3", "v0")
        assert pi0(p).n_classes == 0


def glued(val, v, *steps):
    """The value map of extending v step by step, composed."""
    out = None
    for side, path in steps:
        sm = extend_map(v, side, path)
        m = val.map(sm)
        out = m if out is None else m.compose(out)
        v = sm.tgt
    return out


class TestInduced:
    """Valuation.map on the space maps that extend_map builds."""

    def test_identity(self):
        v = routes(fixtures.load("FIX-TWOCELLS"), "x0", "x2")
        m = HOM1.map(extend_map(v, "left", ()))
        assert m.comp == FinSetMap.identity(1)
        assert m.homs == (GroupHom.identity(homology(v.base, 1)),)

    def test_extension_picks_filled_component(self):
        x = fixtures.load("FIX-A")
        m = extend_map(routes(x, "v0", "v0"), "right", rep_path(x, "c2"))
        comp = PI0.map(m).comp
        assert comp.images == (0,)  # the component containing d1.d2.d3 and e

    def test_left_extension_h0(self):
        x = fixtures.load("FIX-TWOCELLS")
        m = Valuation("hom", 0).map(extend_map(routes(x, "x1", "x2"), "left", ("f",)))
        assert m.src.groups == m.tgt.groups == (FgAbGroup(1),)
        assert m.comp.images == (0,)

    def test_functorial_composition(self):
        # a glued path induces the composite of its pieces, in either order
        x = fixtures.load("FIX-A")
        v12 = routes(x, "v1", "v2")
        v23 = routes(x, "v2", "v3")
        for val in (PI0, HOM1):
            assert glued(val, v12, ("left", ("d1",)), ("right", ("d3",))) == glued(
                val, v12, ("right", ("d3",)), ("left", ("d1",))
            )
            assert glued(val, v23, ("left", ("d1", "d2"))) == glued(
                val, v23, ("left", ("d2",)), ("left", ("d1",))
            )

    def test_rep_choice_invariance(self):
        # extending by the lower or the upper route of any 2-cell induces
        # the same maps on components and homology
        for name in fixtures.GALLERY:
            x = fixtures.load(name)
            for cname, cell in x.cells2.items():
                for beta in x.states:
                    v = routes(x, x.tgt(cname), beta)
                    if not v.base.vertices:
                        continue
                    lo = extend_map(v, "left", cell.lower)
                    up = extend_map(v, "left", cell.upper)
                    for val in (PI0, HOM1):
                        assert val.map(lo) == val.map(up)


class TestSubdivisionInvariance:
    def test_homology_stable_under_both_splits(self):
        for name in fixtures.GALLERY:
            x = fixtures.load(name)
            variants = []
            for e in x.edges:
                variants.append(subdivide_edge(x, e))
            for c in x.cells2:
                variants.append(subdivide_2cell(x, c, 2))
            for y, ref in variants:
                back = {s: ref[s] for s in y.states}
                for a in x.states:
                    for b in x.states:
                        p = path_complex(x, a, b)
                        a2 = next(s for s in y.states if back[s] == a and s in x.states)
                        b2 = next(s for s in y.states if back[s] == b and s in x.states)
                        q = path_complex(y, a2, b2)
                        for k in (0, 1):
                            assert homology(p, k) == homology(q, k), (
                                name,
                                a,
                                b,
                                k,
                            )


class TestGroupHom:
    def test_surjectivity_and_iso(self):
        g = FgAbGroup(1, (2,))
        h = GroupHom.make(g, g, [[1, 0], [0, 1]])
        assert h.is_iso()
        flip = GroupHom.make(g, g, [[1, 1], [0, 1]])
        assert flip.is_iso()
        assert flip.inverse().compose(flip) == GroupHom.identity(g)
        not_onto = GroupHom.make(g, g, [[0, 0], [0, 2]])
        assert not not_onto.is_surjective()

    def test_free_rank_two(self):
        g = FgAbGroup(2)
        m = GroupHom.make(g, g, [[2, 1], [1, 1]])
        assert m.is_iso()
        assert m.inverse().matrix == ((1, -1), (-1, 2))
        n = GroupHom.make(g, g, [[2, 0], [0, 1]])
        assert not n.is_iso()

    def test_torsion_reduction(self):
        g = FgAbGroup(0, (3,))
        h = GroupHom.make(g, g, [[4]])
        assert h.matrix == ((1,),)


GROUPS = [
    FgAbGroup(0),
    FgAbGroup(1),
    FgAbGroup(2),
    FgAbGroup(0, (2,)),
    FgAbGroup(0, (4,)),
    FgAbGroup(0, (6,)),
    FgAbGroup(1, (2,)),
    FgAbGroup(1, (4,)),
    FgAbGroup(0, (2, 4)),
    FgAbGroup(2, (2, 6)),
]


def rand_rows(rng, src, tgt, lo, hi):
    return [[rng.randint(lo, hi) for _ in range(src.n_gens)] for _ in range(tgt.n_gens)]


def rand_hom(rng, src, tgt, lo=-7, hi=7):
    return GroupHom.make(src, tgt, hom_rows(rng, src, tgt, lo, hi))


class TestMakeChecksHomomorphism:
    """``GroupHom.make`` accepts a matrix only if every torsion generator
    goes to an element its order kills."""

    def test_examples(self):
        # Z/2 -> Z/4 sending the generator to 1, which has order 4
        with pytest.raises(ValueError, match="not a homomorphism"):
            GroupHom.make(FgAbGroup(0, (2,)), FgAbGroup(0, (4,)), [[1]])
        # on Z + Z/4 the torsion generator would go to an element with a
        # free part; such a map passed is_iso, but had no inverse
        g = FgAbGroup(1, (4,))
        with pytest.raises(ValueError, match="not a homomorphism"):
            GroupHom.make(g, g, ((3, 1), (-2, -3)))

    def test_random_matrices(self):
        rng = random.Random(44)
        accepted = rejected = isos = 0
        for _ in range(3000):
            src = rng.choice(GROUPS)
            tgt = src if rng.random() < 0.5 else rng.choice(GROUPS)
            rows = rand_rows(rng, src, tgt, -3, 3)
            if not kills_torsion(rows, src, tgt):
                rejected += 1
                with pytest.raises(ValueError, match="not a homomorphism"):
                    GroupHom.make(src, tgt, rows)
                continue
            accepted += 1
            h = GroupHom.make(src, tgt, rows)
            if h.is_iso():
                isos += 1
                inv = h.inverse()
                assert inv.compose(h) == GroupHom.identity(src), h
                assert h.compose(inv) == GroupHom.identity(tgt), h
        assert accepted > 300 and rejected > 300 and isos > 100


class TestCompose:
    """Composites skip re-validation; they must equal the validated build."""

    def test_finset_composite_matches_constructor(self):
        rng = random.Random(5)
        for _ in range(300):
            a, b, c = (rng.randint(0, 4) for _ in range(3))
            if a and not b or b and not c:
                continue  # no map from a nonempty set to an empty one
            first = FinSetMap(a, b, tuple(rng.randrange(b) for _ in range(a)))
            second = FinSetMap(b, c, tuple(rng.randrange(c) for _ in range(b)))
            expected = FinSetMap(a, c, tuple(second.images[i] for i in first.images))
            assert second.compose(first) == expected

    def test_group_composite_matches_make(self):
        rng = random.Random(6)
        for _ in range(400):
            a, b, c = (rng.choice(GROUPS) for _ in range(3))
            first, second = rand_hom(rng, a, b), rand_hom(rng, b, c)
            got = second.compose(first)
            if b.n_gens:
                expected = GroupHom.make(
                    a, c, mat_mul([list(r) for r in second.matrix],
                                  [list(r) for r in first.matrix])
                )
            else:  # through the trivial group: the zero map
                expected = GroupHom.make(a, c, [[0] * a.n_gens] * c.n_gens)
            assert got == expected, (a, b, c)
            orders = c.gen_orders()
            assert all(
                0 <= x < orders[r] for r, row in enumerate(got.matrix) if orders[r]
                for x in row
            )

    def test_compose_through_trivial_group(self):
        z, zero = FgAbGroup(1), FgAbGroup(0)
        into = GroupHom.make(z, zero, [])
        out = GroupHom.make(zero, z, [[]])
        assert out.compose(into) == GroupHom.make(z, z, [[0]])

    def test_public_constructors_still_validate(self):
        with pytest.raises(ValueError, match="not a map of finite sets"):
            FinSetMap(2, 2, (0, 2))
        with pytest.raises(ValueError, match="not a map of finite sets"):
            FinSetMap(2, 2, (0,))
        with pytest.raises(ValueError, match="not a map of finite sets"):
            FinSetMap(1, 3, (-1,))
        g = FgAbGroup(1, (2,))
        with pytest.raises(ValueError, match="matrix shape"):
            GroupHom.make(g, g, [[1, 0]])
        with pytest.raises(ValueError, match="matrix shape"):
            GroupHom.make(g, FgAbGroup(1), [[1, 0, 0]])
        with pytest.raises(ValueError, match="divisibility chain"):
            FgAbGroup(0, (4, 6))
        with pytest.raises(ValueError, match=">= 2"):
            FgAbGroup(1, (1,))

    def test_non_composable_rejected(self):
        with pytest.raises(ValueError, match="not composable"):
            FinSetMap(2, 2, (0, 1)).compose(FinSetMap(1, 3, (2,)))
        z, z2, z4 = FgAbGroup(1), FgAbGroup(0, (2,)), FgAbGroup(0, (4,))
        for mid_first, mid_second in ((z2, z4), (z, z2), (z2, z)):
            first = GroupHom.make(z, mid_first, [[1]])
            second = GroupHom.make(mid_second, z, [[0]])
            with pytest.raises(ValueError, match="not composable"):
                second.compose(first)
        # an equal but distinct group object composes
        first = GroupHom.make(z, FgAbGroup(0, (4,)), [[3]])
        assert GroupHom.make(z4, z4, [[2]]).compose(first).matrix == ((2,),)


def holed_grid(n, m, holes):
    return parse_gcx(grid(n, m, holes).text(), f"G{n}x{m}")


def basis_cases():
    """(label, path complex, degree) for every state pair of the gallery
    and LOOPS in degrees 0 to dim + 1, and corner to corner of a few holed
    grids."""
    for x in [fixtures.load(name) for name in fixtures.GALLERY] + [load_data("LOOPS")]:
        for a in x.states:
            for b in x.states:
                p = path_complex(x, a, b)
                for k in range(p.dimension + 2):
                    yield f"{x.name} {a}->{b} H{k}", p, k
    grids = ((2, 2, [(0, 0)]), (3, 3, [(1, 1)]), (3, 4, [(1, 1)]), (2, 4, [(0, 1), (1, 2)]))
    for n, m, holes in grids:
        p = path_complex(holed_grid(n, m, holes), "s0_0", f"s{n}_{m}")
        for k in range(p.dimension + 2):
            yield f"grid {n}x{m} minus {holes} H{k}", p, k


class TestAgainstSolveOracle:
    """``HomologyBasis`` reads kernel coordinates off the tracked V^-1 of
    one SNF; the oracle solves for them against an SNF of the kernel."""

    def assert_agree(self, cx, k, rng, label):
        new, old = HomologyBasis(cx, k), HomologyBasisBySolve(cx, k)
        assert new.group == old.group, label
        assert new.kernel == old.kernel, label
        assert [new.generator_cycle(i) for i in range(new.group.n_gens)] == [
            old.generator_cycle(i) for i in range(old.group.n_gens)
        ], label
        z = len(new.kernel[0]) if new.kernel else 0
        if not z:
            return False
        bnd, bnd_up = cx.boundary(k), cx.boundary(k + 1)
        for _ in range(6):
            # a random cycle plus a random boundary
            cycle = mat_vec(new.kernel, [rng.randint(-3, 3) for _ in range(z)])
            for col in range(cx.rank(k + 1)):
                q = rng.randint(-2, 2)
                cycle = [x + q * row[col] for x, row in zip(cycle, bnd_up)]
            assert new.class_of_cycle(cycle) == old.class_of_cycle(cycle), label
        for i in range(cx.rank(k)):
            if any(row[i] for row in bnd):  # the i-th cell is no cycle
                chain = [int(j == i) for j in range(cx.rank(k))]
                for basis in (new, old):
                    with pytest.raises(ValueError, match="not in the kernel lattice"):
                        basis.class_of_cycle(chain)
        return True

    def test_route_complexes_agree(self):
        rng = random.Random(41)
        with_cycles = sum(
            self.assert_agree(chain_complex(p), k, rng, label)
            for label, p, k in basis_cases()
        )
        assert with_cycles > 50

    def test_random_complexes_agree(self):
        # C2 -> C1 -> C0 with d2 = (kernel basis of d1) x R: torsion in H1
        rng = random.Random(42)
        torsion = 0
        for trial in range(150):
            n0, n1, n2 = rng.randint(0, 4), rng.randint(1, 5), rng.randint(1, 4)
            d1 = [[rng.randint(-2, 2) for _ in range(n1)] for _ in range(n0)]
            if n0:
                d, u, v = smith_normal_form(d1)
                r = sum(1 for i in range(min(n0, n1)) if d[i][i])
                kernel = [row[r:] for row in v]
            else:
                kernel = mat_identity(n1)
            z = len(kernel[0])
            r2 = [[rng.randint(-3, 3) for _ in range(n2)] for _ in range(z)]
            d2 = mat_mul(kernel, r2) if z else mat_zero(n1, n2)
            bnds = ((), tuple(map(tuple, d1)), tuple(map(tuple, d2)))
            cx = ChainComplex((n0, n1, n2), bnds)
            for k in range(4):
                self.assert_agree(cx, k, rng, f"trial {trial} H{k}")
            torsion += bool(HomologyBasis(cx, 1).group.torsion)
        assert torsion > 10

    def test_inverses_agree(self):
        # random well-defined isomorphisms: a torsion generator of order d
        # must go to an element killed by d
        rng = random.Random(43)
        isos = 0
        for _ in range(3000):
            g = rng.choice(GROUPS[1:])
            rows = rand_rows(rng, g, g, -3, 3)
            if not kills_torsion(rows, g, g):
                continue
            h = GroupHom.make(g, g, rows)
            if not h.is_iso():
                continue
            isos += 1
            inv = h.inverse()
            assert inv == inverse_by_solve(h), h
            assert inv.compose(h) == GroupHom.identity(g) == h.compose(inv)
        assert isos > 300
