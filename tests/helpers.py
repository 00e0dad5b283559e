"""Seeded random generators for exact PL data, and small builders, used
across the test suite."""

from fractions import Fraction
from pathlib import Path
import os
import random

from ditop.algtop import FgAbGroup, GroupHom, _snf, mat_identity, mat_vec, mat_zero
from ditop.errors import NotFunctorial
from ditop.gcomplex import parse_gcx
from ditop.pathspace import TraceSpaceValue, path_complex
from ditop.reparam import MoorePathPL, PLMap


DATA = Path(__file__).parent / "data"


def child_env():
    """The environment for a child ``python -m ditop.cli``: PYTHONPATH is
    the directory holding the ditop package this process imported."""
    import ditop

    return dict(os.environ, PYTHONPATH=str(Path(ditop.__file__).resolve().parents[1]))


def load_data(name: str):
    """The complex of ``tests/data/<name>.gcx``."""
    return parse_gcx((DATA / f"{name}.gcx").read_text(), name)


def rand_frac(rng: random.Random, den_max=12, lo=0, hi=1) -> Fraction:
    den = rng.randint(1, den_max)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def rand_increasing_ts(rng, n, length=Fraction(1)):
    """n strictly increasing rationals from 0 to length inclusive."""
    cuts = {Fraction(0), Fraction(length)}
    while len(cuts) < n:
        cuts.add(rand_frac(rng) * length)
    return sorted(cuts)


def rand_plmap(rng, n_pts=4, length=Fraction(1), v_lo=-2, v_hi=2) -> PLMap:
    ts = rand_increasing_ts(rng, n_pts, length)
    vs = [rand_frac(rng, lo=v_lo, hi=v_hi) for _ in ts]
    return PLMap(list(zip(ts, vs)))


def rand_monotone(rng, length, target, n_pts=4, surjective=True) -> PLMap:
    """A non-decreasing PL map [0, length] -> [0, target].

    Surjective variants run exactly from 0 to target; the rest start and
    end at random heights, with flat pieces allowed.
    """
    length, target = Fraction(length), Fraction(target)
    ts = rand_increasing_ts(rng, n_pts, length)
    steps = [rand_frac(rng, den_max=6) for _ in range(len(ts) - 1)]
    if rng.random() < 0.5 and steps:
        steps[rng.randrange(len(steps))] = Fraction(0)  # a flat piece
    total = sum(steps)
    vs = [Fraction(0)]
    if surjective:
        if total == 0:
            return PLMap([(0, 0), (length, target)])
        for s in steps:
            vs.append(vs[-1] + s * target / total)
    else:
        lo = rand_frac(rng) * target
        span = (target - lo) * rand_frac(rng)
        vs = [lo]
        if total == 0:
            return PLMap([(0, lo), (length, lo)]) if length else PLMap([(0, lo)])
        for s in steps:
            vs.append(vs[-1] + s * span / total)
    return PLMap(list(zip(ts, vs)))


def rand_moore(rng, length=Fraction(1), n_comp=1, n_pts=4) -> MoorePathPL:
    return MoorePathPL(
        length, [rand_plmap(rng, n_pts, length) for _ in range(n_comp)]
    )


def rand_moore_from(rng, start_values, length=Fraction(1), n_pts=4) -> MoorePathPL:
    """A random path that begins at the given component values."""
    comps = []
    for v0 in start_values:
        f = rand_plmap(rng, n_pts, length)
        comps.append(f.post_affine(1, v0 - f.v_first))
    return MoorePathPL(length, comps)


def sample_points(*maps):
    """All breakpoint t-values of the given PLMaps, for pointwise checks."""
    ts = set()
    for m in maps:
        ts.update(t for t, _ in m.breakpoints)
    return sorted(ts)


def random_directed_path(rng, x, surjective=None):
    """A random composable cell word with a random PL clock over x."""
    from ditop.pathspace import DirectedPathPL

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
            z = Fraction(rng.randint(1, 5), 6)
        word.append((cell, z))
        state = x.tgt(cell)
    n = len(word)
    style = rng.random() if surjective is None else (0.3 if surjective else 0.9)
    if style < 0.2:
        v = Fraction(rng.randint(0, 4 * n), 4)
        clock = PLMap([(0, v), (1, v)])
    elif style < 0.5:
        clock = rand_monotone(rng, 1, n, n_pts=4)
    else:
        clock = rand_monotone(rng, 1, n, n_pts=4, surjective=False)
    return DirectedPathPL(tuple(word), clock)


def routes(x, alpha, beta):
    """The route complex alpha -> beta as a trace-space model."""
    return TraceSpaceValue(path_complex(x, alpha, beta), extra_point=False)


def chain_matrices(sm):
    """Oracle for ``SpaceMap.check_chain_map`` and ``SpaceMap.push``: the
    map as dense integer matrices, one per degree, degenerate cubes sent to
    zero, after the old cube-by-cube check of boundary commutation."""
    src_p, tgt_p = sm.src.base, sm.tgt.base
    nv_tgt = len(tgt_p.vertices)
    images: list = [list(sm.vertex_images)]
    for element in sm.vertex_images:
        if element >= nv_tgt:
            raise NotFunctorial("base vertex sent to the extra point")
    images += [list(level) for level in sm.cube_images]

    def boundary_of_image(k, img):
        acc: dict[int, int] = {}
        if img is not None and k <= tgt_p.dimension:
            for j, (i0, i1) in enumerate(tgt_p.faces(k)[img], start=1):
                sign = -1 if j % 2 else 1
                acc[i0] = acc.get(i0, 0) + sign
                acc[i1] = acc.get(i1, 0) - sign
        return {key: v for key, v in acc.items() if v}

    for k in range(1, src_p.dimension + 1):
        src_faces = src_p.faces(k)
        for i, img in enumerate(images[k]):
            acc: dict[int, int] = {}
            for j, (i0, i1) in enumerate(src_faces[i], start=1):
                sign = -1 if j % 2 else 1
                for idx, s in ((i0, sign), (i1, -sign)):
                    t_img = images[k - 1][idx]
                    if t_img is not None:
                        acc[t_img] = acc.get(t_img, 0) + s
            acc = {key: v for key, v in acc.items() if v}
            if acc != boundary_of_image(k, img):
                raise NotFunctorial(
                    f"no chain-level extension at degree {k}: collapse is uneven"
                )
    mats = []
    m0 = mat_zero(nv_tgt, len(src_p.vertices))
    for i, element in enumerate(sm.vertex_images):
        m0[element][i] = 1
    mats.append(m0)
    for k in range(1, src_p.dimension + 1):
        mat = mat_zero(tgt_p.n_cubes(k), src_p.n_cubes(k))
        for i, img in enumerate(images[k]):
            if img is not None:
                mat[img][i] = 1
        mats.append(mat)
    return mats


# -- oracles for the indexed factorization poset and verifier ------------------


def hom_pairs(index):
    """Every morphism (a, b) of a factorization poset, a in object order."""
    return [(a, b) for a in index.objects for b in index.targets_from(a)]


def closure_maps(d):
    """Oracle for ``Diagram.map``: the map of every hom pair of d, by the
    closure walk the natural-system build once ran from every object,
    composing generator maps depth first and checking that routes agree."""
    from ditop.values import ValueMap

    values = d.values
    gen_maps = {(a, b): d.maps[(a, b)] for a, b in d.index.generators()}
    maps = {}
    for t in d.index.objects:
        known = {t: ValueMap.identity(values[t])}
        frontier = [t]
        while frontier:
            u = frontier.pop()
            for w in d.index.gens_from(u):
                m = gen_maps[(u, w)].compose(known[u])
                if w in known:
                    if known[w] != m:
                        raise NotFunctorial(
                            f"extension square at {t}: routes to {w} disagree"
                        )
                else:
                    known[w] = m
                    frontier.append(w)
        for w, m in known.items():
            maps[(t, w)] = m
    return maps


def is_subchain(a, b):
    """a occurs in b as a contiguous block: the old hom-set scan."""
    if len(a) > len(b) or a[0] not in b:
        return False
    at = b.index(a[0])
    return b[at : at + len(a)] == a


def scan_targets(index, a):
    """Targets of a by testing every object of the poset, in object order."""
    return tuple(b for b in index.objects if is_subchain(a, b))


def scan_gens(index, a):
    """Generators out of a: the objects one cell longer that contain a."""
    return tuple(
        b for b in index.objects if len(b) == len(a) + 1 and is_subchain(a, b)
    )


def square_commutes(f, g, i, eta, j, i2, eta2, j2):
    """g(j -> j2) . eta == eta2 . f(i -> i2), composed unless i is empty or
    j2 has at most one element and no homology (then both sides agree)."""
    from ditop.bisim import _is_simple

    if f.value(i).components == 0 or _is_simple(g.value(j2)):
        return True
    return g.map(j, j2).compose(eta) == eta2.compose(f.map(i, i2))


def _verify_by_scan(r, f, g, steps):
    """Coverage, then the square clause challenged along ``steps(index, a)``
    and answered by scanning every triple at the far object."""
    from ditop.bisim import _fmt

    triples = tuple(r.triples) if hasattr(r, "triples") else tuple(r)
    covered_i = {i for i, _, _ in triples}
    covered_j = {j for _, _, j in triples}
    for i in f.index.objects:
        if i not in covered_i:
            return False, f"clause 1: object {_fmt(i)} of the left diagram uncovered"
    for j in g.index.objects:
        if j not in covered_j:
            return False, f"clause 1: object {_fmt(j)} of the right diagram uncovered"
    by_i, by_j = {}, {}
    for t in triples:
        by_i.setdefault(t[0], []).append(t)
        by_j.setdefault(t[2], []).append(t)

    for i, eta, j in triples:
        for i2 in steps(f.index, i):
            if not any(
                is_subchain(j, j2) and square_commutes(f, g, i, eta, j, i2, eta2, j2)
                for _, eta2, j2 in by_i.get(i2, ())
            ):
                return (
                    False,
                    f"clause 2 (forth): {_fmt(i)} ~ {_fmt(j)} stuck along "
                    f"{_fmt(i)} -> {_fmt(i2)}",
                )
        for j2 in steps(g.index, j):
            if not any(
                is_subchain(i, i2) and square_commutes(f, g, i, eta, j, i2, eta2, j2)
                for i2, eta2, _ in by_j.get(j2, ())
            ):
                return (
                    False,
                    f"clause 2 (back): {_fmt(i)} ~ {_fmt(j)} stuck along "
                    f"{_fmt(j)} -> {_fmt(j2)}",
                )
    return True, None


def verify_bisimulation_by_scan(r, f, g):
    """Exhaustive brute-force verifier: the square clause is challenged
    along every morphism, from a scan of all objects, and every answering
    triple comes from a scan of all triples at the far object, tested
    with ``is_subchain``.  Its verdict must equal that of
    ``bisim.verify_bisimulation``, which challenges generators only.
    Returns (True, None) or (False, description of the first violation).
    """
    return _verify_by_scan(r, f, g, scan_targets)


def verify_bisimulation_by_gen_scan(r, f, g):
    """Brute-force oracle for ``bisim.verify_bisimulation``: the same
    scan, challenged along generators found by ``scan_gens``, so it
    names the same first violation."""
    return _verify_by_scan(r, f, g, scan_gens)


def bisimilar_by_scan(f, g):
    """Brute-force oracle for ``bisim.bisimilar``: (verdict, survivors).

    Seeds every iso candidate between every object pair in object order,
    then, round by round, keeps only the triples that every morphism out
    of either end (from ``scan_targets``) can challenge and some live
    triple answers, found by scanning the live triples at the far object
    with ``is_subchain``.  Stops when a round deletes nothing: the
    greatest fixpoint.  The verdict is "yes" when the survivors cover
    both sides, else "no", or "unknown" if some candidate enumeration
    was incomplete.
    """
    from ditop.values import iso_candidates

    exact = True
    live = []
    for i in f.index.objects:
        for j in g.index.objects:
            cands, complete = iso_candidates(f.value(i), g.value(j))
            exact = exact and complete
            live.extend((i, eta, j) for eta in cands)

    def survives(i, eta, j, by_i, by_j):
        for i2 in scan_targets(f.index, i):
            if not any(
                is_subchain(j, j2) and square_commutes(f, g, i, eta, j, i2, eta2, j2)
                for _, eta2, j2 in by_i.get(i2, ())
            ):
                return False
        for j2 in scan_targets(g.index, j):
            if not any(
                is_subchain(i, i2) and square_commutes(f, g, i, eta, j, i2, eta2, j2)
                for i2, eta2, _ in by_j.get(j2, ())
            ):
                return False
        return True

    while True:
        by_i, by_j = {}, {}
        for t in live:
            by_i.setdefault(t[0], []).append(t)
            by_j.setdefault(t[2], []).append(t)
        kept = [t for t in live if survives(*t, by_i, by_j)]
        if len(kept) == len(live):
            break
        live = kept
    covered = set(by_i) == set(f.index.objects) and set(by_j) == set(g.index.objects)
    verdict = "yes" if covered else ("no" if exact else "unknown")
    return verdict, tuple(live)


# -- homology oracles: kernel coordinates by integer solves -----------------


def kills_torsion(rows, src, tgt):
    """Oracle for the homomorphism check of ``GroupHom.make``: the relation
    d * e_i of every torsion generator of src goes to zero in tgt."""
    t_orders = tgt.gen_orders()
    for i, d in enumerate(src.gen_orders()):
        image = [d * row[i] for row in rows]
        if d and any(x % t if t else x for x, t in zip(image, t_orders)):
            return False
    return True


def hom_rows(rng, src, tgt, lo, hi):
    """The rows of a random homomorphism src -> tgt: entry (r, i) is drawn
    from [lo, hi], then set to 0 if generator i has order d and r is free,
    or scaled by e / gcd(d, e) if r has order e, so that d kills it."""
    from math import gcd

    s_orders, t_orders = src.gen_orders(), tgt.gen_orders()
    rows = []
    for e in t_orders:
        row = []
        for d in s_orders:
            x = rng.randint(lo, hi)
            row.append(x if not d else x * (e // gcd(d, e)) if e else 0)
        rows.append(row)
    return rows


def snf_solve(st, b):
    """One integer x with M x = b for the matrix M that ``st`` reduced,
    or None: x = V q with q_i = (U b)_i / d_i."""
    y = mat_vec(st.u, b)
    q = [0] * st.cols
    for i in range(st.rows):
        d = st.a[i][i] if i < st.cols else 0
        if d:
            if y[i] % d:
                return None
            q[i] = y[i] // d
        elif y[i]:
            return None
    return mat_vec(st.v, q)


class HomologyBasisBySolve:
    """Oracle for ``HomologyBasis``: cycles from an SNF of d_k, kernel
    coordinates by an integer solve against a second SNF of the kernel
    basis (one solve per column of d_{k+1}), the quotient from a third."""

    def __init__(self, cx, k):
        n_k = cx.rank(k)
        bnd_up = cx.boundary(k + 1)
        if n_k == 0:
            self.kernel = []
            self.group = FgAbGroup(0)
            self._kept = []
            return
        if cx.rank(k - 1) == 0 or k == 0:
            kernel = mat_identity(n_k)
        else:
            st = _snf(cx.boundary(k))
            rank = sum(1 for i in range(min(st.rows, st.cols)) if st.a[i][i])
            kernel = [row[rank:] for row in st.v]
        z = len(kernel[0]) if kernel else 0
        self.kernel = kernel
        self._kernel_snf = _snf(kernel) if z else None
        if cx.rank(k + 1) and z:
            img_cols = [
                self.kernel_coords([bnd_up[row][col] for row in range(n_k)])
                for col in range(cx.rank(k + 1))
            ]
            b = [[img_cols[c][r] for c in range(len(img_cols))] for r in range(z)]
        else:
            b = mat_zero(z, 0)
        if z and b and b[0]:
            stb = _snf(b)
            diag = [stb.a[i][i] for i in range(min(len(b), len(b[0])))]
            self._u_b, self._u_b_inv = stb.u, stb.u_inv
        else:
            diag = []
            self._u_b = self._u_b_inv = mat_identity(z)
        orders = [d for d in diag if d] + [0] * (z - sum(1 for d in diag if d))
        self._orders = orders
        self._kept = [i for i, d in enumerate(orders) if d != 1]
        torsion = tuple(orders[i] for i in self._kept if orders[i] >= 2)
        self.group = FgAbGroup(sum(1 for i in self._kept if orders[i] == 0), torsion)

    def kernel_coords(self, vec):
        x = snf_solve(self._kernel_snf, vec)
        if x is None:
            raise ValueError("vector not in the kernel lattice")
        return x

    def generator_cycle(self, idx):
        col = self._kept[idx]
        return mat_vec(self.kernel, [row[col] for row in self._u_b_inv])

    def class_of_cycle(self, vec):
        w = mat_vec(self._u_b, self.kernel_coords(vec))
        return [w[i] % self._orders[i] if self._orders[i] else w[i] for i in self._kept]


def inverse_by_solve(h: GroupHom) -> GroupHom:
    """Oracle for ``GroupHom.inverse``: solve M x = e_j for each target
    generator j, with M the matrix beside the target's torsion relations."""
    if not h.is_iso():
        raise ValueError("not an isomorphism")
    n, m = h.tgt.n_gens, h.src.n_gens
    orders = h.tgt.gen_orders()
    rel = [j for j, d in enumerate(orders) if d]
    st = _snf([list(row) + [orders[j] if i == j else 0 for j in rel]
               for i, row in enumerate(h.matrix)])
    cols = []
    for j in range(n):
        sol = snf_solve(st, [1 if i == j else 0 for i in range(n)])
        if sol is None:
            raise ValueError("no preimage; inverse does not exist")
        cols.append(sol[:m])
    rows = [[cols[j][i] for j in range(n)] for i in range(m)]
    return GroupHom.make(h.tgt, h.src, rows)
