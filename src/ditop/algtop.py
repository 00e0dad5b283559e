"""Integer homology of path complexes via Smith normal form.

Chains are free Z-modules on the cubes of a ``PathComplex``, with the
alternating-sign boundary sum_j (-1)^j (d_j^0 - d_j^1).  Everything is
arbitrary-precision integer arithmetic: Smith normal form with tracked
unimodular transforms and their inverses, homology groups as rank plus
invariant-factor torsion, adapted generator bases so that cycle classes
come out as concrete integer vectors.  H_k takes two SNFs: one of d_k
gives the cycles and, through its inverse column transform, the
coordinates of any chain in them; one of the boundaries in those
coordinates gives the quotient (Kaczynski, Mischaikow & Mrozek,
*Computational Homology*, 2004).  Maps between trace-space models are
valued in ``values``, which pushes cycles along ``SpaceMap.push`` (see
``pathspace``) and classifies them here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotCubical
from .pathspace import PathComplex

Matrix = list  # list of row lists of ints


# -- elementary integer matrix helpers ---------------------------------------


def mat_identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_zero(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def mat_vec(a: Matrix, v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_copy(a) -> Matrix:
    return [list(r) for r in a]


class _SnfState:
    """Mutable SNF workspace tracking U, V and their inverses."""

    def __init__(self, m: Matrix):
        self.a = mat_copy(m)
        self.rows = len(m)
        self.cols = len(m[0]) if m else 0
        self.u = mat_identity(self.rows)
        self.u_inv = mat_identity(self.rows)
        self.v = mat_identity(self.cols)
        self.v_inv = mat_identity(self.cols)

    # row ops act on the left: A <- E A, U <- E U, U_inv <- U_inv E^{-1}
    def row_add(self, i, j, q):
        if not q:
            return
        a, u, u_inv = self.a, self.u, self.u_inv
        for col in range(self.cols):
            a[i][col] += q * a[j][col]
        for col in range(self.rows):
            u[i][col] += q * u[j][col]
        for row in range(self.rows):
            u_inv[row][j] -= q * u_inv[row][i]

    def row_swap(self, i, j):
        if i == j:
            return
        self.a[i], self.a[j] = self.a[j], self.a[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]
        for row in self.u_inv:
            row[i], row[j] = row[j], row[i]

    def row_negate(self, i):
        self.a[i] = [-x for x in self.a[i]]
        self.u[i] = [-x for x in self.u[i]]
        for row in self.u_inv:
            row[i] = -row[i]

    # column ops act on the right: A <- A E, V <- V E, V_inv <- E^{-1} V_inv
    def col_add(self, i, j, q):
        if not q:
            return
        for row in self.a:
            row[i] += q * row[j]
        for row in self.v:
            row[i] += q * row[j]
        v_inv = self.v_inv
        v_inv[j] = [x - q * y for x, y in zip(v_inv[j], v_inv[i])]

    def col_swap(self, i, j):
        if i == j:
            return
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]
        self.v_inv[i], self.v_inv[j] = self.v_inv[j], self.v_inv[i]


def _snf(m: Matrix) -> _SnfState:
    st = _SnfState(m)
    a = st.a
    rows, cols = st.rows, st.cols

    def move_least_pivot(t) -> bool:
        best = None
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best, pivot = x, (i, j)
        if pivot is None:
            return False
        st.row_swap(t, pivot[0])
        st.col_swap(t, pivot[1])
        return True

    t = 0
    while t < min(rows, cols):
        if not move_least_pivot(t):
            break
        while True:
            # one reduction sweep against the current pivot
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    st.row_add(i, t, -(a[i][t] // a[t][t]))
                    dirty = dirty or bool(a[i][t])
            for j in range(t + 1, cols):
                if a[t][j]:
                    st.col_add(j, t, -(a[t][j] // a[t][t]))
                    dirty = dirty or bool(a[t][j])
            if dirty:
                # a remainder strictly smaller than the pivot appeared
                move_least_pivot(t)
                continue
            culprit = None
            d = a[t][t]
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % d:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            st.row_add(t, culprit, 1)
            move_least_pivot(t)
        if a[t][t] < 0:
            st.row_negate(t)
        t += 1
    return st


def smith_normal_form(m) -> tuple[Matrix, Matrix, Matrix]:
    """Return (D, U, V) with D = U * M * V diagonal, d_1 | d_2 | ...

    U and V are unimodular; all arithmetic is exact big-integer.
    """
    m = mat_copy(m)
    st = _snf(m)
    return st.a, st.u, st.v


# -- value objects -------------------------------------------------------------


@dataclass(frozen=True)
class FgAbGroup:
    """Finitely generated abelian group: free rank and torsion chain."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")

    @property
    def n_gens(self) -> int:
        return self.rank + len(self.torsion)

    def gen_orders(self) -> tuple[int, ...]:
        """Orders of the adapted generators: torsion first, 0 for free."""
        return self.torsion + (0,) * self.rank

    def is_trivial(self) -> bool:
        return self.n_gens == 0

    def __str__(self):
        parts = []
        if self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class FinPartition:
    """Quotient of 0-cubes onto contiguous component indices."""

    classes: tuple[int, ...]
    n_classes: int

    def __post_init__(self):
        if sorted(set(self.classes)) != list(range(self.n_classes)):
            raise ValueError("component indices must be contiguous from 0")


@dataclass(frozen=True)
class GroupHom:
    """Integer matrix between adapted generator bases, torsion rows reduced."""

    src: FgAbGroup
    tgt: FgAbGroup
    matrix: tuple[tuple[int, ...], ...]

    @staticmethod
    def make(src: FgAbGroup, tgt: FgAbGroup, rows) -> "GroupHom":
        """The validated map: a torsion generator i of order d must go to an
        element that d kills, so d * M[r][i] is 0 modulo the order of target
        generator r, and M[r][i] is 0 when r is free."""
        orders = tgt.gen_orders()
        reduced = tuple(
            tuple(x % orders[i] if orders[i] else x for x in row)
            for i, row in enumerate(rows)
        )
        if len(reduced) != tgt.n_gens or any(
            len(r) != src.n_gens for r in reduced
        ):
            raise ValueError("matrix shape does not match the groups")
        for i, d in enumerate(src.gen_orders()):
            if d and any(
                d * row[i] % e if e else row[i] for row, e in zip(reduced, orders)
            ):
                raise ValueError(
                    f"not a homomorphism: generator {i} of order {d} goes to "
                    "an element that it does not kill"
                )
        return GroupHom(src, tgt, reduced)

    @staticmethod
    def identity(g: FgAbGroup) -> "GroupHom":
        return GroupHom.make(g, g, mat_identity(g.n_gens))

    def compose(self, first: "GroupHom") -> "GroupHom":
        """self after first; the product of two valid matrices is not re-checked."""
        if first.tgt is not self.src and first.tgt != self.src:
            raise ValueError("homs not composable")
        orders = self.tgt.gen_orders()
        if first.matrix:
            product = mat_mul(self.matrix, first.matrix)
        else:  # through the trivial group, which mat_mul cannot see the width of
            product = [[0] * first.src.n_gens for _ in orders]
        rows = tuple(
            tuple(v % d for v in row) if d else tuple(row)
            for row, d in zip(product, orders)
        )
        return GroupHom(first.src, self.tgt, rows)

    def _onto_snf(self):
        """The SNF of M = [matrix | target torsion relations] if the map is
        onto, that is if all n invariant factors of M are 1; else None."""
        orders = self.tgt.gen_orders()
        rel = [j for j, d in enumerate(orders) if d]
        st = _snf([
            list(row) + [orders[j] if i == j else 0 for j in rel]
            for i, row in enumerate(self.matrix)
        ])
        onto = all(i < st.cols and st.a[i][i] == 1 for i in range(st.rows))
        return st if onto else None

    def is_surjective(self) -> bool:
        return self._onto_snf() is not None

    def is_iso(self) -> bool:
        """Exact: equal invariants plus surjectivity."""
        return self.src == self.tgt and self.is_surjective()

    def inverse(self) -> "GroupHom":
        """From D = U M V = [I | 0]: M V[:, :n] U = I, so the first m rows
        of V[:, :n] U map each target generator to a preimage."""
        st = self._onto_snf() if self.src == self.tgt else None
        if st is None:
            raise ValueError("not an isomorphism")
        n, m = self.tgt.n_gens, self.src.n_gens
        rows = mat_mul([row[:n] for row in st.v[:m]], st.u)
        inv = GroupHom.make(self.tgt, self.src, rows)
        if (
            inv.compose(self) != GroupHom.identity(self.src)
            or self.compose(inv) != GroupHom.identity(self.tgt)
        ):
            raise ValueError("computed inverse does not invert")
        return inv


# -- chain complexes -----------------------------------------------------------


@dataclass(frozen=True)
class ChainComplex:
    """Free chain complex on the cubes of a path complex."""

    ranks: tuple[int, ...]
    boundaries: tuple[tuple[tuple[int, ...], ...], ...]  # boundaries[k] : C_k -> C_{k-1}

    def boundary(self, k: int) -> Matrix:
        if 1 <= k < len(self.ranks):
            return [list(r) for r in self.boundaries[k]]
        hi = self.ranks[k] if 0 <= k < len(self.ranks) else 0
        lo = self.ranks[k - 1] if 1 <= k <= len(self.ranks) else 0
        return mat_zero(lo, hi)

    def rank(self, k: int) -> int:
        return self.ranks[k] if 0 <= k < len(self.ranks) else 0


def chain_complex(p: PathComplex) -> ChainComplex:
    """Boundary sum_j (-1)^j (d_j^0 - d_j^1); d d = 0 is verified."""
    ranks = tuple(len(level) for level in p.cubes)
    boundaries: list[tuple] = [()]
    for k in range(1, len(ranks)):
        mat = mat_zero(ranks[k - 1], ranks[k])
        for i, face_row in enumerate(p.faces(k)):
            for j, (i0, i1) in enumerate(face_row, start=1):
                sign = -1 if j % 2 else 1
                mat[i0][i] += sign
                mat[i1][i] -= sign
        boundaries.append(tuple(tuple(r) for r in mat))
    cx = ChainComplex(ranks, tuple(boundaries))
    for k in range(2, len(ranks)):
        prod = mat_mul(cx.boundary(k - 1), cx.boundary(k))
        if any(any(row) for row in prod):
            raise NotCubical(f"boundary of boundary nonzero at degree {k}")
    return cx


class HomologyBasis:
    """H_k with an adapted generator basis and cycle classification.

    With D = U d_k V in Smith normal form and r = rank d_k, the columns
    V[:, r:] are a basis of the k-cycles, and V^-1 c gives the coordinates
    of a chain c in it: c is a cycle iff its first r coordinates vanish.
    The boundaries of the (k+1)-cubes in those coordinates, the matrix
    B = V^-1[r:] d_{k+1}, are reduced by a second SNF; its invariant
    factors are the torsion, and its zero rows the free part.  d d = 0 is
    checked by ``chain_complex``, so B is read off without a check that
    each boundary is a cycle.
    """

    def __init__(self, cx: ChainComplex, k: int):
        self.k = k
        n_k = cx.rank(k)
        if n_k and k and cx.rank(k - 1):
            st = _snf(cx.boundary(k))
            r = sum(1 for i in range(min(st.rows, st.cols)) if st.a[i][i])
            v, v_inv = st.v, st.v_inv
        else:
            r, v = 0, mat_identity(n_k)
            v_inv = v
        z = n_k - r
        self.kernel = [row[r:] for row in v]  # n_k x z
        self._bnd_rank = r
        self._v_inv = v_inv
        # B = V^-1[r:] d_{k+1}, over the nonzero entries of each boundary
        bnd_cols = [
            [(i, x) for i, x in enumerate(col) if x]
            for col in zip(*cx.boundary(k + 1))
        ]
        b = [[sum(row[i] * x for i, x in col) for col in bnd_cols] for row in v_inv[r:]]
        if z and b[0]:
            stb = _snf(b)
            diag = [stb.a[i][i] for i in range(min(len(b), len(b[0])))]
            self._u_b = stb.u
            self._u_b_inv = stb.u_inv
        else:
            diag = []
            self._u_b = mat_identity(z)
            self._u_b_inv = mat_identity(z)
        orders = [d for d in diag if d] + [0] * (z - sum(1 for d in diag if d))
        self._orders = orders
        self._kept = [i for i, d in enumerate(orders) if d != 1]
        torsion = tuple(orders[i] for i in self._kept if orders[i] >= 2)
        rank_free = sum(1 for i in self._kept if orders[i] == 0)
        self.group = FgAbGroup(rank_free, torsion)

    def _kernel_coords(self, vec: list[int]) -> list[int]:
        nonzero = [(i, x) for i, x in enumerate(vec) if x]
        x = [sum(row[i] * c for i, c in nonzero) for row in self._v_inv]
        if any(x[: self._bnd_rank]):
            raise ValueError("vector not in the kernel lattice")
        return x[self._bnd_rank :]

    def generator_cycle(self, idx: int) -> list[int]:
        """A chain representing the idx-th kept generator."""
        col = self._kept[idx]
        return mat_vec(self.kernel, [row[col] for row in self._u_b_inv])

    def class_of_cycle(self, vec: list[int]) -> list[int]:
        """Coordinates of a cycle's class in the kept generators."""
        x = self._kernel_coords(vec)
        w = mat_vec(self._u_b, x)
        out = []
        for i in self._kept:
            d = self._orders[i]
            out.append(w[i] % d if d else w[i])
        return out


def homology_basis(p: PathComplex, k: int) -> HomologyBasis:
    cache = p.homology_cache
    if k not in cache:
        cx = cache.get("chain")
        if cx is None:
            cx = cache["chain"] = chain_complex(p)
        cache[k] = HomologyBasis(cx, k)
    return cache[k]


def homology(p: PathComplex, k: int) -> FgAbGroup:
    """H_k of the path complex with integer coefficients."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    return homology_basis(p, k).group


def pi0(p: PathComplex) -> FinPartition:
    """Connected components of the 1-skeleton, least-vertex indexing."""
    n = len(p.vertices)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if p.dimension >= 1:
        for i0, i1 in (f[0] for f in p.faces(1)):
            a, b = find(i0), find(i1)
            if a != b:
                parent[max(a, b)] = min(a, b)
    label = {}
    classes = []
    for i in range(n):
        root = find(i)
        if root not in label:
            label[root] = len(label)
        classes.append(label[root])
    return FinPartition(tuple(classes), len(label))


@dataclass(frozen=True)
class FinSetMap:
    src_size: int
    tgt_size: int
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.src_size or any(
            not 0 <= i < self.tgt_size for i in self.images
        ):
            raise ValueError("not a map of finite sets")

    def compose(self, first: "FinSetMap") -> "FinSetMap":
        if first.tgt_size != self.src_size:
            raise ValueError("maps not composable")
        images = self.images
        composite = object.__new__(FinSetMap)  # valid by construction: skip checks
        _set = object.__setattr__
        _set(composite, "src_size", first.src_size)
        _set(composite, "tgt_size", self.tgt_size)
        _set(composite, "images", tuple([images[i] for i in first.images]))
        return composite

    def is_bijective(self) -> bool:
        return self.src_size == self.tgt_size and len(set(self.images)) == self.src_size

    def inverse(self) -> "FinSetMap":
        if not self.is_bijective():
            raise ValueError("not a bijection")
        inv = [0] * self.tgt_size
        for i, j in enumerate(self.images):
            inv[j] = i
        return FinSetMap(self.tgt_size, self.src_size, tuple(inv))

    @staticmethod
    def identity(n: int) -> "FinSetMap":
        return FinSetMap(n, n, tuple(range(n)))
