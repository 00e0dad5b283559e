"""Path complexes, trace-space models and discrete traces.

The space of directed routes between two states of a loop-free complex is
modelled by a finite precubical set: a k-cube is a path word with exactly
k 2-cell letters (every 2-cell letter contributes an independent square
coordinate), and the two faces of a letter replace it by the lower or
upper boundary route.  ``trace_space`` packages the reduction of a
cell-to-cell trace space to such a vertex-to-vertex path complex, with an
extra isolated point for the self-trace of a single cell.  ``SpaceMap`` is
the one description of maps between these models and holds their rules:
``by_words`` and ``collapse`` build maps, ``extend_map`` glues an
edge-path onto every route, ``check_faces`` and ``check_chain_map``
validate a map, and ``push`` carries chains along it.

Directed paths themselves are pairs (cell word, PL clock); the module
computes their unique discrete trace with breakpoints and the unit-speed
naturalization.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    CapExceeded,
    EndpointMismatch,
    IllFormedWord,
    NoTrace,
    NotCubical,
    NotExecutionPath,
    NotFunctorial,
    ParseError,
    UnknownCell,
)
from .gcomplex import GlobularComplex, require_loop_free, require_state, require_valid
from .reparam import PLMap

DEFAULT_CAP = 100_000

EXTRA = "extra"  # marker for the isolated self-trace point


class PathComplex:
    """Finite precubical model of the directed routes from alpha to beta.

    ``cubes[k]`` lists the words with k 2-cell letters, sorted; a word is
    a flat tuple of edge and 2-cell names.  The empty word is the
    constant route and is present exactly when alpha == beta.
    """

    def __init__(self, complex_: GlobularComplex, alpha: str, beta: str, words):
        self.complex = complex_
        self.alpha = alpha
        self.beta = beta
        by_k: dict[int, list] = {}
        for w in words:
            k = sum(1 for c in w if c in complex_.cells2)
            by_k.setdefault(k, []).append(w)
        dim = max(by_k) if by_k else 0
        self.cubes: tuple[tuple[tuple[str, ...], ...], ...] = tuple(
            tuple(sorted(by_k.get(k, ()))) for k in range(dim + 1)
        )
        self.index: dict[tuple[str, ...], tuple[int, int]] = {
            w: (k, i)
            for k, level in enumerate(self.cubes)
            for i, w in enumerate(level)
        }
        self._faces: list[Optional[tuple]] = [None] * (dim + 1)
        # chain complex under "chain", components under "pi0", homology
        # bases under their degree, values under ("value", label, extra)
        self.homology_cache: dict = {}

    # -- structure ---------------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.cubes) - 1

    def n_cubes(self, k: int) -> int:
        return len(self.cubes[k]) if k < len(self.cubes) else 0

    @property
    def vertices(self) -> tuple[tuple[str, ...], ...]:
        return self.cubes[0] if self.cubes else ()

    def word(self, k: int, i: int) -> tuple[str, ...]:
        return self.cubes[k][i]

    def face_word(self, w: tuple[str, ...], j: int, eps: int) -> tuple[str, ...]:
        """Replace the j-th 2-cell letter (1-based) by its eps boundary."""
        cells2 = self.complex.cells2
        seen = 0
        for pos, name in enumerate(w):
            if name in cells2:
                seen += 1
                if seen == j:
                    side = cells2[name].lower if eps == 0 else cells2[name].upper
                    return w[:pos] + side + w[pos + 1 :]
        raise IndexError(f"word has fewer than {j} square letters")

    def faces(self, k: int):
        """Face index table at degree k: [cube][j-1] -> (idx0, idx1)."""
        if k <= 0 or k > self.dimension:
            raise IndexError(k)
        if self._faces[k] is None:
            table = []
            for w in self.cubes[k]:
                row = []
                for j in range(1, k + 1):
                    i0 = self.index[self.face_word(w, j, 0)][1]
                    i1 = self.index[self.face_word(w, j, 1)][1]
                    row.append((i0, i1))
                table.append(tuple(row))
            self._faces[k] = tuple(table)
        return self._faces[k]

    def export_text(self) -> str:
        lines = []
        for k, level in enumerate(self.cubes):
            for i, w in enumerate(level):
                head = f"cube{k} {'.'.join(w) if w else '<const>'}"
                if k == 0:
                    lines.append(head)
                else:
                    fs = " ".join(
                        f"d{j+1}:({'.'.join(self.face_word(w, j + 1, 0)) or '<const>'}"
                        f",{'.'.join(self.face_word(w, j + 1, 1)) or '<const>'})"
                        for j in range(k)
                    )
                    lines.append(f"{head} faces: {fs}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        sizes = ", ".join(str(len(c)) for c in self.cubes)
        return f"PathComplex({self.alpha}->{self.beta}: [{sizes}])"


def _route_words(x: GlobularComplex, alpha: str, beta: str, cap: int, with_cells: bool):
    """All composable words alpha -> beta; DFS over the route digraph."""
    out_arcs: dict[str, list[str]] = {s: [] for s in x.states}
    for e in x.edges.values():
        out_arcs[e.src].append(e.name)
    if with_cells:
        for c in x.cells2:
            out_arcs[x.src(c)].append(c)
    results = []
    stack = [(alpha, ())]
    while stack:
        state, word = stack.pop()
        if state == beta:
            results.append(word)
            if len(results) > cap:
                raise CapExceeded(
                    f"more than {cap} routes from {alpha} to {beta}"
                )
        for name in out_arcs[state]:
            stack.append((x.tgt(name), word + (name,)))
    return results


def _prepare(x: GlobularComplex):
    """Check x once: complexes never change after construction."""
    if not x.checked:
        require_valid(x)
        x.require_computable()
        require_loop_free(x)
        x.checked = True


def enumerate_vertex_paths(x: GlobularComplex, alpha: str, beta: str, cap=DEFAULT_CAP):
    """All directed edge-paths alpha -> beta, lexicographically sorted."""
    _prepare(x)
    require_state(x, alpha)
    require_state(x, beta)
    return sorted(_route_words(x, alpha, beta, cap, with_cells=False))


def path_complex(
    x: GlobularComplex, alpha: str, beta: str, cap=DEFAULT_CAP
) -> PathComplex:
    """The full route complex between two states, validated and cached."""
    key = (alpha, beta, cap)
    if key not in x.route_cache:
        _prepare(x)
        require_state(x, alpha)
        require_state(x, beta)
        words = _route_words(x, alpha, beta, cap, with_cells=True)
        x.route_cache[key] = PathComplex(x, alpha, beta, words)
    return x.route_cache[key]


# -- trace-space models -------------------------------------------------------


@dataclass(frozen=True)
class TraceSpaceValue:
    """Model of a cell-to-cell trace space.

    ``base`` carries the routes between the reduced endpoint states;
    ``extra_point`` adds the isolated constant trace that only occurs for
    the self-trace of one cell (where the base is empty in a loop-free
    complex).
    """

    base: PathComplex
    extra_point: bool

    def n_points(self) -> int:
        """Number of degree-0 elements (base vertices plus extra point)."""
        return len(self.base.vertices) + (1 if self.extra_point else 0)


def reduced_source(x: GlobularComplex, c: str) -> str:
    """The state where traces leaving the cell c are anchored."""
    return c if x.dim(c) == 0 else x.tgt(c)


def reduced_target(x: GlobularComplex, d: str) -> str:
    """The state where traces entering the cell d are anchored."""
    return d if x.dim(d) == 0 else x.src(d)


def has_chain(x: GlobularComplex, c: str, d: str) -> bool:
    """Is there a chain c < ... < d in the one-step face order?"""
    if not x.has_cell(c) or not x.has_cell(d):
        raise UnknownCell(f"{c} or {d}")
    frontier = [c]
    seen = {c}
    succ = x.successors()
    while frontier:
        new = []
        for u in frontier:
            for v in succ.get(u, ()):
                if v == d:
                    return True
                if v not in seen:
                    seen.add(v)
                    new.append(v)
        frontier = new
    return False


def trace_space(x: GlobularComplex, c: str, d: str, cap=DEFAULT_CAP) -> TraceSpaceValue:
    """Combinatorial model of the space of traces from cell c to cell d."""
    _prepare(x)
    if not x.has_cell(c):
        raise UnknownCell(c)
    if not x.has_cell(d):
        raise UnknownCell(d)
    if c == d:
        return TraceSpaceValue(PathComplex(x, c, c, []), extra_point=True)
    if not has_chain(x, c, d):
        raise NoTrace(f"no chain of cells from {c} to {d}")
    return TraceSpaceValue(
        path_complex(x, reduced_source(x, c), reduced_target(x, d), cap),
        extra_point=False,
    )


@dataclass(frozen=True)
class SpaceMap:
    """Element map between two trace-space models, cube by cube.

    ``vertex_images[i]`` is the degree-0 element index hit by base vertex
    i; ``cube_images[k-1][i]`` is the target k-cube hit by source k-cube
    i, or None when the image degenerates; ``extra_image`` locates the
    image of the source's extra point.  Degree-0 elements are indexed
    base vertices first, extra point last.
    """

    src: TraceSpaceValue
    tgt: TraceSpaceValue
    vertex_images: tuple[int, ...]
    cube_images: tuple[tuple[Optional[int], ...], ...]
    extra_image: Optional[int]

    @classmethod
    def by_words(
        cls, src: TraceSpaceValue, tgt: TraceSpaceValue, word_fn, extra_word=None
    ) -> "SpaceMap":
        """The map rewriting every route word by ``word_fn``.

        A k-cube whose image keeps fewer than k square letters
        degenerates (records None); an image with more letters, or one
        that is no cube of the target, raises NotCubical.
        ``extra_word`` is the target vertex word hit by the source's
        extra point.
        """
        index = tgt.base.index
        cells2 = tgt.base.complex.cells2
        levels = []
        for k, level in enumerate(src.base.cubes):
            images = []
            for w in level:
                image = word_fn(w)
                kk, idx = index.get(image, (None, None))
                if kk is None:
                    kk = sum(1 for c in image if c in cells2)
                    if kk >= k:
                        raise NotCubical(f"image word {image} missing from target")
                if kk == k:
                    images.append(idx)
                elif kk < k:
                    images.append(None)
                else:
                    raise NotCubical(f"image of a {k}-cube has degree {kk}")
            levels.append(tuple(images))
        extra_image = None
        if src.extra_point:
            if extra_word is None:
                raise ValueError("source extra point needs an image word")
            if index.get(extra_word, (None,))[0] != 0:
                raise NotCubical(f"extra image {extra_word} is not a target vertex")
            extra_image = index[extra_word][1]
        return cls(src, tgt, levels[0], tuple(levels[1:]), extra_image)

    @classmethod
    def collapse(cls, src: TraceSpaceValue, tgt: TraceSpaceValue) -> "SpaceMap":
        """Map everything to the single element of a one-point target."""
        if tgt.n_points() != 1 or tgt.base.dimension != 0:
            raise ValueError("target is not a one-point model")
        return cls(
            src,
            tgt,
            (0,) * len(src.base.vertices),
            tuple((None,) * len(level) for level in src.base.cubes[1:]),
            0 if src.extra_point else None,
        )

    def check_faces(self):
        """Raise NotCubical unless every cube has a cube image and the
        images commute with all faces."""
        src, tgt = self.src.base, self.tgt.base
        levels = (self.vertex_images,) + self.cube_images
        for k in range(1, src.dimension + 1):
            if k > tgt.dimension and src.n_cubes(k):
                raise NotCubical("target has no cubes at this degree")
            tfaces = tgt.faces(k) if k <= tgt.dimension else ()
            for i, row in enumerate(src.faces(k)):
                if levels[k][i] is None:
                    raise NotCubical(f"cube {i} of degree {k} degenerates")
                want = tuple((levels[k - 1][i0], levels[k - 1][i1]) for i0, i1 in row)
                if tfaces[levels[k][i]] != want:
                    raise NotCubical(
                        f"face maps do not commute at degree {k}, cube {i}"
                    )

    def check_chain_map(self):
        """Raise NotFunctorial unless the map, degenerate cubes sent to
        zero, commutes with the boundary cube by cube: otherwise the word
        map has no cubical approximation we support."""
        src, tgt = self.src.base, self.tgt.base
        nv_tgt = len(tgt.vertices)
        for element in self.vertex_images:
            if element >= nv_tgt:
                raise NotFunctorial("base vertex sent to the extra point")
        levels = (self.vertex_images,) + self.cube_images
        for k in range(1, src.dimension + 1):
            identity = range(tgt.n_cubes(k - 1))
            for row, img in zip(src.faces(k), levels[k]):
                want = {} if img is None else _boundary(tgt.faces(k)[img], identity)
                if _boundary(row, levels[k - 1]) != want:
                    raise NotFunctorial(
                        f"no chain-level extension at degree {k}: collapse is uneven"
                    )

    def push(self, k: int, chain: list[int]) -> list[int]:
        """Image of a k-chain (k >= 1) of the source base; degenerate
        cubes go to zero."""
        out = [0] * self.tgt.base.n_cubes(k)
        for c, img in zip(chain, self.cube_images[k - 1]):
            if c and img is not None:
                out[img] += c
        return out


def _boundary(row, images) -> dict[int, int]:
    """Nonzero coefficients of sum_j (-1)^j (d_j^0 - d_j^1) of one cube
    with face indices ``row``, each face index sent through ``images``
    (None drops the face)."""
    acc: dict[int, int] = {}
    for j, (i0, i1) in enumerate(row, start=1):
        sign = -1 if j % 2 else 1
        for idx, s in ((i0, sign), (i1, -sign)):
            img = images[idx]
            if img is not None:
                acc[img] = acc.get(img, 0) + s
    return {key: v for key, v in acc.items() if v}


def extend_map(
    v: TraceSpaceValue, side: str, path: tuple[str, ...], cap=DEFAULT_CAP
) -> SpaceMap:
    """The map of route complexes that glues an edge-path on one side.

    ``side`` is "left" (new routes are path then w, so the path must end
    at the base's alpha) or "right" (w then path, starting at its beta).
    The empty path gives the identity of v.
    """
    p = v.base
    x = p.complex
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if v.extra_point:
        raise ValueError("source extra point needs an explicit image")
    path = tuple(path)
    if not path:
        return SpaceMap(
            v,
            v,
            tuple(range(len(p.vertices))),
            tuple(tuple(range(len(level))) for level in p.cubes[1:]),
            None,
        )
    start, end = x.path_endpoints(path)
    if side == "left":
        if end != p.alpha:
            raise EndpointMismatch(f"path ends at {end}, complex starts at {p.alpha}")
        target = path_complex(x, start, p.beta, cap)
        word_fn = lambda w: path + w
    else:
        if start != p.beta:
            raise EndpointMismatch(f"path starts at {start}, complex ends at {p.beta}")
        target = path_complex(x, p.alpha, end, cap)
        word_fn = lambda w: w + path
    sm = SpaceMap.by_words(v, TraceSpaceValue(target, False), word_fn)
    sm.check_faces()
    return sm


def rep_path(x: GlobularComplex, cell: str) -> tuple[str, ...]:
    """Canonical edge-path traversing a cell of dimension 1 or 2."""
    d = x.dim(cell)
    if d == 1:
        return (cell,)
    if d == 2:
        return x.cells2[cell].lower
    raise UnknownCell(f"{cell} has no traversal path")


# -- directed PL paths --------------------------------------------------------


@dataclass(frozen=True)
class DirectedPathPL:
    """A cell word with interior square coordinates, plus a PL clock.

    The clock runs [0, 1] -> [0, n] non-decreasingly over the n word
    letters; it is an execution clock when it is onto [0, n].
    """

    word: tuple[tuple[str, Optional[Fraction]], ...]
    clock: PLMap

    @property
    def n(self) -> int:
        return len(self.word)


def check_path(x: GlobularComplex, gamma: DirectedPathPL):
    if not gamma.word:
        raise IllFormedWord("empty word")
    for name, z in gamma.word:
        d = x.dim(name)
        if d == 1:
            if z is not None:
                raise IllFormedWord(f"edge {name} takes no square coordinate")
        elif d == 2:
            if z is None or not (0 < z < 1):
                raise IllFormedWord(f"2-cell {name} needs a coordinate in (0, 1)")
        else:
            raise IllFormedWord(f"word letters must be cells of dimension 1 or 2: {name}")
    for (a, _), (b, _) in zip(gamma.word, gamma.word[1:]):
        if x.tgt(a) != x.src(b):
            raise IllFormedWord(f"letters {a}, {b} not composable")
    clock = gamma.clock
    if (clock.t_min, clock.t_max) != (Fraction(0), Fraction(1)):
        raise IllFormedWord("clock domain must be [0, 1]")
    if not clock.is_non_decreasing():
        raise IllFormedWord("clock must be non-decreasing")
    if clock.v_first < 0 or clock.v_last > gamma.n:
        raise IllFormedWord(f"clock range leaves [0, {gamma.n}]")


def state_at(x: GlobularComplex, gamma: DirectedPathPL, k: int) -> str:
    """The state sitting at integer clock value k."""
    if k == 0:
        return x.src(gamma.word[0][0])
    return x.tgt(gamma.word[k - 1][0])


def point_cell(x: GlobularComplex, gamma: DirectedPathPL, t) -> str:
    """The unique cell containing the point gamma(t)."""
    v = gamma.clock(t)
    if v.denominator == 1:
        return state_at(x, gamma, int(v))
    return gamma.word[math.floor(v)][0]


def _preimage_bounds(clock: PLMap, value: Fraction):
    """First and last t with clock(t) == value (clock non-decreasing)."""
    bps = clock.breakpoints
    if len(bps) == 1:
        if bps[0][1] != value:
            raise ValueError(f"{value} not attained by clock")
        return bps[0][0], bps[0][0]
    first = last = None
    for (t0, w0), (t1, w1) in zip(bps, bps[1:]):
        if w0 <= value <= w1:
            if w0 == w1:
                seg_first, seg_last = t0, t1
            else:
                t_at = t0 + (value - w0) * (t1 - t0) / (w1 - w0)
                seg_first = seg_last = t_at
            if first is None:
                first = seg_first
            last = seg_last
    if first is None:
        raise ValueError(f"{value} not attained by clock")
    return first, last


def discrete_trace(x: GlobularComplex, gamma: DirectedPathPL):
    """The unique cell chain visited by gamma, with its breakpoints.

    Returns (chain, breakpoints) with len(breakpoints) == len(chain) + 1,
    0 = t_0 <= ... <= t_m = 1; the i-th chain entry occupies
    [t_{i-1}, t_i].
    """
    _prepare(x)
    check_path(x, gamma)
    clock = gamma.clock
    v0, v1 = clock.v_first, clock.v_last
    chain: list[str] = []
    cuts: list[Fraction] = [Fraction(0)]

    def push(cell, t_end):
        chain.append(cell)
        cuts.append(t_end)

    lo_int = math.ceil(v0)
    hi_int = math.floor(v1)
    if lo_int > hi_int:
        # the clock stays strictly inside one letter
        push(gamma.word[math.floor(v0)][0], Fraction(1))
        return tuple(chain), tuple(cuts)
    if v0 < lo_int:
        first, _ = _preimage_bounds(clock, Fraction(lo_int))
        push(gamma.word[math.floor(v0)][0], first)
    for k in range(lo_int, hi_int + 1):
        _, last = _preimage_bounds(clock, Fraction(k))
        push(state_at(x, gamma, k), last)
        if k < hi_int:
            nxt, _ = _preimage_bounds(clock, Fraction(k + 1))
            push(gamma.word[k][0], nxt)
    if v1 > hi_int:
        push(gamma.word[hi_int][0], Fraction(1))
    else:
        cuts[-1] = Fraction(1)
    return tuple(chain), tuple(cuts)


def naturalize(x: GlobularComplex, gamma: DirectedPathPL):
    """Split an execution path into its unit-speed form and its clock."""
    _prepare(x)
    check_path(x, gamma)
    n = gamma.n
    if gamma.clock.v_first != 0 or gamma.clock.v_last != n:
        raise NotExecutionPath(
            f"clock covers [{gamma.clock.v_first}, {gamma.clock.v_last}], not [0, {n}]"
        )
    unit = PLMap([(0, 0), (1, n)])
    return DirectedPathPL(gamma.word, unit), gamma.clock


def concat_paths(
    x: GlobularComplex, g1: DirectedPathPL, g2: DirectedPathPL
) -> DirectedPathPL:
    """Concatenate two composable directed paths, halving each clock."""
    check_path(x, g1)
    check_path(x, g2)
    if x.tgt(g1.word[-1][0]) != x.src(g2.word[0][0]):
        raise EndpointMismatch("paths not composable")
    half = Fraction(1, 2)
    left = [(t * half, v) for t, v in g1.clock.breakpoints]
    shift = Fraction(g1.n)
    right = [(half + t * half, v + shift) for t, v in g2.clock.breakpoints]
    if left[-1][0] == right[0][0]:
        if left[-1][1] != right[0][1]:
            raise EndpointMismatch(
                "clock values do not meet: first path must end where second starts"
            )
        right = right[1:]
    return DirectedPathPL(g1.word + g2.word, PLMap(left + right))


# -- path text format ----------------------------------------------------------


def parse_path_spec(text: str, x: GlobularComplex) -> DirectedPathPL:
    """Parse 'path : cell[@num/den] ... clock: t/td,v/vd ...'."""
    m = re.match(r"\s*path\s*:\s*(.*?)\s*clock\s*:\s*(.*)$", text, re.S)
    if not m:
        raise ParseError("expected 'path : <letters> clock: <breakpoints>'")
    letters = []
    for tok in m.group(1).split():
        if "@" in tok:
            name, z = tok.split("@", 1)
            try:
                letters.append((name, Fraction(z)))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad coordinate {z!r}") from None
        else:
            letters.append((tok, None))
    points = []
    for tok in m.group(2).split():
        try:
            t_str, v_str = tok.split(",")
            points.append((Fraction(t_str), Fraction(v_str)))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad clock breakpoint {tok!r}") from None
    if not letters or not points:
        raise ParseError("path needs letters and clock breakpoints")
    try:
        clock = PLMap(points)
    except ValueError as err:
        raise ParseError(f"bad clock: {err}") from None
    return DirectedPathPL(tuple(letters), clock)


def format_path_spec(gamma: DirectedPathPL) -> str:
    letters = " ".join(
        name if z is None else f"{name}@{z}" for name, z in gamma.word
    )
    clock = " ".join(
        f"{t.numerator}/{t.denominator},{v.numerator}/{v.denominator}"
        for t, v in gamma.clock.breakpoints
    )
    return f"path : {letters} clock: {clock}"
