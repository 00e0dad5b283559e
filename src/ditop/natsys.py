"""Natural systems of valued trace spaces over a globular complex.

The cells of a loop-free complex form a one-step face order whose chains
are the discrete traces.  Chains are the objects of a factorization
poset: there is (at most one) morphism from a chain to any chain
containing it as a contiguous block, generated by one-cell extensions on
either side.  A natural system assigns to each chain the valuation of
the trace-space model between its first and last cell, and to each
extension the induced map; the rules per extension shape are:

* extending a one-cell chain maps its isolated self-trace point to the
  constant route at the shared reduced endpoint;
* otherwise the map glues a path on with ``extend_map``: prepending the
  initial state of a positive-dimensional head cell glues the canonical
  traversal route of that cell on the left (symmetrically on the right),
  and prepending a positive-dimensional cell whose final state is the
  current head vertex glues the empty path, since the reduced endpoints
  agree, so the map is the identity.

A diagram stores only these generator maps and composes any other hom
map on demand.  Two factorizations of one extension differ by swaps of
adjacent left and right steps, so the build makes the diagram functorial
by checking one square per chain of three or more cells.

The module also builds the two comparison morphisms the tool checks:
the map induced by a cellular collapse, and the comparison of the
continuous system with the discrete one, which is taken to be the
identity of the discrete system.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, NotFunctorial
from .gcomplex import CellularMap, GlobularComplex, is_chain, require_loop_free
from .pathspace import (
    DEFAULT_CAP,
    DirectedPathPL,
    SpaceMap,
    TraceSpaceValue,
    check_path,
    discrete_trace,
    extend_map,
    path_complex,
    point_cell,
    rep_path,
    trace_space,
)
from .values import Valuation, Value, ValueMap

Chain = tuple[str, ...]


# -- the discrete trace category ----------------------------------------------


@dataclass(frozen=True)
class TraceCategoryD:
    """Objects are the cells, morphisms the chains of the face order."""

    complex: GlobularComplex
    chains: tuple[Chain, ...]

    def compose(self, first: Chain, second: Chain) -> Chain:
        """Concatenation with the shared endpoint cell written once."""
        if first[-1] != second[0]:
            raise NotFunctorial(
                f"chains {first} and {second} do not share an endpoint cell"
            )
        return first + second[1:]


def trace_category(x: GlobularComplex, cap=DEFAULT_CAP) -> TraceCategoryD:
    """Enumerate every chain of the one-step face order."""
    x.require_computable()
    require_loop_free(x)
    succ = x.successors()
    chains: list[Chain] = []
    for cell in x.all_cells():
        stack = [(cell,)]
        while stack:
            t = stack.pop()
            chains.append(t)
            if len(chains) > cap:
                raise CapExceeded(f"more than {cap} discrete traces")
            for nxt in succ.get(t[-1], ()):
                stack.append(t + (nxt,))
    chains.sort(key=lambda t: (len(t), t))
    return TraceCategoryD(x, tuple(chains))


class FactCat:
    """Factorization poset of a trace category.

    Objects are chains; hom(a, b) holds when b extends a on both sides,
    i.e. b = u * a * v with shared endpoint cells.  The generators are
    the one-cell extensions: every chain b of two or more cells extends
    b[1:] on the left and b[:-1] on the right.  The targets of a are the
    closure of its generators, and hom is a lookup in them.
    """

    def __init__(self, chains):
        self.objects: tuple[Chain, ...] = tuple(chains)
        self._index = {t: i for i, t in enumerate(self.objects)}
        gens: dict[Chain, list[Chain]] = {t: [] for t in self.objects}
        for b in self.objects:
            if len(b) > 1:
                gens[b[1:]].append(b)
                gens[b[:-1]].append(b)
        self._gens = {a: tuple(bs) for a, bs in gens.items()}
        self._targets: dict[Chain, tuple[Chain, ...]] = {}
        self._homs: dict[Chain, frozenset[Chain]] = {}

    def __contains__(self, t: Chain) -> bool:
        return t in self._index

    def hom(self, a: Chain, b: Chain) -> bool:
        if a not in self._homs:
            self._homs[a] = frozenset(self.targets_from(a))
        return b in self._homs[a]

    def targets_from(self, a: Chain) -> tuple[Chain, ...]:
        if a not in self._targets:
            seen = {a} if a in self._index else set()
            stack = list(seen)
            while stack:
                for b in self._gens[stack.pop()]:
                    if b not in seen:
                        seen.add(b)
                        stack.append(b)
            self._targets[a] = tuple(sorted(seen, key=self._index.__getitem__))
        return self._targets[a]

    def gens_from(self, a: Chain) -> tuple[Chain, ...]:
        return self._gens.get(a, ())

    def generators(self):
        for a in self.objects:
            for b in self.gens_from(a):
                yield a, b


def factorization_category(tc: TraceCategoryD) -> FactCat:
    return FactCat(tc.chains)


# -- diagrams -------------------------------------------------------------------


@dataclass
class Diagram:
    """A functor from a factorization poset into valued spaces, given by
    its generator maps; ``map`` composes any other hom map on demand."""

    index: FactCat
    spaces: dict
    values: dict
    maps: dict  # (src_obj, tgt_obj) -> ValueMap: generators, then composites asked for

    def value(self, obj) -> Value:
        return self.values[obj]

    def map(self, a, b) -> ValueMap:
        """The map of a -> b, composed one extension at a time (drop b's
        last cell unless a ends b) and cached in ``maps``."""
        m = self.maps.get((a, b))
        if m is None:
            if a == b:
                m = ValueMap.identity(self.values[a])
            elif len(a) >= len(b):
                raise NotFunctorial(f"no morphism {a} -> {b}")
            else:
                mid = b[1:] if b[-len(a) :] == a else b[:-1]
                m = self.maps[(mid, b)].compose(self.map(a, mid))
            self.maps[(a, b)] = m
        return m


@dataclass
class DiagramMap:
    """Index functor together with per-object components."""

    src: Diagram
    tgt: Diagram
    obj_map: dict
    components: dict  # obj -> ValueMap from src.value(obj) to tgt.value(obj_map[obj])

    def check_functorial(self):
        for a in self.src.index.objects:
            for b in self.src.index.targets_from(a):
                fa, fb = self.obj_map[a], self.obj_map[b]
                if not self.tgt.index.hom(fa, fb):
                    raise NotFunctorial(
                        f"image of {a} -> {b} is not a morphism: {fa} !-> {fb}"
                    )

    def naturality_failures(self):
        """Morphisms whose naturality square fails, sources in object order."""
        out = []
        for a in self.src.index.objects:
            for b in self.src.index.targets_from(a):
                fa, fb = self.obj_map[a], self.obj_map[b]
                left = self.components[b].compose(self.src.map(a, b))
                if left != self.tgt.map(fa, fb).compose(self.components[a]):
                    out.append((a, b))
        return out


# -- the discrete natural system ------------------------------------------------


class _SystemBuilder:
    def __init__(self, x: GlobularComplex, valuation: Valuation, cap: int):
        self.x = x
        self.valuation = valuation
        self.cap = cap
        self.tc = trace_category(x, cap)
        self.index = factorization_category(self.tc)
        self._space_by_pair: dict[tuple[str, str], TraceSpaceValue] = {}

    def space(self, t: Chain) -> TraceSpaceValue:
        key = (t[0], t[-1])
        if key not in self._space_by_pair:
            self._space_by_pair[key] = trace_space(self.x, key[0], key[1], self.cap)
        return self._space_by_pair[key]

    # -- one-cell extensions ------------------------------------------------

    def gen_space_map(self, t: Chain, t2: Chain) -> SpaceMap:
        """The map of a generator: t2 extends t on the left when t2[1:] == t."""
        x = self.x
        left = t2[1:] == t
        src = self.space(t)
        tgt = self.space(t2)
        anchor = t[0] if left else t[-1]
        if x.dim(anchor) >= 1:
            # the new cell is the initial (final) state of the anchor cell
            path = rep_path(x, anchor)
        else:
            # the new cell has positive dimension and ends (starts) at the
            # anchor vertex: the reduced endpoints do not move
            if (t2[0] if left else t2[-1]) == (t[-1] if left else t[0]):
                raise NotFunctorial("extension would close a cycle")
            path = ()
        if len(t) == 1:
            # the self-trace point goes to the constant route
            return SpaceMap(src, tgt, (), (), tgt.base.index[()][1])
        sm = extend_map(src, "left" if left else "right", path, self.cap)
        if sm.tgt != tgt:
            raise NotFunctorial("extension lands in an unexpected complex")
        return sm

    # -- assembly ------------------------------------------------------------

    def build(self) -> Diagram:
        """Generator maps, then the square of each chain b of three or more
        cells: b[1:-1] -> b[:-1] -> b and b[1:-1] -> b[1:] -> b must agree."""
        objects = self.index.objects
        spaces = {t: self.space(t) for t in objects}
        values = {t: self.valuation.value(spaces[t]) for t in objects}
        maps = {
            (a, b): self.valuation.map(self.gen_space_map(a, b))
            for a, b in self.index.generators()
        }
        for b in objects:
            if len(b) >= 3:
                mid = b[1:-1]
                via_right = maps[b[:-1], b].compose(maps[mid, b[:-1]])
                if via_right != maps[b[1:], b].compose(maps[mid, b[1:]]):
                    raise NotFunctorial(
                        f"extension square at {mid}: routes to {b} disagree"
                    )
        return Diagram(self.index, spaces, values, maps)


def natural_system(
    x: GlobularComplex, valuation: Valuation, cap: int = DEFAULT_CAP
) -> Diagram:
    """The discrete natural system of x under the given valuation."""
    return _SystemBuilder(x, valuation, cap).build()


def format_chain(t: Chain) -> str:
    return "[" + ",".join(t) + "]"


def diagram_export(d: Diagram) -> str:
    """Canonical text listing: objects, values, generator images."""
    lines = []
    for t in d.index.objects:
        lines.append(f"object {format_chain(t)}")
    for t in d.index.objects:
        lines.append(f"value {format_chain(t)} : {d.values[t].describe()}")
    for a, b in d.index.generators():
        ext = f"L:{b[0]}" if b[1:] == a else f"R:{b[-1]}"
        lines.append(
            f"gen {format_chain(a)} --{ext}--> {format_chain(b)} : "
            f"{d.map(a, b).describe()}"
        )
    return "\n".join(lines) + "\n"


# -- value of a directed path, two ways ------------------------------------------


@dataclass(frozen=True)
class PathValueReport:
    start_cell: str
    end_cell: str
    chain: Chain
    direct: Value
    via_trace: Value

    @property
    def consistent(self) -> bool:
        return self.direct == self.via_trace


def nt_value_of_path(
    x: GlobularComplex, gamma: DirectedPathPL, valuation: Valuation, cap=DEFAULT_CAP
) -> PathValueReport:
    """Value at a directed path computed by endpoint reduction and by
    its discrete trace; the two must agree."""
    check_path(x, gamma)
    c0 = point_cell(x, gamma, 0)
    c1 = point_cell(x, gamma, 1)
    if c0 == c1:
        direct_space = trace_space(x, c0, c0, cap)
    else:
        a = c0 if x.dim(c0) == 0 else x.tgt(c0)
        b = c1 if x.dim(c1) == 0 else x.src(c1)
        direct_space = TraceSpaceValue(path_complex(x, a, b, cap), extra_point=False)
    chain, _ = discrete_trace(x, gamma)
    via_space = trace_space(x, chain[0], chain[-1], cap)
    return PathValueReport(
        c0,
        c1,
        chain,
        valuation.value(direct_space),
        valuation.value(via_space),
    )


# -- maps induced by cellular collapses -------------------------------------------


def _trim_interior(y: GlobularComplex, chain: Chain) -> Chain:
    """Drop bounding vertices: the interior of a cell misses them."""
    out = chain
    if len(out) > 1 and y.dim(out[0]) == 0:
        out = out[1:]
    if len(out) > 1 and y.dim(out[-1]) == 0:
        out = out[:-1]
    return out


def map_chain_through(m: CellularMap, x: GlobularComplex, y: GlobularComplex, t: Chain) -> Chain:
    """Image of a chain: replace cells by image chains, glue, normalize."""
    pieces = []
    for cell in t:
        img = m.image_chain(cell)
        if x.dim(cell) >= 1:
            img = _trim_interior(y, img)
        pieces.append(img)
    out = list(pieces[0])
    for p in pieces[1:]:
        if out[-1] == p[0]:
            out.extend(p[1:])
        elif y.below(out[-1], p[0]):
            out.extend(p)
        else:
            raise NotFunctorial(
                f"image pieces {out[-1]} and {p[0]} do not meet in the face order"
            )
    if not is_chain(y, tuple(out)):
        raise NotFunctorial(f"image of {t} is not a chain: {out}")
    return tuple(out)


def _spell_edges(y: GlobularComplex, chain: Chain) -> Chain:
    """The edge route a chain traverses; filled cells go by their lower route."""
    out: list[str] = []
    for cell in chain:
        d = y.dim(cell)
        if d == 1:
            out.append(cell)
        elif d == 2:
            out.extend(rep_path(y, cell))
    return tuple(out)


def _letter_image(m: CellularMap, x, y, letter: str) -> Chain:
    """Target letters replacing one source letter inside a route word."""
    img = m.image_chain(letter)
    if x.dim(letter) == 1:
        return _spell_edges(y, img)
    squares = [c for c in img if y.dim(c) == 2]
    if len(squares) > 1:
        raise NotFunctorial(
            f"image of square {letter} contains several squares; unsupported"
        )
    if not squares:
        return _spell_edges(y, img)
    at = img.index(squares[0])
    return _spell_edges(y, img[:at]) + (squares[0],) + _spell_edges(y, img[at + 1 :])


def crush_component(
    m: CellularMap,
    x: GlobularComplex,
    y: GlobularComplex,
    t: Chain,
    t2: Chain,
    src: TraceSpaceValue,
    tgt: TraceSpaceValue,
) -> SpaceMap:
    if tgt.n_points() == 1 and tgt.base.dimension == 0:
        return SpaceMap.collapse(src, tgt)
    # affixes translate between the reduced endpoints on both sides
    suffix: Chain = ()
    if x.dim(t[0]) >= 1:
        g0 = _trim_interior(y, m.image_chain(t[0]))
        if y.dim(g0[0]) >= 1:
            suffix = _spell_edges(y, g0[1:])
    prefix: Chain = ()
    if x.dim(t[-1]) >= 1:
        gn = _trim_interior(y, m.image_chain(t[-1]))
        if y.dim(gn[-1]) >= 1:
            prefix = _spell_edges(y, gn[:-1])

    def word_fn(w):
        out = list(suffix)
        for letter in w:
            out.extend(_letter_image(m, x, y, letter))
        out.extend(prefix)
        return tuple(out)

    extra_word = None
    if src.extra_point:
        middle = _trim_interior(y, m.image_chain(t[0]))
        extra_word = _spell_edges(y, middle[1:-1])
    return SpaceMap.by_words(src, tgt, word_fn, extra_word)


def crush_induced_map(
    m: CellularMap,
    x: GlobularComplex,
    y: GlobularComplex,
    valuation: Valuation,
    cap: int = DEFAULT_CAP,
) -> DiagramMap:
    """The map of natural systems induced by a cellular collapse."""
    src = natural_system(x, valuation, cap)
    tgt = natural_system(y, valuation, cap)
    obj_map = {t: map_chain_through(m, x, y, t) for t in src.index.objects}
    for t, t2 in obj_map.items():
        if t2 not in tgt.index:
            raise NotFunctorial(f"image chain {t2} is not a trace of {y.name}")
    components = {}
    for t in src.index.objects:
        t2 = obj_map[t]
        sm = crush_component(m, x, y, t, t2, src.spaces[t], tgt.spaces[t2])
        components[t] = valuation.map(sm)
    dm = DiagramMap(src, tgt, obj_map, components)
    dm.check_functorial()
    return dm


# -- comparison with the continuous system ----------------------------------------


def dt_comparison(
    x: GlobularComplex, valuation: Valuation, cap: int = DEFAULT_CAP
) -> DiagramMap:
    """The identity map of the discrete natural system of x.

    This stands for the comparison from the center-representative
    restriction of the continuous system onto the discrete one: each
    discrete trace has a canonical representative through the centers
    of its cells, whose values and extension actions are exactly the
    discrete data.  ditop builds no continuous system, so the map is the
    identity and always open: ``check-open --comparison`` prints OPEN and
    does not test the paper's comparison.
    """
    return identity_diagram_map(natural_system(x, valuation, cap))


# -- coarsening along a refinement -------------------------------------------------


def coarsening_map(
    fine: GlobularComplex,
    coarse: GlobularComplex,
    refinement: dict[str, str],
    valuation: Valuation,
    cap: int = DEFAULT_CAP,
) -> DiagramMap:
    """The open map of natural systems collapsing a subdivision.

    ``refinement`` sends every cell of the fine complex to the coarse
    cell it lies in, as produced by the subdivision operations.
    """
    src = natural_system(fine, valuation, cap)
    tgt = natural_system(coarse, valuation, cap)

    def chain_image(t: Chain) -> Chain:
        out = []
        for cell in t:
            img = refinement[cell]
            if not out or out[-1] != img:
                out.append(img)
        return tuple(out)

    obj_map = {t: chain_image(t) for t in src.index.objects}
    for t, t2 in obj_map.items():
        if t2 not in tgt.index:
            raise NotFunctorial(f"coarsened chain {t2} is not a trace")

    def group_image(img: str, letters: list[str]) -> Chain:
        """One traversal of the coarse cell a run of fine letters lies in."""
        d = coarse.dim(img)
        if d == 1:
            return (img,)
        if d == 2:
            if any(fine.dim(le) == 2 for le in letters):
                return (img,)
            return rep_path(coarse, img)
        raise NotFunctorial(f"route letters {letters} collapse to a state")

    components = {}
    for t in src.index.objects:
        t2 = obj_map[t]
        v_src = src.spaces[t]
        v_tgt = tgt.spaces[t2]
        if v_tgt.n_points() == 1 and v_tgt.base.dimension == 0:
            components[t] = valuation.map(SpaceMap.collapse(v_src, v_tgt))
            continue
        # route letters still inside the image chain's end cells are
        # absorbed into the reduced endpoints on the coarse side
        head = t2[0] if coarse.dim(t2[0]) >= 1 else None
        tail = t2[-1] if coarse.dim(t2[-1]) >= 1 else None

        def word_fn(w, head=head, tail=tail):
            dropped = list(w)
            while dropped and head is not None and refinement[dropped[0]] == head:
                dropped.pop(0)
            while dropped and tail is not None and refinement[dropped[-1]] == tail:
                dropped.pop()
            out: list[str] = []
            group: list[str] = []
            group_img = None
            for letter in dropped + [None]:
                img = refinement[letter] if letter is not None else None
                if img != group_img and group:
                    out.extend(group_image(group_img, group))
                    group = []
                group_img = img
                if letter is not None:
                    group.append(letter)
            return tuple(out)

        components[t] = valuation.map(SpaceMap.by_words(v_src, v_tgt, word_fn))
    dm = DiagramMap(src, tgt, obj_map, components)
    dm.check_functorial()
    return dm


def identity_diagram_map(d: Diagram) -> DiagramMap:
    return DiagramMap(
        d,
        d,
        {t: t for t in d.index.objects},
        {t: ValueMap.identity(d.values[t]) for t in d.index.objects},
    )


def refinement_span(
    fine: GlobularComplex,
    coarse: GlobularComplex,
    refinement: dict[str, str],
    valuation: Valuation,
    cap: int = DEFAULT_CAP,
):
    """A span from the fine system onto the coarse and onto itself."""
    p = coarsening_map(fine, coarse, refinement, valuation, cap)
    q = identity_diagram_map(p.src)
    return p, q
