"""Finite combinatorial globular complexes.

A ``GlobularComplex`` is the cellular skeleton of a state space: named
states (0-cells), directed edges between states (1-cells), and 2-cells
whose boundary is a pair of parallel edge-paths (a lower and an upper
route with common endpoints).  Cells of dimension >= 3 can be stored for
round-tripping but every computing operation rejects them.

The module also provides 2-truncated precubical sets and their import
(each square becomes a 2-cell between its two monotone corner routes),
the two subdivision primitives (edge split, longitudinal chord split of a
2-cell), cellular maps whose cell images are chains, and line-oriented
text formats for all three kinds of objects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import (
    BadChordSpec,
    InvalidFaces,
    NotLoopFree,
    ParseError,
    UnknownCell,
    UnknownState,
    UnsupportedDimension,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class Edge:
    name: str
    src: str
    tgt: str


@dataclass(frozen=True)
class Cell2:
    name: str
    lower: tuple[str, ...]  # edge names, nonempty
    upper: tuple[str, ...]


@dataclass(frozen=True)
class CellHi:
    """A cell of dimension >= 3: stored, never computed on."""

    name: str
    dim: int
    data: tuple = ()


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(i) for i in self.issues)


class GlobularComplex:
    """States, edges, 2-cells; immutable after construction."""

    def __init__(self, name="X", states=(), edges=(), cells2=(), cells_hi=()):
        self.name = name
        self.states: tuple[str, ...] = tuple(states)
        self.edges: dict[str, Edge] = {e.name: e for e in edges}
        self.cells2: dict[str, Cell2] = {c.name: c for c in cells2}
        self.cells_hi: dict[str, CellHi] = {c.name: c for c in cells_hi}
        self._state_set = frozenset(self.states)
        # route complexes by (alpha, beta, cap); valid since cells never change
        self.route_cache: dict = {}
        # set once the checks that route enumeration needs have passed
        self.checked = False
        self._successors: dict[str, list[str]] | None = None

    # -- cell bookkeeping -------------------------------------------------

    def all_cells(self) -> list[str]:
        return (
            list(self.states)
            + list(self.edges)
            + list(self.cells2)
            + list(self.cells_hi)
        )

    def has_cell(self, name: str) -> bool:
        return (
            name in self.edges
            or name in self.cells2
            or name in self.cells_hi
            or name in self._state_set
        )

    def dim(self, name: str) -> int:
        if name in self.edges:
            return 1
        if name in self.cells2:
            return 2
        if name in self.cells_hi:
            return self.cells_hi[name].dim
        if name in self._state_set:
            return 0
        raise UnknownCell(name)

    def src(self, name: str) -> str:
        """Initial state of a cell; a state is its own source."""
        d = self.dim(name)
        if d == 0:
            return name
        if d == 1:
            return self.edges[name].src
        if d == 2:
            c = self.cells2[name]
            return self.edges[c.lower[0]].src
        raise UnsupportedDimension(name)

    def tgt(self, name: str) -> str:
        d = self.dim(name)
        if d == 0:
            return name
        if d == 1:
            return self.edges[name].tgt
        if d == 2:
            c = self.cells2[name]
            return self.edges[c.lower[-1]].tgt
        raise UnsupportedDimension(name)

    def max_dim(self) -> int:
        if self.cells_hi:
            return max(c.dim for c in self.cells_hi.values())
        if self.cells2:
            return 2
        if self.edges:
            return 1
        return 0

    def below(self, c: str, d: str) -> bool:
        """The one-step face order: c != d and (c = src(d) or tgt(c) = d)."""
        if c == d:
            return False
        return (self.dim(d) >= 1 and self.src(d) == c) or (
            self.dim(c) >= 1 and self.tgt(c) == d
        )

    def order_arcs(self) -> list[tuple[str, str]]:
        """All one-step order pairs, in definition order."""
        arcs = []
        for name in list(self.edges) + list(self.cells2):
            arcs.append((self.src(name), name))
            arcs.append((name, self.tgt(name)))
        return arcs

    def successors(self) -> dict[str, list[str]]:
        """The one-step order as successor lists, built once."""
        if self._successors is None:
            succ: dict[str, list[str]] = {}
            for a, b in self.order_arcs():
                succ.setdefault(a, []).append(b)
            self._successors = succ
        return self._successors

    def path_endpoints(self, path: tuple[str, ...]) -> tuple[str, str]:
        """Endpoints of a composable edge-path; raises on gaps."""
        if not path:
            raise UnknownCell("empty edge-path has no endpoints")
        for e in path:
            if e not in self.edges:
                raise UnknownCell(e)
        for a, b in zip(path, path[1:]):
            if self.edges[a].tgt != self.edges[b].src:
                raise InvalidFaces(f"edges {a}, {b} not composable")
        return self.edges[path[0]].src, self.edges[path[-1]].tgt

    def require_computable(self):
        if self.cells_hi:
            raise UnsupportedDimension(
                "complex contains cells of dimension >= 3: "
                + ", ".join(self.cells_hi)
            )

    def __repr__(self):
        return (
            f"GlobularComplex({self.name}: {len(self.states)} states, "
            f"{len(self.edges)} edges, {len(self.cells2)} 2-cells)"
        )


def validate(x: GlobularComplex) -> ValidationReport:
    """Report every violated invariant; never raises."""
    issues = []
    seen = {}
    for kind, names in (
        ("state", x.states),
        ("edge", x.edges),
        ("cell2", x.cells2),
        ("cell", x.cells_hi),
    ):
        for n in names:
            if not _NAME_RE.match(n):
                issues.append(ValidationIssue("BadName", f"{kind} name {n!r}"))
            if n in seen:
                issues.append(
                    ValidationIssue("DuplicateName", f"{n} is both {seen[n]} and {kind}")
                )
            seen[n] = kind
    states = set(x.states)
    for e in x.edges.values():
        for endpoint in (e.src, e.tgt):
            if endpoint not in states:
                issues.append(
                    ValidationIssue("UnknownCell", f"edge {e.name}: state {endpoint}")
                )
        if e.src == e.tgt and e.src in states:
            issues.append(ValidationIssue("LoopEdge", f"edge {e.name} has src = tgt"))
    for c in x.cells2.values():
        bad = False
        for side, path in (("lower", c.lower), ("upper", c.upper)):
            if not path:
                issues.append(
                    ValidationIssue("EmptyBoundary", f"2-cell {c.name}: {side} empty")
                )
                bad = True
                continue
            for e in path:
                if e not in x.edges:
                    issues.append(
                        ValidationIssue(
                            "UnknownCell", f"2-cell {c.name}: {side} edge {e}"
                        )
                    )
                    bad = True
            if not bad:
                for a, b in zip(path, path[1:]):
                    if x.edges[a].tgt != x.edges[b].src:
                        issues.append(
                            ValidationIssue(
                                "BrokenPath",
                                f"2-cell {c.name}: {side} edges {a}, {b} not composable",
                            )
                        )
                        bad = True
        if not bad:
            lo = (x.edges[c.lower[0]].src, x.edges[c.lower[-1]].tgt)
            up = (x.edges[c.upper[0]].src, x.edges[c.upper[-1]].tgt)
            if lo != up:
                issues.append(
                    ValidationIssue(
                        "BoundaryMismatch",
                        f"2-cell {c.name}: lower runs {lo[0]}->{lo[1]}, "
                        f"upper runs {up[0]}->{up[1]}",
                    )
                )
    return ValidationReport(tuple(issues))


def require_valid(x: GlobularComplex):
    rep = validate(x)
    if not rep.ok:
        raise InvalidFaces(str(rep))


def is_loop_free(x: GlobularComplex) -> bool:
    """True iff the 1-skeleton digraph is acyclic with no self loops."""
    adj = {s: [] for s in x.states}
    for e in x.edges.values():
        if e.src == e.tgt:
            return False
        adj[e.src].append(e.tgt)
    state = {s: 0 for s in x.states}  # 0 unseen, 1 open, 2 done

    def visit(v):
        state[v] = 1
        for w in adj[v]:
            if state[w] == 1:
                return False
            if state[w] == 0 and not visit(w):
                return False
        state[v] = 2
        return True

    return all(state[s] != 0 or visit(s) for s in x.states)


def require_loop_free(x: GlobularComplex):
    if not is_loop_free(x):
        raise NotLoopFree(f"{x.name} has a directed cycle in its 1-skeleton")


# -- precubical sets -------------------------------------------------------


@dataclass(frozen=True)
class Cube1:
    name: str
    d0: str  # vertex at coordinate 0
    d1: str  # vertex at coordinate 1


@dataclass(frozen=True)
class Cube2:
    """Four edge faces, in the order d1^0, d1^1, d2^0, d2^1."""

    name: str
    faces: tuple[str, str, str, str]


class PrecubicalSet2:
    """A precubical set truncated at dimension 2."""

    def __init__(self, name="K", vertices=(), cubes1=(), cubes2=()):
        self.name = name
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.cubes1: dict[str, Cube1] = {c.name: c for c in cubes1}
        self.cubes2: dict[str, Cube2] = {c.name: c for c in cubes2}

    def check_faces(self):
        """Corner consistency of every square; raises InvalidFaces."""
        vs = set(self.vertices)
        for c in self.cubes1.values():
            if c.d0 not in vs or c.d1 not in vs:
                raise InvalidFaces(f"edge {c.name}: unknown vertex")
        for sq in self.cubes2.values():
            try:
                e10, e11, e20, e21 = [self.cubes1[f] for f in sq.faces]
            except KeyError as k:
                raise InvalidFaces(f"square {sq.name}: unknown edge {k}") from None
            # Faces of faces must agree on the four corners of the square:
            # rows are the d1-faces, columns the d2-faces.
            if e10.d0 != e20.d0:
                raise InvalidFaces(f"square {sq.name}: corner (0,0) mismatch")
            if e10.d1 != e21.d0:
                raise InvalidFaces(f"square {sq.name}: corner (0,1) mismatch")
            if e11.d0 != e20.d1:
                raise InvalidFaces(f"square {sq.name}: corner (1,0) mismatch")
            if e11.d1 != e21.d1:
                raise InvalidFaces(f"square {sq.name}: corner (1,1) mismatch")


def import_precubical(k: PrecubicalSet2) -> GlobularComplex:
    """Vertices to states, edges to 1-cells, squares to 2-cells.

    A square turns into the 2-cell between its two monotone corner routes
    from the (0,0)-corner to the (1,1)-corner: lower route d1^0 then d2^1,
    upper route d2^0 then d1^1.
    """
    k.check_faces()
    edges = [Edge(c.name, c.d0, c.d1) for c in k.cubes1.values()]
    cells2 = []
    for sq in k.cubes2.values():
        e10, e11, e20, e21 = sq.faces
        cells2.append(Cell2(sq.name, lower=(e10, e21), upper=(e20, e11)))
    out = GlobularComplex(k.name, k.vertices, edges, cells2)
    require_valid(out)
    return out


# -- subdivision -----------------------------------------------------------


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "_"
    taken.add(name)
    return name


def subdivide_edge(x: GlobularComplex, e: str):
    """Split edge e at a fresh state; returns (Y, refinement).

    The refinement maps every cell of Y to the cell of X it lies in.
    """
    if e not in x.edges:
        raise UnknownCell(e)
    taken = set(x.all_cells())
    w = _fresh(f"{e}_w", taken)
    e1 = _fresh(f"{e}_1", taken)
    e2 = _fresh(f"{e}_2", taken)
    old = x.edges[e]
    states = list(x.states)
    states.insert(states.index(old.tgt), w)

    def replace(path):
        out = []
        for name in path:
            out.extend((e1, e2) if name == e else (name,))
        return tuple(out)

    edges = []
    for ed in x.edges.values():
        if ed.name == e:
            edges.append(Edge(e1, old.src, w))
            edges.append(Edge(e2, w, old.tgt))
        else:
            edges.append(ed)
    cells2 = [
        Cell2(c.name, replace(c.lower), replace(c.upper)) for c in x.cells2.values()
    ]
    y = GlobularComplex(x.name, states, edges, cells2, x.cells_hi.values())
    refinement = {name: name for name in x.all_cells() if name != e}
    refinement.update({w: e, e1: e, e2: e})
    return y, refinement


def subdivide_2cell(x: GlobularComplex, c: str, chord: int):
    """Split 2-cell c along a fresh chord path of `chord` edges.

    The chord runs from src(c) to tgt(c) through chord-1 fresh states; the
    cell is replaced by the 2-cells (lower, chord) and (chord, upper).
    """
    if c not in x.cells2:
        raise UnknownCell(c)
    if not isinstance(chord, int) or chord < 1:
        raise BadChordSpec(f"chord edge count must be a positive integer, got {chord}")
    cell = x.cells2[c]
    taken = set(x.all_cells())
    mids = [_fresh(f"{c}_m{i}", taken) for i in range(1, chord)]
    chord_edges = [_fresh(f"{c}_e{i}", taken) for i in range(1, chord + 1)]
    top = _fresh(f"{c}_top", taken)
    bot = _fresh(f"{c}_bot", taken)

    nodes = [x.src(c)] + mids + [x.tgt(c)]
    states = list(x.states)
    at = states.index(x.tgt(c))
    states[at:at] = mids
    edges = list(x.edges.values()) + [
        Edge(name, nodes[i], nodes[i + 1]) for i, name in enumerate(chord_edges)
    ]
    cells2 = [c2 for c2 in x.cells2.values() if c2.name != c]
    cells2.append(Cell2(top, cell.lower, tuple(chord_edges)))
    cells2.append(Cell2(bot, tuple(chord_edges), cell.upper))
    y = GlobularComplex(x.name, states, edges, cells2, x.cells_hi.values())
    refinement = {name: name for name in x.all_cells() if name != c}
    for name in mids + chord_edges + [top, bot]:
        refinement[name] = c
    return y, refinement


# -- cellular maps ----------------------------------------------------------


@dataclass(frozen=True)
class CellularMap:
    """State map plus, for every cell, an image chain in the target."""

    src_name: str
    tgt_name: str
    state_map: dict[str, str] = field(default_factory=dict)
    cell_map: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def image_chain(self, cell: str) -> tuple[str, ...]:
        if cell in self.cell_map:
            return self.cell_map[cell]
        if cell in self.state_map:
            return (self.state_map[cell],)
        raise UnknownCell(cell)


def identity_map(x: GlobularComplex) -> CellularMap:
    return CellularMap(
        x.name,
        x.name,
        {s: s for s in x.states},
        {n: (n,) for n in list(x.edges) + list(x.cells2)},
    )


def chain_endpoints(y: GlobularComplex, chain: tuple[str, ...]) -> tuple[str, str]:
    return y.src(chain[0]), y.tgt(chain[-1])


def is_chain(y: GlobularComplex, chain: tuple[str, ...]) -> bool:
    if not chain:
        return False
    for name in chain:
        if not y.has_cell(name):
            return False
    return all(y.below(a, b) for a, b in zip(chain, chain[1:]))


def validate_cellular_map(
    m: CellularMap, x: GlobularComplex, y: GlobularComplex
) -> ValidationReport:
    """Endpoint compatibility of every cell image chain; never raises."""
    issues = []
    ystates = set(y.states)
    for s in x.states:
        img = m.state_map.get(s)
        if img is None:
            issues.append(ValidationIssue("MissingImage", f"state {s}"))
        elif img not in ystates:
            issues.append(ValidationIssue("UnknownCell", f"state {s} -> {img}"))
    for cell in list(x.edges) + list(x.cells2):
        chain = m.cell_map.get(cell)
        if chain is None:
            issues.append(ValidationIssue("MissingImage", f"cell {cell}"))
            continue
        if not is_chain(y, chain):
            issues.append(
                ValidationIssue("NotAChain", f"cell {cell} -> {','.join(chain)}")
            )
            continue
        lo, hi = chain_endpoints(y, chain)
        want_lo = m.state_map.get(x.src(cell))
        want_hi = m.state_map.get(x.tgt(cell))
        if lo != want_lo or hi != want_hi:
            issues.append(
                ValidationIssue(
                    "EndpointMismatch",
                    f"cell {cell}: image runs {lo}->{hi}, expected {want_lo}->{want_hi}",
                )
            )
    for cell in x.cells_hi:
        if cell not in m.cell_map:
            issues.append(ValidationIssue("MissingImage", f"cell {cell}"))
    return ValidationReport(tuple(issues))


# -- text formats ------------------------------------------------------------


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _name_ok(name, lineno):
    if not _NAME_RE.match(name):
        raise ParseError(f"bad name {name!r}", lineno)
    return name


def parse_gcx(text: str, name="X") -> GlobularComplex:
    """Parse the GCX format: state / edge / cell2 lines."""
    states, edges, cells2 = [], [], []
    for lineno, line in _tokens(text):
        parts = line.split()
        kind = parts[0]
        if kind == "state":
            if len(parts) != 2:
                raise ParseError("expected: state <name>", lineno)
            states.append(_name_ok(parts[1], lineno))
        elif kind == "edge":
            m = re.match(
                r"edge\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$", line
            )
            if not m:
                raise ParseError("expected: edge <name> : <state> -> <state>", lineno)
            edges.append(
                Edge(*(_name_ok(g, lineno) for g in m.groups()))
            )
        elif kind == "cell2":
            m = re.match(r"cell2\s+(\S+)\s*:\s*(.+?)\s*=>\s*(.+)$", line)
            if not m:
                raise ParseError(
                    "expected: cell2 <name> : <edges> => <edges>", lineno
                )
            cname = _name_ok(m.group(1), lineno)
            lower = tuple(
                _name_ok(t.strip(), lineno) for t in m.group(2).split(",") if t.strip()
            )
            upper = tuple(
                _name_ok(t.strip(), lineno) for t in m.group(3).split(",") if t.strip()
            )
            if not lower or not upper:
                raise ParseError("cell2 boundaries must be nonempty", lineno)
            cells2.append(Cell2(cname, lower, upper))
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno)
    return GlobularComplex(name, states, edges, cells2)


def format_gcx(x: GlobularComplex) -> str:
    lines = [f"state {s}" for s in x.states]
    lines += [f"edge {e.name} : {e.src} -> {e.tgt}" for e in x.edges.values()]
    lines += [
        f"cell2 {c.name} : {','.join(c.lower)} => {','.join(c.upper)}"
        for c in x.cells2.values()
    ]
    return "\n".join(lines) + "\n"


def parse_pcx(text: str, name="K") -> PrecubicalSet2:
    """Parse the PCX format: vertex / cube1 / cube2 lines."""
    vertices, cubes1, cubes2 = [], [], []
    for lineno, line in _tokens(text):
        parts = line.replace(":", " ").split()
        kind = parts[0]
        if kind == "vertex":
            if len(parts) != 2:
                raise ParseError("expected: vertex <name>", lineno)
            vertices.append(_name_ok(parts[1], lineno))
        elif kind == "cube1":
            if len(parts) != 4:
                raise ParseError("expected: cube1 <name> : <v> <v>", lineno)
            cubes1.append(Cube1(*(_name_ok(p, lineno) for p in parts[1:])))
        elif kind == "cube2":
            if len(parts) != 6:
                raise ParseError("expected: cube2 <name> : <e> <e> <e> <e>", lineno)
            names = [_name_ok(p, lineno) for p in parts[1:]]
            cubes2.append(Cube2(names[0], tuple(names[1:])))
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno)
    return PrecubicalSet2(name, vertices, cubes1, cubes2)


def parse_cmap(text: str, x: GlobularComplex, y: GlobularComplex) -> CellularMap:
    """Parse the CMAP format: map <src-cell> -> <cell>(,<cell>)* lines."""
    state_map, cell_map = {}, {}
    xstates = set(x.states)
    for lineno, line in _tokens(text):
        m = re.match(r"map\s+(\S+)\s*->\s*(.+)$", line)
        if not m:
            raise ParseError("expected: map <cell> -> <cell>(,<cell>)*", lineno)
        src = _name_ok(m.group(1), lineno)
        chain = tuple(
            _name_ok(t.strip(), lineno) for t in m.group(2).split(",") if t.strip()
        )
        if not x.has_cell(src):
            raise ParseError(f"unknown source cell {src}", lineno)
        if src in xstates:
            if len(chain) != 1:
                raise ParseError(f"state {src} must map to a single state", lineno)
            state_map[src] = chain[0]
        else:
            cell_map[src] = chain
    return CellularMap(x.name, y.name, state_map, cell_map)


def format_cmap(m: CellularMap) -> str:
    lines = [f"map {s} -> {t}" for s, t in m.state_map.items()]
    lines += [f"map {c} -> {','.join(chain)}" for c, chain in m.cell_map.items()]
    return "\n".join(lines) + "\n"


def require_state(x: GlobularComplex, s: str) -> str:
    if s not in x._state_set:
        raise UnknownState(f"{s} is not a state of {x.name}")
    return s
