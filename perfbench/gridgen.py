"""Seeded inputs for the ditop benchmark, written as GCX text.

The benchmark never hands the program anything but GCX files, and it
builds them here without calling the program: n x m grids of filled
squares with chosen holes, the gallery fixtures read as text, and their
single-step subdivisions.  ``Gcx`` is a plain record of one complex;
``text(prefix)`` writes it with every name prefixed, which is how a run
gets fresh inputs of the same shape (a uniform prefix keeps the sorted
order of all names, so the program's work does not change with it).

Grid conventions: states ``s{i}_{j}`` for 0 <= i <= n, 0 <= j <= m;
edges ``h{i}_{j}: s{i}_{j} -> s{i}_{j+1}`` and
``v{i}_{j}: s{i}_{j} -> s{i+1}_{j}``; square ``q{i}_{j}`` has lower
route ``h{i}_{j},v{i}_{j+1}`` and upper route ``v{i}_{j},h{i+1}_{j}``
(the orientation of the gallery's FIX-SQUARE).  A hole is a missing
square.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

Edge = tuple[str, str, str]  # name, src, tgt
Cell = tuple[str, tuple[str, ...], tuple[str, ...]]  # name, lower, upper


@dataclass(frozen=True)
class Gcx:
    states: tuple[str, ...]
    edges: tuple[Edge, ...]
    cells: tuple[Cell, ...]

    def names(self) -> list[str]:
        return (
            list(self.states)
            + [e[0] for e in self.edges]
            + [c[0] for c in self.cells]
        )

    def text(self, prefix: str = "") -> str:
        p = prefix
        lines = [f"state {p}{s}" for s in self.states]
        lines += [f"edge {p}{e} : {p}{a} -> {p}{b}" for e, a, b in self.edges]
        lines += [
            f"cell2 {p}{c} : {','.join(p + x for x in lo)} => "
            f"{','.join(p + x for x in up)}"
            for c, lo, up in self.cells
        ]
        return "\n".join(lines) + "\n"

    def src(self, cell: Cell) -> str:
        return self._edge(cell[1][0])[1]

    def tgt(self, cell: Cell) -> str:
        return self._edge(cell[1][-1])[2]

    def _edge(self, name: str) -> Edge:
        return next(e for e in self.edges if e[0] == name)


def grid(n: int, m: int, holes=()) -> Gcx:
    """n rows by m columns of squares, minus the squares in `holes`."""
    holes = set(holes)
    states = tuple(f"s{i}_{j}" for i in range(n + 1) for j in range(m + 1))
    edges = tuple(
        (f"h{i}_{j}", f"s{i}_{j}", f"s{i}_{j + 1}")
        for i in range(n + 1)
        for j in range(m)
    ) + tuple(
        (f"v{i}_{j}", f"s{i}_{j}", f"s{i + 1}_{j}")
        for i in range(n)
        for j in range(m + 1)
    )
    cells = tuple(
        (f"q{i}_{j}", (f"h{i}_{j}", f"v{i}_{j + 1}"), (f"v{i}_{j}", f"h{i + 1}_{j}"))
        for i, j in product(range(n), range(m))
        if (i, j) not in holes
    )
    return Gcx(states, edges, cells)


_EDGE_RE = re.compile(r"edge\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")
_CELL_RE = re.compile(r"cell2\s+(\S+)\s*:\s*(.+?)\s*=>\s*(.+)$")


def parse(text: str) -> Gcx:
    """Read the state / edge / cell2 lines of a GCX source."""
    states, edges, cells = [], [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("state "):
            states.append(line.split()[1])
        elif m := _EDGE_RE.match(line):
            edges.append(m.groups())
        elif m := _CELL_RE.match(line):
            side = lambda s: tuple(t.strip() for t in s.split(",") if t.strip())
            cells.append((m.group(1), side(m.group(2)), side(m.group(3))))
        else:
            raise ValueError(f"not a GCX line: {raw!r}")
    return Gcx(tuple(states), tuple(edges), tuple(cells))


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "_"
    taken.add(name)
    return name


def split_edge(g: Gcx, e: str) -> Gcx:
    """Split edge e at a fresh midpoint state (names as `ditop subdivide`)."""
    taken = set(g.names())
    w, e1, e2 = (_fresh(f"{e}_{s}", taken) for s in ("w", "1", "2"))
    _, a, b = g._edge(e)
    states = list(g.states)
    states.insert(states.index(b), w)
    edges = []
    for ed in g.edges:
        edges += [(e1, a, w), (e2, w, b)] if ed[0] == e else [ed]

    def replace(path):
        return tuple(x for name in path for x in ((e1, e2) if name == e else (name,)))

    cells = tuple((c, replace(lo), replace(up)) for c, lo, up in g.cells)
    return Gcx(tuple(states), tuple(edges), cells)


def split_cell(g: Gcx, c: str) -> Gcx:
    """Split 2-cell c along a one-edge chord (names as `ditop subdivide`)."""
    cell = next(x for x in g.cells if x[0] == c)
    taken = set(g.names())
    chord = _fresh(f"{c}_e1", taken)
    top = _fresh(f"{c}_top", taken)
    bot = _fresh(f"{c}_bot", taken)
    edges = g.edges + ((chord, g.src(cell), g.tgt(cell)),)
    cells = tuple(x for x in g.cells if x[0] != c) + (
        (top, cell[1], (chord,)),
        (bot, (chord,), cell[2]),
    )
    return Gcx(g.states, edges, cells)


def single_step_splits(g: Gcx):
    """(key, split) for every edge split, then every chord split."""
    for e, _, _ in g.edges:
        yield f"edge:{e}", split_edge(g, e)
    for c, _, _ in g.cells:
        yield f"chord:{c}", split_cell(g, c)
