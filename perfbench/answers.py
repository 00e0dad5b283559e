"""Answer checks for every op, run outside the timed region.

Each check returns a list of problems; an op with any problem counts as
failed.  The checks are:

* exit code and an empty stderr;
* verdicts against known answers: a single-step subdivision is
  bisimilar (`yes`, the paper's invariance); a grid with a hole is not
  bisimilar to the same grid filled (`no`), because the holed side has a
  2-component value that the filled side lacks, which networkx confirms
  on the inputs;
* `paths`: H0 rank and pi0 against networkx components of the route
  1-skeleton, the route count against cube0, and the Euler
  characteristic of the cube counts against that of the homology;
* `natsys`: the object count against an independent count of the chains
  of the face order;
* a digest of the report pinned at the seed commit (in `pinned.json`).
  The report is read with the run's name prefix removed.  For `no`
  verdicts only the verdict and `uncovered ...` lines are pinned: they
  follow from the unique greatest fixpoint, the `drop ...` trace lines
  depend on deletion order.
"""

from __future__ import annotations

import hashlib
import re

import networkx as nx

from gridgen import Edge, Gcx

EXPECTED_EXIT = {"sweep": 0, "refute": 1, "paths": 0, "natsys": 0}


# -- independent oracles: networkx on the inputs, not the program ---------------


def routes(g: Gcx, a: str, b: str) -> list[tuple[str, ...]]:
    """Every directed edge route from state a to state b."""
    out: dict[str, list[Edge]] = {s: [] for s in g.states}
    for e in g.edges:
        out[e[1]].append(e)
    found, stack = [], [(a, ())]
    while stack:
        s, word = stack.pop()
        if s == b:
            found.append(word)
        for name, _, t in out[s]:
            stack.append((t, word + (name,)))
    return found


def route_components(g: Gcx, a: str, b: str) -> int:
    """Components of the route 1-skeleton: routes joined by one square swap."""
    rs = routes(g, a, b)
    graph = nx.Graph()
    graph.add_nodes_from(rs)
    known = set(rs)
    for r in rs:
        for _, lo, up in g.cells:
            k = len(lo)
            for at in range(len(r) - k + 1):
                if r[at : at + k] == lo:
                    other = r[:at] + up + r[at + k :]
                    if other in known:
                        graph.add_edge(r, other)
    return nx.number_connected_components(graph)


def max_route_components(g: Gcx) -> int:
    """The largest component count over all pairs of states."""
    return max(route_components(g, a, b) for a in g.states for b in g.states)


# -- checks ---------------------------------------------------------------------


def pinned_text(kind: str, report: str) -> str:
    if kind == "refute":
        keep = ("BISIMILAR", "uncovered ")
        return "\n".join(l for l in report.splitlines() if l.startswith(keep))
    return report


def digest(kind: str, report: str) -> str:
    return hashlib.sha256(pinned_text(kind, report).encode()).hexdigest()


def _free_rank(group: str) -> int:
    m = re.match(r"Z\^(\d+)", group)
    return int(m.group(1)) if m else 0


def check_paths(g: Gcx, alpha: str, beta: str, report: str) -> list[str]:
    cubes = [int(v) for v in re.findall(r"^cube\d+ (\d+)$", report, re.M)]
    ranks = [_free_rank(v) for v in re.findall(r"^H\d+\(.*?\) = (.*)$", report, re.M)]
    pi0 = re.search(r"^pi0\(.*?\) = (\d+)$", report, re.M)
    if not cubes or not ranks or not pi0:
        return ["paths report lacks cube, homology or pi0 lines"]
    problems = []
    comps = route_components(g, alpha, beta)
    if ranks[0] != comps or int(pi0.group(1)) != comps:
        problems.append(f"H0 rank {ranks[0]} / pi0 {pi0.group(1)} != {comps} components")
    if cubes[0] != len(routes(g, alpha, beta)):
        problems.append("cube0 is not the route count")
    euler = lambda xs: sum((-1) ** k * x for k, x in enumerate(xs))
    if euler(cubes) != euler(ranks):
        problems.append(f"Euler characteristic {euler(cubes)} != {euler(ranks)}")
    return problems


def count_chains(g: Gcx) -> int:
    """Chains of the one-step face order (cell -> its target, source -> cell)."""
    dag = nx.DiGraph()
    dag.add_nodes_from(g.names())
    ends = {e: (a, b) for e, a, b in g.edges}
    ends.update({c: (ends[lo[0]][0], ends[lo[-1]][1]) for c, lo, _ in g.cells})
    for cell, (a, b) in ends.items():
        dag.add_edge(a, cell)
        dag.add_edge(cell, b)
    chains_from: dict[str, int] = {}
    for v in reversed(list(nx.topological_sort(dag))):
        chains_from[v] = 1 + sum(chains_from[w] for w in dag.successors(v))
    return sum(chains_from.values())


class Checker:
    def __init__(self, pinned: dict[str, str]):
        self.pinned = pinned
        self._oracle: dict[str, list[str]] = {}  # variant key -> input problems

    def check(self, op, code, out: str, err: str) -> list[str]:
        v = op.variant
        report = out.replace(op.prefix, "")
        problems = []
        if code != EXPECTED_EXIT[v.kind]:
            problems.append(f"exit code {code}")
        if err:
            problems.append(f"stderr: {err.strip().splitlines()[-1][:200]}")
        if v.kind in ("sweep", "refute"):
            want = "BISIMILAR yes" if v.kind == "sweep" else "BISIMILAR no"
            head = report.split("\n", 1)[0]
            if head != want:
                problems.append(f"verdict {head!r}, expected {want!r}")
            if v.kind == "sweep" and "\ntriple " not in report:
                problems.append("certificate missing")
            if v.kind == "refute" and "\nuncovered " not in report:
                problems.append("no uncovered object named")
        if v.kind == "refute":
            problems += self._input_problems(v)
        elif v.kind == "paths":
            problems += check_paths(v.gcx("G"), v.args[2], v.args[3], report)
        elif v.kind == "natsys":
            objects = report.count("\nobject ") + report.startswith("object ")
            if objects != count_chains(v.gcx("G")):
                problems.append(f"{objects} objects, not the chain count")
        pinned = self.pinned.get(v.key)
        if pinned is None:
            problems.append(f"no pinned digest for {v.key}")
        elif digest(v.kind, report) != pinned:
            problems.append("report digest differs from the pinned one")
        return problems

    def _input_problems(self, v) -> list[str]:
        """The filled side lacks the holed side's 2-component value."""
        if v.key not in self._oracle:
            holed, filled = max_route_components(v.holed), max_route_components(v.filled)
            self._oracle[v.key] = (
                []
                if (holed, filled) == (2, 1)
                else [f"inputs do not force `no`: {holed} vs {filled} components"]
            )
        return self._oracle[v.key]
