"""Spans around ditop's layer entry points, for the traced run only.

``Tracer.install`` replaces each wrapped function at the import site
that the program actually calls through (``ditop.cli.*``,
``ditop.natsys.trace_space``, ``ditop.values.homology*``, the bisim
entry points) and a few methods on their classes; ``uninstall`` puts the
originals back.  Per-call hot helpers such as ``FactCat.hom`` are left
alone.  A span is (name, start, end, parent span, op id); spans are
kept in memory in flat arrays and written out once the run ends.  Size
counters are read from the objects the wrapped calls returned, after
each op, outside every span.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import ditop.bisim
import ditop.cli
import ditop.natsys
import ditop.values

# (module or class, attribute, span name).  The layer is the name's head.
WRAPPED = (
    (ditop.cli, "parse_gcx", "gcomplex.parse_gcx"),
    (ditop.cli, "validate", "gcomplex.validate"),
    (ditop.cli, "path_complex", "pathspace.path_complex"),
    (ditop.natsys, "trace_space", "pathspace.trace_space"),
    (ditop.natsys, "extend_map", "pathspace.extend_map"),
    (ditop.cli, "homology", "algtop.homology"),
    (ditop.cli, "pi0", "algtop.pi0"),
    (ditop.values, "homology", "algtop.homology"),
    (ditop.values, "homology_basis", "algtop.homology_basis"),
    (ditop.values.Valuation, "value", "values.value"),
    (ditop.values.Valuation, "map", "values.map"),
    (ditop.bisim, "iso_candidates", "values.iso_candidates"),
    (ditop.cli, "natural_system", "natsys.natural_system"),
    (ditop.natsys.FactCat, "targets_from", "natsys.targets_from"),
    (ditop.cli, "bisimilar", "bisim.bisimilar"),
    (ditop.bisim, "verify_bisimulation", "bisim.verify_bisimulation"),
    (ditop.bisim.BisimResult, "report", "cli.report"),
    (ditop.cli, "diagram_export", "cli.report"),
    (ditop.cli, "_homology_lines", "cli.report"),
    (ditop.cli, "_emit", "cli.report"),
)
OP_SPAN = "cli.main"

# Which spans' self time each per-layer timing metric sums.
TIMINGS = {
    "bisim.verify_s": ("bisim.verify_bisimulation",),
    "bisim.fixpoint_s": ("bisim.bisimilar",),
    "algtop.self_s": ("algtop.homology", "algtop.homology_basis", "algtop.pi0"),
    "pathspace.self_s": (
        "pathspace.path_complex",
        "pathspace.trace_space",
        "pathspace.extend_map",
    ),
    "values.self_s": ("values.value", "values.map", "values.iso_candidates"),
    "natsys.self_s": ("natsys.natural_system", "natsys.targets_from"),
    "natsys.index_s": ("natsys.targets_from",),
    "gcomplex.self_s": ("gcomplex.parse_gcx", "gcomplex.validate"),
    "cli.report_s": ("cli.report",),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._op_id = -1
        self._undo: list = []
        self.t0 = perf_counter()
        # objects returned during the current op, for the size counters
        self.complexes: dict[int, object] = {}  # id -> PathComplex
        self.homology_of: dict[int, object] = {}  # id -> PathComplex
        self.diagrams: list = []
        self.bisim_frames: list = []
        self.seeded = 0

    # -- spans -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self._stack.append(i)
        return i

    def _close(self, i: int):
        self.end[i] = perf_counter()
        self._stack.pop()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._id(name)
        capture = self._capture_for(name)

        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
                if capture is not None:
                    capture(args, result)
            finally:
                self._close(i)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, fn):
        """Call fn() as op `op_id` under the root span."""
        self._op_id = op_id
        i = self._open(self._id(OP_SPAN))
        try:
            return fn()
        finally:
            self._close(i)

    # -- install ---------------------------------------------------------

    def install(self):
        for owner, attr, name in WRAPPED:
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- counters --------------------------------------------------------

    def _capture_for(self, name: str):
        if name == "pathspace.path_complex":
            return lambda args, p: self.complexes.setdefault(id(p), p)
        if name == "pathspace.trace_space":
            return lambda args, ts: self.complexes.setdefault(id(ts.base), ts.base)
        if name.startswith("algtop."):
            return lambda args, _: self.homology_of.setdefault(id(args[0]), args[0])
        if name == "natsys.natural_system":
            return lambda args, d: self.diagrams.append(d)
        if name == "values.iso_candidates":
            return self._count_candidates
        return None

    def _count_candidates(self, args, result):
        self.seeded += len(result[0])
        caller = sys._getframe(2)
        if caller.f_code.co_name == "bisimilar" and not any(
            f is caller for f in self.bisim_frames
        ):
            self.bisim_frames.append(caller)

    def take_counts(self) -> dict[str, float]:
        """Size counters of the op just run; clears what it captured."""
        c = defaultdict(float)
        for p in self.complexes.values():
            c["pathspace.routes"] += p.n_cubes(0)
            c["pathspace.cubes"] += sum(len(level) for level in p.cubes)
            c["pathspace.top_dim"] = max(c["pathspace.top_dim"], p.dimension)
        for p in self.homology_of.values():
            ranks = [len(level) for level in p.cubes]
            c["algtop.boundary_cells"] += sum(ranks)
            c["algtop.boundary_nnz"] += boundary_nnz(p)
            c["algtop.max_rank"] = max([c["algtop.max_rank"], *ranks])
        for d in self.diagrams:
            c["natsys.objects"] += len(d.index.objects)
            c["natsys.gen_maps"] += sum(1 for _ in d.index.generators())
            c["natsys.hom_pairs"] += len(d.maps)
        c["bisim.seeded"] += self.seeded
        # bisimilar returns its surviving triples only with a yes verdict;
        # the fixpoint's final `alive` set is read from its finished frame.
        for frame in self.bisim_frames:
            c["bisim.surviving"] += len(frame.f_locals.get("alive", ()))
        self.complexes.clear()
        self.homology_of.clear()
        self.diagrams.clear()
        self.bisim_frames.clear()
        self.seeded = 0
        return c

    # -- results ---------------------------------------------------------

    def self_times(self, ops: set[int]) -> dict[str, float]:
        """Self time per span name over the given ops."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(len(self.start)):
            if self.op[i] in ops:
                name = self.names[self.name[i]]
                out[name] += self.end[i] - self.start[i] - child[i]
        return out

    def span_counts(self, ops: set[int]) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for i in range(len(self.start)):
            if self.op[i] in ops:
                out[self.names[self.name[i]]] += 1
        return out

    def write(self, path, meta: dict):
        """All spans as columns; times in microseconds from tracer start."""
        to_us = lambda t: round((t - self.t0) * 1e6)
        doc = dict(meta)
        doc["names"] = self.names
        doc["columns"] = {
            "name": list(self.name),
            "start_us": [to_us(t) for t in self.start],
            "end_us": [to_us(t) for t in self.end],
            "parent": list(self.parent),
            "op": list(self.op),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def boundary_nnz(p) -> int:
    """Nonzero entries of all boundary matrices of a path complex."""
    nnz = 0
    for k in range(1, p.dimension + 1):
        for row in p.faces(k):
            coeff: dict[int, int] = defaultdict(int)
            for j, (i0, i1) in enumerate(row, start=1):
                sign = -1 if j % 2 else 1
                coeff[i0] += sign
                coeff[i1] -= sign
            nnz += sum(1 for v in coeff.values() if v)
    return nnz
