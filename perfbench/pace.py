"""A fixed reference kernel that measures how fast the machine runs Python.

On a shared host the same pure-Python code runs 20-50% faster or slower
from one minute to the next, whatever program it is.  The benchmark runs
`kernel` between ops, outside their timed region, for about a tenth of
the time of the op before it, and reports every time at reference
speed: the measured time times REFERENCE_S over the kernel's time next
to it.  The kernel is the benchmark's own code, so no
change to the program can make it faster or slower; it does the kind of
work ditop does (tuple-keyed dicts and sets, graph search, integer row
reduction, sorting), on a working set of a few hundred kilobytes.
"""

from __future__ import annotations

from time import perf_counter

# The kernel's median time on the machine the baseline was taken on
# (perfbench/BASELINE.md); it only sets the scale of the reported times.
REFERENCE_S = 0.020
ROUNDS = 16  # of the work per kernel run, about 20 ms


def _work(n: int = 24) -> int:
    # a grid graph on tuple-keyed states, its components by search
    edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(n):
            out = edges.setdefault((i, j), [])
            if i + 1 < n and (i + j) % 7:
                out.append((i + 1, j))
            if j + 1 < n and (i * j) % 5:
                out.append((i, j + 1))
    seen: set[tuple[int, int]] = set()
    parts = 0
    for start in sorted(edges, reverse=True):
        if start in seen:
            continue
        parts += 1
        stack = [start]
        while stack:
            s = stack.pop()
            if s not in seen:
                seen.add(s)
                stack.extend(edges[s])
    # integer row reduction of a banded matrix, as in a boundary matrix
    rows = [[(r * 31 + c * 17) % 5 - 2 if abs(r - c) < 4 else 0 for c in range(n)] for r in range(n)]
    rank = 0
    for c in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][c]
        for r in range(rank + 1, n):
            f = rows[r][c]
            if f:
                rows[r] = [(p * a - f * b) % 10007 for a, b in zip(rows[r], rows[rank])]
        rank += 1
    labels = sorted(frozenset((k, len(v)) for k, v in edges.items()), key=repr)
    return parts + rank + len(labels)


def kernel(near_s: float = 0.0) -> float:
    """Mean wall time of one kernel run, over enough runs to take about a
    tenth of `near_s`, the time of the op next to it (at least one run)."""
    repeats = max(1, round(0.1 * near_s / REFERENCE_S))
    t0 = perf_counter()
    for _ in range(repeats * ROUNDS):
        _work()
    return (perf_counter() - t0) / repeats
