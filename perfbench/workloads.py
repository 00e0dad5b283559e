"""The four workloads: which `ditop` commands run, on which inputs.

A workload is one round of variants.  A variant is one `ditop` command
with its input complexes and a seed-independent key under which its
answer digest is pinned.  A run repeats the round until its time is up;
round k of a run with seed s writes every name in its inputs with the
prefix ``r<s>p<k>_``.  So a run never repeats an input, the seed gives
different files, and every round does the same work: the mix of ops is
the same whatever number of rounds fits in a run.  (Drawing different
variants per seed or per round would make the mix, and so every metric,
depend on the seed and on how fast the machine was in that run.)
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import count

from gridgen import Gcx, grid, parse, single_step_splits

VALUATIONS = ("pi0", "hom:1")


@dataclass(frozen=True)
class Variant:
    key: str  # names the pinned digest; independent of the seed
    kind: str  # sweep | refute | paths | natsys
    files: tuple[tuple[str, Gcx], ...]  # (file stem = complex name, complex)
    args: tuple[str, ...]  # the ditop argv; a file stem stands for its path
    name_args: tuple[int, ...] = ()  # positions in args that name states
    holed: Gcx | None = None  # refute: the side with the hole
    filled: Gcx | None = None  # refute: the side without it

    def gcx(self, stem: str) -> Gcx:
        return dict(self.files)[stem]


@dataclass(frozen=True)
class Workload:
    name: str
    round: tuple[Variant, ...]
    # op_s.tail is the mean of the ops above this percentile: the highest
    # multiple of 5 that leaves about ten ops above it in an 18 s run at
    # the seed commit.  It is fixed, so that the share the tail covers does
    # not change with the number of rounds that fit in a run.
    tail_pct: int


@dataclass(frozen=True)
class Op:
    index: int
    variant: Variant
    prefix: str  # prepended to every name in the input files


def rounds(workload: Workload, seed: int):
    """The rounds of ops of one run; no two ops share an input."""
    n = len(workload.round)
    for k in count():
        prefix = f"r{abs(seed)}p{k}_"
        yield [Op(k * n + i, v, prefix) for i, v in enumerate(workload.round)]


def _fixture(name: str) -> Gcx:
    return parse(resources.files("ditop.fixtures").joinpath(f"{name}.gcx").read_text())


# Of the seven fixtures of acceptance criterion 4, the sweep takes every
# single-step split of the two where an op takes 0.1-0.3 s, certificate
# verification half or more of it.  FIX-A, FIX-B and FIX-TWOCELLS (1-2.5 s
# an op) would leave a 20 s run under 20 ops, too few for a tail
# percentile; FIX-EDGE and FIX-LOOPCELL (0.01 s) measure little but
# start-up, and mixed in, they would split op times into clusters whose
# quantiles jump between them from run to run.
SWEEP_FIXTURES = ("FIX-HOLLOW", "FIX-SQUARE")


def subdiv_sweep() -> Workload:
    """bisim X split(X) over single-step splits, both valuations."""
    variants = []
    for name in SWEEP_FIXTURES:
        x = _fixture(name)
        variants += [
            Variant(
                f"{name}|{split}|{val}",
                "sweep",
                (("X", x), ("Y", y)),
                ("bisim", "X", "Y", "--val", val),
            )
            for split, y in single_step_splits(x)
            for val in VALUATIONS
        ]
    return Workload("subdiv-sweep", tuple(variants), tail_pct=90)


def _grid_spec(spec: str) -> tuple[int, int, tuple]:
    """'4x4:0_1+2_2' -> (4, 4, ((0, 1), (2, 2))): rows, columns, holes."""
    shape, holes = spec.split(":")
    n, m = map(int, shape.split("x"))
    return n, m, tuple(tuple(map(int, h.split("_"))) for h in holes.split("+"))


def bisim_refute() -> Workload:
    """bisim of a 1x2 (or 2x1) grid with one hole against it filled."""
    variants = []
    for spec, holed_side, val in (
        ("1x2:0_0", "A", "pi0"),
        ("1x2:0_1", "B", "hom:1"),
        ("2x1:1_0", "A", "hom:1"),
        ("2x1:0_0", "B", "pi0"),
    ):
        n, m, holes = _grid_spec(spec)
        holed, filled = grid(n, m, holes), grid(n, m)
        files = (("A", holed), ("B", filled))
        if holed_side == "B":
            files = (("A", filled), ("B", holed))
        variants.append(
            Variant(
                f"{spec}|holed={holed_side}|{val}",
                "refute",
                files,
                ("bisim", "A", "B", "--val", val),
                holed=holed,
                filled=filled,
            )
        )
    return Workload("bisim-refute", tuple(variants), tail_pct=55)


# Two grids of each kind: 4x4 and 3x6 (or 6x3), with one hole or two;
# here `paths` takes 0.3 to 1 s.
ROUTE_GRIDS = (
    "4x4:1_1",
    "4x4:0_2",
    "3x6:1_2",
    "6x3:4_1",
    "4x4:0_1+2_2",
    "4x4:0_3+3_1",
    "3x6:0_4+2_1",
    "6x3:1_0+4_2",
)


def route_homology() -> Workload:
    """paths from corner to corner of grids with holes."""
    variants = []
    for spec in ROUTE_GRIDS:
        n, m, holes = _grid_spec(spec)
        variants.append(
            Variant(
                spec,
                "paths",
                (("G", grid(n, m, holes)),),
                ("paths", "G", "s0_0", f"s{n}_{m}"),
                name_args=(2, 3),
            )
        )
    return Workload("route-homology", tuple(variants), tail_pct=70)


def natsys_export() -> Workload:
    """natsys of 2x3 (or 3x2) grids with one hole, both valuations.

    Two pi0 ops (about 0.33 s at reference speed) and four hom:1 ops
    (0.44-0.48 s): with as many of each, the median op would fall in the
    gap between the two sizes and jump across it from run to run.
    """
    variants = []
    for spec, val in (
        ("2x3:0_1", "pi0"),
        ("3x2:1_0", "hom:1"),
        ("2x3:1_2", "hom:1"),
        ("3x2:2_1", "pi0"),
        ("2x3:0_2", "hom:1"),
        ("3x2:1_1", "hom:1"),
    ):
        n, m, holes = _grid_spec(spec)
        variants.append(
            Variant(
                f"{spec}|{val}",
                "natsys",
                (("G", grid(n, m, holes)),),
                ("natsys", "G", "--val", val),
            )
        )
    return Workload("natsys-export", tuple(variants), tail_pct=75)


WORKLOADS = {
    "subdiv-sweep": subdiv_sweep,
    "bisim-refute": bisim_refute,
    "route-homology": route_homology,
    "natsys-export": natsys_export,
}
