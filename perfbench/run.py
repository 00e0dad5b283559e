"""Benchmark of the ditop command line, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one process and thread, closed loop: each op is one
`ditop.cli.main` call on GCX files this script generated, made back to
back (`--jobs 1`, the CLI default).  Ops run in rounds, each the
workload's variants under fresh names, whole rounds until the ops'
summed wall time reaches S seconds; every answer is checked after its
op, outside the timed region.  The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

Every reported time is at reference speed (`pace.py`): after each op,
outside its timed region, a fixed pure-Python kernel runs for about a
tenth of the op's time, and the op's
wall time is scaled by the reference time of that kernel over the mean
of its runs on either side of the op.  On a shared host the speed of the
same code swings by 20-50% between minutes; the scaled times keep what
the program does and drop most of that swing.  The wall times are
printed too.

The traced run follows each untraced op with the same variant under
fresh names (so no input repeats) with span wrappers installed; the
per-layer numbers come from the traced ops, and `trace.overhead_ratio`
is their time over that of the untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from pace import REFERENCE_S, kernel
from workloads import WORKLOADS, rounds

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9  # set-ups timed per run; setup_s is their median
SETUP_BATCH = 64  # ops whose inputs set-up writes; later ones are written between ops
OP_LIMIT_S = 30.0  # an op slower than this counts as failed

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "bisim.verify_s": "s/op",
    "bisim.verify_calls": "count/op",
    "bisim.fixpoint_s": "s/op",
    "bisim.seeded": "count/op",
    "bisim.surviving": "count/op",
    "bisim.survival_ratio": "ratio",
    "algtop.self_s": "s/op",
    "algtop.boundary_nnz": "count/op",
    "algtop.boundary_cells": "count/op",
    "algtop.max_rank": "count",
    "pathspace.self_s": "s/op",
    "pathspace.routes": "count/op",
    "pathspace.cubes": "count/op",
    "pathspace.top_dim": "count",
    "values.self_s": "s/op",
    "values.map_calls": "count/op",
    "values.iso_candidates": "count/op",
    "natsys.self_s": "s/op",
    "natsys.index_s": "s/op",
    "natsys.objects": "count/op",
    "natsys.gen_maps": "count/op",
    "natsys.hom_pairs": "count/op",
    "natsys.trace_pairs": "count/op",
    "gcomplex.self_s": "s/op",
    "cli.report_s": "s/op",
    "cli.stdout_bytes": "count/op",
    "trace.overhead_ratio": "ratio",
}
# size counters read after each op: the mean per op, or the largest over the run
MEAN_COUNTERS = (
    "bisim.seeded",
    "bisim.surviving",
    "algtop.boundary_nnz",
    "algtop.boundary_cells",
    "pathspace.routes",
    "pathspace.cubes",
    "natsys.objects",
    "natsys.gen_maps",
    "natsys.hom_pairs",
)
MAX_COUNTERS = ("algtop.max_rank", "pathspace.top_dim")
# counters that are numbers of spans of one name per op
SPAN_COUNTERS = {
    "bisim.verify_calls": "bisim.verify_bisimulation",
    "values.map_calls": "values.map",
    "values.iso_candidates": "values.iso_candidates",
    "natsys.trace_pairs": "pathspace.trace_space",
}


def load_program():
    """Import ditop from ./src of the checkout, and nowhere else."""
    src = ROOT / "src"
    if not (src / "ditop" / "cli.py").is_file():
        sys.exit("perfbench: no ditop sources in ./src; run from the repository root")
    sys.path.insert(0, str(src))
    import ditop.cli

    if Path(ditop.cli.__file__).resolve().parent != (src / "ditop").resolve():
        sys.exit(f"perfbench: imported ditop from {ditop.cli.__file__}, not ./src")
    return ditop.cli


class Inputs:
    """Writes each op's GCX files under its own directory."""

    def __init__(self, base: Path):
        shutil.rmtree(base, ignore_errors=True)
        self.base = base

    def argv(self, op) -> list[str]:
        d = self.base / f"op{op.index}"
        if not d.exists():
            d.mkdir(parents=True)
            for stem, g in op.variant.files:
                (d / f"{stem}.gcx").write_text(g.text(op.prefix))
        stems = dict(op.variant.files)
        return [
            str(d / f"{a}.gcx")
            if a in stems
            else op.prefix + a
            if k in op.variant.name_args
            else a
            for k, a in enumerate(op.variant.args)
        ]


def set_up(workload: str, seed: int, base: Path):
    """Import the program, build the workload and write its first inputs."""
    cli = load_program()
    w = WORKLOADS[workload]()
    inputs = Inputs(base)
    stream = rounds(w, seed)
    first = []
    while sum(map(len, first)) < SETUP_BATCH:
        first.append([(op, inputs.argv(op)) for op in next(stream)])
    return cli, w, _chain(first, stream, inputs), inputs


def _chain(first, rest, inputs):
    """Rounds of (op, argv), writing the input files of later rounds."""
    yield from first
    for ops in rest:
        yield [(op, inputs.argv(op)) for op in ops]


def at_reference(seconds: float, pace_before: float, pace_after: float) -> float:
    """A wall time scaled to reference speed by the kernel runs around it."""
    return seconds * REFERENCE_S * 2 / (pace_before + pace_after)


def time_setups(workload: str, seed: int) -> float:
    """The median wall time of fresh processes that only do the set-up."""
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, __file__, "--setup-only", str(k)]
        cmd += ["--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=ROOT)
        # a blocking wait: Popen.wait(timeout) polls and rounds up to 50 ms
        watchdog = threading.Timer(120, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code:
            sys.exit(f"perfbench: set-up process exited with {code}")
    return statistics.median(times)


@dataclass
class Result:
    op: object
    seconds: float  # wall time
    problems: list[str]
    stdout_bytes: int
    pace: float  # the kernel's mean time in the runs right after the op
    scaled: float = 0.0  # `seconds` at reference speed


def run_one(cli, op, argv, checker, call=None) -> Result:
    """One op: the timed `ditop` call, then its answer check."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = call(lambda: cli.main(argv)) if call else cli.main(argv)
        except (Exception, SystemExit):  # a failed op, not the end of the run
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    text = out.getvalue()
    problems = checker.check(op, code, text, err.getvalue())
    if seconds > OP_LIMIT_S:
        problems.append(f"took {seconds:.1f} s, over the {OP_LIMIT_S:.0f} s limit")
    gc.collect()
    return Result(op, seconds, problems, len(text.encode()), kernel(seconds))


def scale(results: list[Result], first_pace: float) -> None:
    """Scale each op to reference speed by the kernel runs on either side."""
    before = first_pace
    for r in results:
        r.scaled = at_reference(r.seconds, before, r.pace)
        before = r.pace


def run_for(seconds, stream, cli, checker) -> list[Result]:
    """Whole rounds until the ops' summed wall time reaches `seconds`."""
    gc.collect()
    first_pace = kernel()
    results, busy = [], 0.0
    while busy < seconds:
        for op, argv in next(stream):
            results.append(run_one(cli, op, argv, checker))
            busy += results[-1].seconds
    scale(results, first_pace)
    return results


def tail(times: list[float], pct: int) -> float:
    """The mean time of the slowest (100 - pct)% of the ops, the last of
    them weighted by the fraction of it that falls in that share.  A
    quantile alone would jump between the few op sizes of a round."""
    ordered = sorted(times, reverse=True)
    share = len(ordered) * (100 - pct) / 100
    whole = int(share)
    total = sum(ordered[:whole]) + (share - whole) * ordered[min(whole, len(ordered) - 1)]
    print(f"op_s.tail is the mean of the ops above p{pct}: {share:.4g} of {len(ordered)}")
    return total / share


def end_to_end(results, setup_wall, tail_pct) -> dict[str, float]:
    """The end-to-end metrics, every time at reference speed.  Set-up runs
    in other processes, so it is scaled by the run's median kernel time."""
    times = [r.scaled for r in results]
    pace = statistics.median(r.pace for r in results)
    return {
        "setup_s": setup_wall * REFERENCE_S / pace,
        "ops_per_s": len(times) / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail(times, tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(args, cli, stream, inputs, checker):
    """Each op untraced, then again under fresh names with spans on."""
    from spans import Tracer

    tracer = Tracer()
    plain, traced, counts = [], [], []
    gc.collect()
    first_pace = kernel()
    busy = 0.0
    while busy < args.seconds:
        for op, argv in next(stream):
            plain.append(run_one(cli, op, argv, checker))
            fresh = op.prefix.replace("p", "t", 1)
            again = type(op)(op.index + 10**6, op.variant, fresh)
            call = lambda fn: tracer.run_op(again.index, fn)
            tracer.install()
            try:
                traced.append(run_one(cli, again, inputs.argv(again), checker, call))
            finally:
                tracer.uninstall()
            counts.append(tracer.take_counts())
            busy += plain[-1].seconds + traced[-1].seconds
    scale([r for pair in zip(plain, traced) for r in pair], first_pace)
    # one factor for the spans and the traced wall time, so shares add up
    factor = REFERENCE_S / statistics.median(r.pace for r in plain + traced)
    metrics, self_s = layer_metrics(tracer, plain, traced, counts, factor)
    layer_table(self_s, metrics, factor * sum(r.seconds for r in traced), len(traced))
    WORK.mkdir(exist_ok=True)
    out = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(out, {"workload": args.workload, "seed": args.seed, "ops": len(traced)})
    print(f"spans: {len(tracer.start)} written to {out.relative_to(ROOT)}")
    return plain + traced, metrics


def layer_metrics(tracer, plain, traced, counts, factor):
    """The per-layer metrics of the traced ops, and self time per span name,
    times scaled to reference speed by `factor`."""
    from spans import TIMINGS

    n = len(traced)
    op_ids = {r.op.index for r in traced}
    self_s = {name: s * factor for name, s in tracer.self_times(op_ids).items()}
    spans = tracer.span_counts(op_ids)
    total = lambda name: sum(c.get(name, 0.0) for c in counts)
    m = {name: sum(self_s.get(s, 0.0) for s in parts) / n for name, parts in TIMINGS.items()}
    m.update({name: spans[span] / n for name, span in SPAN_COUNTERS.items()})
    m.update({name: total(name) / n for name in MEAN_COUNTERS})
    m.update({name: max(c.get(name, 0.0) for c in counts) for name in MAX_COUNTERS})
    m["cli.stdout_bytes"] = sum(r.stdout_bytes for r in traced) / n
    seeded = total("bisim.seeded")
    m["bisim.survival_ratio"] = total("bisim.surviving") / seeded if seeded else 0.0
    m["trace.overhead_ratio"] = sum(r.scaled for r in traced) / sum(
        r.scaled for r in plain
    )
    return m, self_s


def layer_table(self_s, metrics, wall, n):
    """Print each layer's share of the traced wall time, and the largest timing."""
    from spans import TIMINGS

    layers: dict[str, float] = {}
    for name, s in self_s.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + s
    print(f"traced ops: {n}, {wall:.3f} s at reference speed; self time by layer:")
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:10s} {s / n:9.4f} s/op  {100 * s / wall:5.1f}%")
    print(f"dominant layer: {max(layers, key=layers.get)}")
    # natsys.index_s is a part of natsys.self_s, not a rival to it
    top = max((m for m in TIMINGS if m != "natsys.index_s"), key=metrics.get)
    share = 100 * metrics[top] * n / wall
    print(f"largest timing: {top} = {share:.1f}% of traced op time")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="K", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only is not None:
        where = WORK / f"setup-{args.workload}-{args.setup_only}"
        set_up(args.workload, args.seed, where)
        return 0

    from answers import Checker  # networkx is slow to import; set-up does not need it

    cli, w, stream, inputs = set_up(args.workload, args.seed, WORK / args.workload)
    checker = Checker(json.loads((HERE / "pinned.json").read_text())[w.name])
    if args.trace:
        results, metrics = traced_run(args, cli, stream, inputs, checker)
        units = PER_LAYER_UNITS
    else:
        setup_wall = time_setups(args.workload, args.seed)
        results = run_for(args.seconds, stream, cli, checker)
        metrics = end_to_end(results, setup_wall, w.tail_pct)
        units = END_TO_END_UNITS
        wall = [r.seconds for r in results]
        print(
            f"wall time: setup_s = {setup_wall:.4g} s, "
            f"ops_per_s = {len(wall) / sum(wall):.4g} 1/s, "
            f"op_s.p50 = {statistics.median(wall):.4g} s; the kernel took "
            f"{1000 * statistics.median(r.pace for r in results):.4g} ms, "
            f"{1000 * REFERENCE_S:.4g} ms at reference speed"
        )
        WORK.mkdir(exist_ok=True)
        ops = [[r.op.index, r.op.variant.key, r.seconds, r.scaled, r.pace] for r in results]
        (WORK / f"ops-{args.workload}-seed{args.seed}.json").write_text(json.dumps(ops))
    failed = [r for r in results if r.problems]
    for r in failed[:10]:
        print(f"FAILED op {r.op.index} {r.op.variant.key}: {'; '.join(r.problems)}")
    n = len(results)
    print(f"fail_ratio = {len(failed)}/{n} = {len(failed) / n:.4f}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
