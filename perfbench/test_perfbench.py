"""Tests of the benchmark's input generator and its oracles.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from ditop import fixtures
from ditop.algtop import pi0
from ditop.gcomplex import (
    format_gcx,
    is_loop_free,
    parse_gcx,
    subdivide_2cell,
    subdivide_edge,
    validate,
)
from ditop.natsys import trace_category
from ditop.pathspace import path_complex

import json

from answers import count_chains, route_components
from gridgen import grid, parse, single_step_splits, split_cell, split_edge
from pace import REFERENCE_S, _work
from run import HERE, Inputs, at_reference, tail
from workloads import WORKLOADS, rounds


BUILT = {name: build() for name, build in WORKLOADS.items()}
CRITERION_4_FIXTURES = (
    "FIX-EDGE",
    "FIX-HOLLOW",
    "FIX-SQUARE",
    "FIX-A",
    "FIX-B",
    "FIX-TWOCELLS",
    "FIX-LOOPCELL",
)


def _ops(workload, seed, n):
    """The ops of the first n rounds."""
    stream = rounds(BUILT[workload], seed)
    return [op for _ in range(n) for op in next(stream)]


@pytest.mark.parametrize("workload", sorted(BUILT))
def test_every_input_is_valid_and_loop_free(workload):
    for op in _ops(workload, 7, 2):
        for stem, g in op.variant.files:
            x = parse_gcx(g.text(op.prefix), stem)
            assert validate(x).ok, (op.variant.key, str(validate(x)))
            assert is_loop_free(x), op.variant.key


@pytest.mark.parametrize("workload", sorted(BUILT))
def test_one_seed_gives_identical_files(workload, tmp_path):
    def files(seed, where):
        inputs = Inputs(tmp_path / where)
        for op in _ops(workload, seed, 3):
            inputs.argv(op)
        written = inputs.base.rglob("*.gcx")
        return {p.relative_to(inputs.base): p.read_bytes() for p in written}

    first, other = files(3, "a"), files(4, "c")
    assert first and first == files(3, "b")
    assert other.keys() == first.keys() and other != first


def test_a_run_never_repeats_an_input():
    for workload in BUILT:
        seen = set()
        for op in _ops(workload, 11, 3):
            texts = tuple(g.text(op.prefix) for _, g in op.variant.files)
            given = (op.variant.args, texts)
            assert given not in seen, (workload, op.index)
            seen.add(given)


def test_splits_match_ditop_subdivide():
    sources = [(name, fixtures.load(name)) for name in CRITERION_4_FIXTURES]
    sources.append(("grid", parse_gcx(grid(2, 2, [(0, 1)]).text(), "grid")))
    for name, x in sources:
        g = parse(format_gcx(x))
        assert g.text() == format_gcx(x), name
        for e in x.edges:
            assert split_edge(g, e).text() == format_gcx(subdivide_edge(x, e)[0])
        for c in x.cells2:
            assert split_cell(g, c).text() == format_gcx(subdivide_2cell(x, c, 1)[0])


def test_sweep_is_from_criterion_4():
    keys = {v.key for v in BUILT["subdiv-sweep"].round}
    assert len(keys) == len(BUILT["subdiv-sweep"].round)
    criterion_4 = {
        f"{name}|{split}|{val}"
        for name in CRITERION_4_FIXTURES
        for split, _ in single_step_splits(parse(format_gcx(fixtures.load(name))))
        for val in ("pi0", "hom:1")
    }
    assert keys <= criterion_4 and len(criterion_4) == 56


def test_oracles_agree_with_ditop():
    for holes in ([], [(0, 0)], [(1, 1)], [(0, 1), (1, 0)]):
        g = grid(2, 3, holes)
        x = parse_gcx(g.text(), "G")
        assert count_chains(g) == len(trace_category(x).chains)
        for a, b in (("s0_0", "s2_3"), ("s0_1", "s2_2"), ("s1_0", "s2_3")):
            assert route_components(g, a, b) == pi0(path_complex(x, a, b)).n_classes


def test_every_variant_has_a_pinned_digest():
    pinned = json.loads((HERE / "pinned.json").read_text())
    for name, w in BUILT.items():
        assert {v.key for v in w.round} == set(pinned[name]), name


def test_tail_is_the_mean_of_the_slowest_share():
    assert tail([float(t) for t in range(1, 11)], 70) == pytest.approx(9.0)
    # 1.8 ops above p55 of four: the slowest whole, then 0.8 of the next
    assert tail([1.0, 1.0, 1.0, 2.0], 55) == pytest.approx((2.0 + 0.8) / 1.8)


def test_reference_speed_scaling():
    assert at_reference(0.5, REFERENCE_S, REFERENCE_S) == pytest.approx(0.5)
    # a machine at half speed runs the kernel in twice the time
    assert at_reference(1.0, 1.5 * REFERENCE_S, 2.5 * REFERENCE_S) == pytest.approx(0.5)


def test_the_kernel_does_fixed_work():
    assert _work() == _work()
