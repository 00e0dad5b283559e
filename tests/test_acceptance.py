"""Acceptance suite: one test per criterion, each printing a verdict line.

Where a criterion is an end-to-end requirement, the check drives the CLI
entry point and asserts output text and exit codes; pure library
criteria run against seeded random data with exact (zero-tolerance)
comparisons throughout.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from ditop import fixtures
from ditop.algtop import FgAbGroup, homology, mat_mul, smith_normal_form
from ditop.bisim import bisimilar, span_to_bisimulation, verify_bisimulation
from ditop.cli import main
from ditop.gcomplex import format_gcx, subdivide_2cell, subdivide_edge
from ditop.natsys import natural_system, nt_value_of_path, refinement_span
from ditop.pathspace import PathComplex, discrete_trace, naturalize, path_complex, point_cell
from ditop.reparam import (
    MoorePathPL,
    is_regular,
    moore_compose,
    mu,
    renormalize,
    tensor_reparams,
    word_path,
    word_reparam,
)
from ditop.values import Valuation

from helpers import (
    child_env,
    rand_monotone,
    rand_moore,
    rand_moore_from,
    random_directed_path,
)
from test_reparam import _rand_word

F = Fraction
PI0 = Valuation("pi0")
HOM1 = Valuation("hom", 1)

ALL_FIXTURES = (
    "FIX-EDGE",
    "FIX-HOLLOW",
    "FIX-SQUARE",
    "FIX-A",
    "FIX-B",
    "FIX-TWOCELLS",
    "FIX-LOOPCELL",
)


def announce(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def run_cli(*argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_crush_not_open(capsys):
    """Collapse map of the filled complex is not open: witness [c2]."""
    start = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "ditop.cli",
            "check-open",
            "crush.cmap",
            "FIX-A",
            "FIX-B",
            "--val",
            "pi0",
        ],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    elapsed = time.monotonic() - start
    lines = proc.stdout.splitlines()
    ok = (
        proc.returncode == 1
        and lines[0] == "NOT OPEN"
        and "witness [c2]" in lines[1]
        and "1 component" in lines[1]
        and "2 components" in lines[1]
        and elapsed < 1.0
    )
    announce("criterion-1", ok, f"exit={proc.returncode} time={elapsed:.2f}s")


def test_criterion_2_fig_values(capsys):
    """Value at [c2] has 1 component; at [d1,v1,d2,v2,d3] exactly 2."""
    da = natural_system(fixtures.load("FIX-A"), PI0)
    db = natural_system(fixtures.load("FIX-B"), PI0)
    v_a = da.values[("c2",)].components
    v_b = db.values[("d1", "v1", "d2", "v2", "d3")].components
    code_a, out_a = run_cli("natsys", "FIX-A", capsys=capsys)
    code_b, out_b = run_cli("natsys", "FIX-B", capsys=capsys)
    ok = (
        v_a == 1
        and v_b == 2
        and code_a == 0
        and code_b == 0
        and "value [c2] : 1 component" in out_a
        and "value [d1,v1,d2,v2,d3] : 2 components" in out_b
    )
    announce("criterion-2", ok, f"[c2]={v_a} [d1,v1,d2,v2,d3]={v_b}")


def test_criterion_3_comparison_open(capsys):
    """The comparison map onto the discrete system is open everywhere."""
    bad = []
    for name in ALL_FIXTURES:
        code, out = run_cli("check-open", "--comparison", name, capsys=capsys)
        if code != 0 or out.strip() != "OPEN":
            bad.append(name)
    announce("criterion-3", not bad, f"fixtures={len(ALL_FIXTURES)} failing={bad}")


def _single_step_subdivisions(x):
    for e in x.edges:
        yield f"edge:{e}", subdivide_edge(x, e)
    for c in x.cells2:
        yield f"chord:{c}", subdivide_2cell(x, c, 1)


def test_criterion_4_subdivision_bisimilar(tmp_path, capsys):
    """Every single-step split stays bisimilar, exactly, both valuations."""
    checked = 0
    for name in ALL_FIXTURES:
        x = fixtures.load(name)
        for key, (y, _ref) in _single_step_subdivisions(x):
            gcx = tmp_path / f"{name}-{key.replace(':', '-')}.gcx"
            gcx.write_text(format_gcx(y))
            for val in ("pi0", "hom:1"):
                code, out = run_cli(
                    "bisim", name, str(gcx), "--val", val, capsys=capsys
                )
                head = out.splitlines()[0]
                assert code == 0, (name, key, val, head)
                assert head == "BISIMILAR yes", (name, key, val, head)
                assert "(incomplete)" not in head, (name, key, val)
                assert "triple " in out, "certificate missing"
                checked += 1
    announce("criterion-4", checked > 0, f"pairs={checked}")


def sampled_paths():
    """The shared sample: 20 seeded random paths per fixture."""
    rng = random.Random(101)
    for name in ALL_FIXTURES:
        x = fixtures.load(name)
        for _ in range(20):
            yield name, x, random_directed_path(rng, x)


def test_criterion_5_path_value_consistency():
    """Both value routes agree on >= 20 sampled paths per fixture."""
    total = 0
    for name, x, gamma in sampled_paths():
        for val in (PI0, HOM1):
            rep = nt_value_of_path(x, gamma, val)
            assert rep.consistent, (name, gamma, val.label)
        total += 1
    announce("criterion-5", total >= 20 * len(ALL_FIXTURES), f"paths={total}")


def test_criterion_6_moore_algebra_laws():
    """Interchange and scaling hold exactly on random instances."""
    start = time.monotonic()
    rng = random.Random(102)
    for _ in range(100):
        n = rng.randint(1, 4)
        gammas, phis = [], []
        prev_end = None
        for _i in range(n):
            ell, ell_p = F(rng.randint(1, 3)), F(rng.randint(1, 3))
            g = (
                rand_moore(rng, ell_p, n_comp=2, n_pts=3)
                if prev_end is None
                else rand_moore_from(rng, prev_end, ell_p, n_pts=3)
            )
            prev_end = g.end()
            gammas.append(g)
            phis.append(rand_monotone(rng, ell, ell_p, n_pts=3))
        big = gammas[0]
        for g in gammas[1:]:
            big = moore_compose(big, g)
        lhs = big.reparam(tensor_reparams(phis))
        rhs = gammas[0].reparam(phis[0])
        for g, f in zip(gammas[1:], phis[1:]):
            rhs = moore_compose(rhs, g.reparam(f))
        assert lhs == rhs
    for _ in range(100):
        n = rng.randint(1, 4)
        ells = [F(rng.randint(1, 4)) for _ in range(n)]
        total = sum(ells)
        ells = [e / total for e in ells]
        ell = F(rng.randint(1, 5), rng.randint(1, 3))
        gammas = []
        prev_end = None
        for _i in range(n):
            g = (
                rand_moore(rng, 1, n_comp=1, n_pts=3)
                if prev_end is None
                else rand_moore_from(rng, prev_end, 1, n_pts=3)
            )
            prev_end = g.end()
            gammas.append(g)
        lhs = gammas[0].reparam(mu(ells[0]))
        for g, e in zip(gammas[1:], ells[1:]):
            lhs = moore_compose(lhs, g.reparam(mu(e)))
        lhs = lhs.reparam(mu(ell))
        rhs = gammas[0].reparam(mu(ells[0] * ell))
        for g, e in zip(gammas[1:], ells[1:]):
            rhs = moore_compose(rhs, g.reparam(mu(e * ell)))
        assert lhs == rhs
    elapsed = time.monotonic() - start
    announce("criterion-6", elapsed < 5.0, f"instances=200 time={elapsed:.2f}s")


def test_criterion_7_renormalize_soundness():
    """Reassembled normal form equals the direct composite exactly."""
    rng = random.Random(103)
    count = 0
    for _ in range(100):
        word = _rand_word(rng, rng.randint(1, 4))
        phi = rand_monotone(rng, 1, 1, n_pts=4, surjective=rng.random() < 0.5)
        word2, clock = renormalize(word, phi)
        direct = word_path(word).reparam(phi)
        reassembled = word_reparam(word2, clock)
        assert direct == reassembled
        bps = {t for c in direct.components for t, _ in c.breakpoints}
        bps |= {t for c in reassembled.components for t, _ in c.breakpoints}
        for t in sorted(bps):
            assert direct(t) == reassembled(t)
        count += 1
    announce("criterion-7", count == 100, f"composites={count}")


def test_criterion_8_discrete_trace_conditions():
    """The defining trace conditions, on the criterion-5 sample."""
    checked = naturalized = 0
    for _name, x, gamma in sampled_paths():
        chain, cuts = discrete_trace(x, gamma)
        _assert_trace_conditions(x, gamma, chain, cuts)
        checked += 1
        if gamma.clock.v_first == 0 and gamma.clock.v_last == gamma.n:
            natgl, phi = naturalize(x, gamma)
            assert is_regular(MoorePathPL(1, [natgl.clock]))
            assert phi == gamma.clock
            naturalized += 1
    announce(
        "criterion-8", checked >= 140 and naturalized > 0,
        f"paths={checked} naturalized={naturalized}",
    )


def _assert_trace_conditions(x, gamma, chain, cuts):
    m = len(chain)
    assert cuts[0] == 0 and cuts[-1] == 1 and len(cuts) == m + 1
    assert all(a <= b for a, b in zip(cuts, cuts[1:]))
    assert all(a != b for a, b in zip(chain, chain[1:]))
    assert point_cell(x, gamma, 0) == chain[0]
    assert point_cell(x, gamma, 1) == chain[-1]
    for i in range(m):
        a, b = cuts[i], cuts[i + 1]
        cell = chain[i]
        closure = {cell}
        if x.dim(cell) >= 1:
            closure |= {x.src(cell), x.tgt(cell)}
        probes = {a, b} | {t for t, _ in gamma.clock.breakpoints if a < t < b}
        if a != b:
            probes.add((a + b) / 2)
        ordered = sorted(probes)
        probes |= {(p + q) / 2 for p, q in zip(ordered, ordered[1:])}
        for t in probes:
            assert point_cell(x, gamma, t) in closure
            if a < t < b:
                assert point_cell(x, gamma, t) == cell
    for i in range(1, m):
        assert point_cell(x, gamma, cuts[i]) in (chain[i - 1], chain[i])


def test_criterion_9_homology_engine():
    """Fixture homology, the negative control, and SNF round-trips."""
    start = time.monotonic()
    sq = path_complex(fixtures.load("FIX-SQUARE"), "s00", "s11")
    assert homology(sq, 0) == FgAbGroup(1) and homology(sq, 1) == FgAbGroup(0)
    loop = path_complex(fixtures.load("FIX-LOOPCELL"), "u0", "u1")
    assert homology(loop, 1) == FgAbGroup(1)
    x = fixtures.load("FIX-TWOCELLS")
    two = path_complex(x, "x0", "x2")
    assert homology(two, 0) == FgAbGroup(1) and homology(two, 1) == FgAbGroup(0)
    # negative control: removing the independence square opens a circle
    punctured_words = [w for level in two.cubes for w in level if w != ("s1", "s2")]
    punctured = PathComplex(x, "x0", "x2", punctured_words)
    assert homology(punctured, 1) == FgAbGroup(1)
    rng = random.Random(105)
    for _ in range(200):
        m = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        d, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        diag = [d[i][i] for i in range(6)]
        nonzero = [q for q in diag if q]
        for p, q in zip(nonzero, nonzero[1:]):
            assert q % p == 0
    elapsed = time.monotonic() - start
    announce("criterion-9", elapsed < 5.0, f"time={elapsed:.2f}s")


def test_criterion_10_span_soundness_and_exploration():
    """Open spans verify; the A/B verdict is computed and reported."""
    verified = 0
    for name in ("FIX-EDGE", "FIX-SQUARE", "FIX-LOOPCELL", "FIX-B"):
        x = fixtures.load(name)
        e = next(iter(x.edges))
        y, ref = subdivide_edge(x, e)
        p, q = refinement_span(y, x, ref, PI0)
        bis = span_to_bisimulation(p, q)
        ok, why = verify_bisimulation(bis, p.tgt, q.tgt)
        assert ok, why
        res = bisimilar(p.tgt, q.tgt)
        assert res.verdict == "yes"
        verified += 1
    f = natural_system(fixtures.load("FIX-A"), PI0)
    g = natural_system(fixtures.load("FIX-B"), PI0)
    res = bisimilar(f, g)
    if res.verdict == "yes":
        ok, why = verify_bisimulation(res.bisimulation, f, g)
        assert ok, why
        detail = (
            f"spans={verified} exploratory NTd(FIX-A)~NTd(FIX-B) under pi0: yes "
            f"(exact={res.exact}, certificate triples={len(res.bisimulation.triples)})"
        )
    else:
        assert res.refutation, "refutation trace missing"
        detail = (
            f"spans={verified} exploratory NTd(FIX-A)~NTd(FIX-B) under pi0: "
            f"{res.verdict} (exact={res.exact}, trace lines={len(res.refutation)})"
        )
    announce("criterion-10", True, detail)
