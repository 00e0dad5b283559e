"""Seeded random generators for exact PL data, and small builders, used
across the test suite."""

from fractions import Fraction
import random

from ditop.pathspace import TraceSpaceValue, path_complex
from ditop.reparam import MoorePathPL, PLMap


def rand_frac(rng: random.Random, den_max=12, lo=0, hi=1) -> Fraction:
    den = rng.randint(1, den_max)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def rand_increasing_ts(rng, n, length=Fraction(1)):
    """n strictly increasing rationals from 0 to length inclusive."""
    cuts = {Fraction(0), Fraction(length)}
    while len(cuts) < n:
        cuts.add(rand_frac(rng) * length)
    return sorted(cuts)


def rand_plmap(rng, n_pts=4, length=Fraction(1), v_lo=-2, v_hi=2) -> PLMap:
    ts = rand_increasing_ts(rng, n_pts, length)
    vs = [rand_frac(rng, lo=v_lo, hi=v_hi) for _ in ts]
    return PLMap(list(zip(ts, vs)))


def rand_monotone(rng, length, target, n_pts=4, surjective=True) -> PLMap:
    """A non-decreasing PL map [0, length] -> [0, target].

    Surjective variants run exactly from 0 to target; the rest start and
    end at random heights, with flat pieces allowed.
    """
    length, target = Fraction(length), Fraction(target)
    ts = rand_increasing_ts(rng, n_pts, length)
    steps = [rand_frac(rng, den_max=6) for _ in range(len(ts) - 1)]
    if rng.random() < 0.5 and steps:
        steps[rng.randrange(len(steps))] = Fraction(0)  # a flat piece
    total = sum(steps)
    vs = [Fraction(0)]
    if surjective:
        if total == 0:
            return PLMap([(0, 0), (length, target)])
        for s in steps:
            vs.append(vs[-1] + s * target / total)
    else:
        lo = rand_frac(rng) * target
        span = (target - lo) * rand_frac(rng)
        vs = [lo]
        if total == 0:
            return PLMap([(0, lo), (length, lo)]) if length else PLMap([(0, lo)])
        for s in steps:
            vs.append(vs[-1] + s * span / total)
    return PLMap(list(zip(ts, vs)))


def rand_moore(rng, length=Fraction(1), n_comp=1, n_pts=4) -> MoorePathPL:
    return MoorePathPL(
        length, [rand_plmap(rng, n_pts, length) for _ in range(n_comp)]
    )


def rand_moore_from(rng, start_values, length=Fraction(1), n_pts=4) -> MoorePathPL:
    """A random path that begins at the given component values."""
    comps = []
    for v0 in start_values:
        f = rand_plmap(rng, n_pts, length)
        comps.append(f.post_affine(1, v0 - f.v_first))
    return MoorePathPL(length, comps)


def sample_points(*maps):
    """All breakpoint t-values of the given PLMaps, for pointwise checks."""
    ts = set()
    for m in maps:
        ts.update(t for t, _ in m.breakpoints)
    return sorted(ts)


def random_directed_path(rng, x, surjective=None):
    """A random composable cell word with a random PL clock over x."""
    from ditop.pathspace import DirectedPathPL

    arcs = {}
    for s in x.states:
        arcs[s] = [n for n in list(x.edges) + list(x.cells2) if x.src(n) == s]
    starts = [s for s in x.states if arcs[s]]
    state = rng.choice(starts)
    word = []
    while arcs.get(state) and (not word or rng.random() < 0.7):
        cell = rng.choice(arcs[state])
        z = None
        if cell in x.cells2:
            z = Fraction(rng.randint(1, 5), 6)
        word.append((cell, z))
        state = x.tgt(cell)
    n = len(word)
    style = rng.random() if surjective is None else (0.3 if surjective else 0.9)
    if style < 0.2:
        v = Fraction(rng.randint(0, 4 * n), 4)
        clock = PLMap([(0, v), (1, v)])
    elif style < 0.5:
        clock = rand_monotone(rng, 1, n, n_pts=4)
    else:
        clock = rand_monotone(rng, 1, n, n_pts=4, surjective=False)
    return DirectedPathPL(tuple(word), clock)


def routes(x, alpha, beta):
    """The route complex alpha -> beta as a trace-space model."""
    return TraceSpaceValue(path_complex(x, alpha, beta), extra_point=False)
