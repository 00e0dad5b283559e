"""Exact piecewise-linear paths and reparametrizations over the rationals.

A ``PLMap`` is a piecewise-linear function stored as its breakpoint list;
all arithmetic is in ``fractions.Fraction``, so every identity checked
here is decided exactly, never up to a tolerance.  ``MoorePathPL`` models
a path of arbitrary rational length with one PL component per output
coordinate.  The module implements the path algebra these objects carry:
composition, concatenation, block tensor of reparametrizations,
normalized composition, regularity, and the normal-form rewrite
``renormalize`` that expresses a reparametrized composite word as a
shorter word with a residual clock.

Conventions:

* ``compose_pl(f, g)`` is ``g after f`` (apply ``f`` first).
* ``mu(l)`` is the linear surjection ``[0, l] -> [0, 1]``.
* ``M(l, l')`` is the class of non-decreasing surjections
  ``[0, l] -> [0, l']``; ``I(l)`` the non-decreasing maps
  ``[0, 1] -> [0, l]`` (not necessarily onto).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DomainMismatch,
    EndpointMismatch,
    IllFormedWord,
    NotMonotone,
    NotSurjective,
)

Rat = Fraction


def frac(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed; use Fraction or int")
    return Fraction(x)


class PLMap:
    """A piecewise-linear map given by breakpoints with strictly increasing t.

    A single breakpoint encodes the constant map on the degenerate domain
    ``[a, a]``.  Instances are immutable, canonical (no collinear interior
    breakpoint survives) and compare structurally.
    """

    __slots__ = ("breakpoints",)

    def __init__(self, points: Iterable[tuple]):
        pts = [(frac(t), frac(v)) for t, v in points]
        if not pts:
            raise ValueError("a PLMap needs at least one breakpoint")
        for (t0, _), (t1, _) in zip(pts, pts[1:]):
            if not t0 < t1:
                raise ValueError("breakpoint t-coordinates must strictly increase")
        object.__setattr__(self, "breakpoints", tuple(_canonicalize(pts)))

    def __setattr__(self, *a):
        raise AttributeError("PLMap is immutable")

    # -- basic geometry ------------------------------------------------

    @property
    def t_min(self) -> Fraction:
        return self.breakpoints[0][0]

    @property
    def t_max(self) -> Fraction:
        return self.breakpoints[-1][0]

    @property
    def v_first(self) -> Fraction:
        return self.breakpoints[0][1]

    @property
    def v_last(self) -> Fraction:
        return self.breakpoints[-1][1]

    def value_range(self) -> tuple[Fraction, Fraction]:
        vs = [v for _, v in self.breakpoints]
        return min(vs), max(vs)

    def __call__(self, t) -> Fraction:
        t = frac(t)
        bps = self.breakpoints
        if not bps[0][0] <= t <= bps[-1][0]:
            raise DomainMismatch(f"{t} outside domain [{bps[0][0]}, {bps[-1][0]}]")
        lo, hi = 0, len(bps) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if bps[mid][0] < t:
                lo = mid + 1
            else:
                hi = mid
        t1, v1 = bps[lo]
        if t == t1:
            return v1
        t0, v0 = bps[lo - 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def is_constant(self) -> bool:
        v0 = self.v_first
        return all(v == v0 for _, v in self.breakpoints)

    def is_non_decreasing(self) -> bool:
        return all(a[1] <= b[1] for a, b in zip(self.breakpoints, self.breakpoints[1:]))

    # -- derived maps ----------------------------------------------------

    def shift_domain(self, dt) -> "PLMap":
        dt = frac(dt)
        return PLMap([(t + dt, v) for t, v in self.breakpoints])

    def post_affine(self, a, b) -> "PLMap":
        """The map t -> a * self(t) + b."""
        a, b = frac(a), frac(b)
        return PLMap([(t, a * v + b) for t, v in self.breakpoints])

    # -- identity and comparison ----------------------------------------

    def __eq__(self, other):
        return isinstance(other, PLMap) and self.breakpoints == other.breakpoints

    def __hash__(self):
        return hash(self.breakpoints)

    def __repr__(self):
        pts = ", ".join(f"({t},{v})" for t, v in self.breakpoints)
        return f"PLMap[{pts}]"

    def to_pairs(self) -> list[list[list[int]]]:
        """Serialize as [[tn, td], [vn, vd]] per breakpoint."""
        return [
            [[t.numerator, t.denominator], [v.numerator, v.denominator]]
            for t, v in self.breakpoints
        ]

    @staticmethod
    def from_pairs(pairs) -> "PLMap":
        return PLMap(
            [(Fraction(tn, td), Fraction(vn, vd)) for (tn, td), (vn, vd) in pairs]
        )


def _canonicalize(pts):
    out = [pts[0]]
    for t, v in pts[1:]:
        out.append((t, v))
        while len(out) >= 3:
            (t0, v0), (t1, v1), (t2, v2) = out[-3], out[-2], out[-1]
            # collinear middle point: equal slopes on both sides
            if (v1 - v0) * (t2 - t1) == (v2 - v1) * (t1 - t0):
                del out[-2]
            else:
                break
    return out


def identity_pl(a, b) -> PLMap:
    a, b = frac(a), frac(b)
    if a == b:
        return PLMap([(a, a)])
    return PLMap([(a, a), (b, b)])


def constant_pl(a, b, v) -> PLMap:
    a, b = frac(a), frac(b)
    if a == b:
        return PLMap([(a, v)])
    return PLMap([(a, v), (b, v)])


def mu(ell) -> PLMap:
    """The linear surjection [0, ell] -> [0, 1], t -> t/ell (ell > 0)."""
    ell = frac(ell)
    if ell <= 0:
        raise ValueError("mu(ell) needs ell > 0")
    return PLMap([(0, 0), (ell, 1)])


def mu_inv(ell) -> PLMap:
    """The linear bijection [0, 1] -> [0, ell] (ell > 0)."""
    ell = frac(ell)
    if ell <= 0:
        raise ValueError("mu_inv(ell) needs ell > 0")
    return PLMap([(0, 0), (1, ell)])


# -- membership checks --------------------------------------------------


def require_in_M(f: PLMap, ell, ell_target) -> PLMap:
    """Check f is a non-decreasing surjection [0, ell] -> [0, ell_target]."""
    ell, ell_target = frac(ell), frac(ell_target)
    if (f.t_min, f.t_max) != (Fraction(0), ell):
        raise DomainMismatch(f"domain is [{f.t_min}, {f.t_max}], expected [0, {ell}]")
    if not f.is_non_decreasing():
        raise NotMonotone("map is not non-decreasing")
    if f.v_first != 0 or f.v_last != ell_target:
        raise NotSurjective(
            f"range is [{f.v_first}, {f.v_last}], expected onto [0, {ell_target}]"
        )
    return f


def require_in_I(f: PLMap, ell) -> PLMap:
    """Check f is a non-decreasing map [0, 1] -> [0, ell]."""
    ell = frac(ell)
    if (f.t_min, f.t_max) != (Fraction(0), Fraction(1)):
        raise DomainMismatch(f"domain is [{f.t_min}, {f.t_max}], expected [0, 1]")
    if not f.is_non_decreasing():
        raise NotMonotone("map is not non-decreasing")
    if f.v_first < 0 or f.v_last > ell:
        raise DomainMismatch(f"values leave [0, {ell}]")
    return f


# -- composition ----------------------------------------------------------


def compose_pl(f: PLMap, g: PLMap) -> PLMap:
    """Exact composite g after f.  Needs range(f) inside domain(g)."""
    lo, hi = f.value_range()
    if lo < g.t_min or hi > g.t_max:
        raise DomainMismatch(
            f"range(f) = [{lo}, {hi}] not inside domain(g) = [{g.t_min}, {g.t_max}]"
        )
    cuts = {t for t, _ in f.breakpoints}
    g_nodes = [t for t, _ in g.breakpoints]
    for (t0, v0), (t1, v1) in zip(f.breakpoints, f.breakpoints[1:]):
        if v0 == v1:
            continue
        va, vb = (v0, v1) if v0 < v1 else (v1, v0)
        for u in g_nodes:
            if va < u < vb:
                cuts.add(t0 + (u - v0) * (t1 - t0) / (v1 - v0))
    ts = sorted(cuts)
    return PLMap([(t, g(f(t))) for t in ts])


def concat_pl(p: PLMap, q: PLMap) -> PLMap:
    """Glue q after p along matching domain endpoint and value."""
    if p.t_max != q.t_min or p.v_last != q.v_first:
        raise EndpointMismatch("maps do not meet at the junction")
    return PLMap(list(p.breakpoints) + list(q.breakpoints[1:]))


# -- Moore paths -----------------------------------------------------------


class MoorePathPL:
    """A path [0, length] -> Q^k with one PLMap per coordinate."""

    __slots__ = ("length", "components")

    def __init__(self, length, components: Sequence[PLMap]):
        length = frac(length)
        if length < 0:
            raise ValueError("length must be >= 0")
        comps = tuple(components)
        if not comps:
            raise ValueError("at least one component")
        for c in comps:
            if (c.t_min, c.t_max) != (Fraction(0), length):
                raise DomainMismatch(
                    f"component domain [{c.t_min}, {c.t_max}] != [0, {length}]"
                )
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, *a):
        raise AttributeError("MoorePathPL is immutable")

    @staticmethod
    def constant(values, length=0) -> "MoorePathPL":
        length = frac(length)
        return MoorePathPL(
            length, [constant_pl(0, length, frac(v)) for v in values]
        )

    def __call__(self, t) -> tuple[Fraction, ...]:
        return tuple(c(t) for c in self.components)

    def start(self) -> tuple[Fraction, ...]:
        return self(0)

    def end(self) -> tuple[Fraction, ...]:
        return self(self.length)

    def is_constant(self) -> bool:
        return all(c.is_constant() for c in self.components)

    def reparam(self, phi: PLMap) -> "MoorePathPL":
        """The composite self after phi, as a path on phi's domain shifted to 0."""
        if phi.t_min != 0:
            phi = phi.shift_domain(-phi.t_min)
        return MoorePathPL(
            phi.t_max, [compose_pl(phi, c) for c in self.components]
        )

    def __eq__(self, other):
        return (
            isinstance(other, MoorePathPL)
            and self.length == other.length
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.length, self.components))

    def __repr__(self):
        return f"MoorePathPL(len={self.length}, {len(self.components)} comps)"


def moore_compose(p: MoorePathPL, q: MoorePathPL) -> MoorePathPL:
    """Strictly associative concatenation; lengths add."""
    if len(p.components) != len(q.components):
        raise EndpointMismatch("component counts differ")
    if p.end() != q.start():
        raise EndpointMismatch(f"p ends at {p.end()}, q starts at {q.start()}")
    comps = [
        concat_pl(pc, qc.shift_domain(p.length))
        for pc, qc in zip(p.components, q.components)
    ]
    return MoorePathPL(p.length + q.length, comps)


def tensor_reparams(phis: Sequence[PLMap]) -> PLMap:
    """Block-diagonal juxtaposition of reparametrizations.

    Each phi_i must lie in M(l_i, l'_i) where l_i is its domain length and
    l'_i its final value; the result lies in M(sum l_i, sum l'_i).
    """
    if not phis:
        raise ValueError("need at least one factor")
    off_t = Fraction(0)
    off_v = Fraction(0)
    out: PLMap | None = None
    for f in phis:
        if not f.is_non_decreasing():
            raise NotMonotone("tensor factor is not non-decreasing")
        if f.t_min != 0 or f.v_first != 0:
            raise NotSurjective("tensor factor must start at (0, 0)")
        block = PLMap([(t + off_t, v + off_v) for t, v in f.breakpoints])
        out = block if out is None else concat_pl(out, block)
        off_t += f.t_max
        off_v += f.v_last
    return out


def normalized_compose(p: MoorePathPL, q: MoorePathPL) -> MoorePathPL:
    """Composite of two length-1 paths, run at double speed on [0, 1]."""
    if p.length != 1 or q.length != 1:
        raise IllFormedWord("normalized composition needs length-1 paths")
    half = mu(Fraction(1, 2))
    return moore_compose(p.reparam(half), q.reparam(half))


def is_regular(p: MoorePathPL) -> bool:
    """Constant, or without any constancy interval of positive length."""
    if p.is_constant():
        return True
    ts = sorted({t for c in p.components for t, _ in c.breakpoints})
    for t0, t1 in zip(ts, ts[1:]):
        if all(c(t0) == c(t1) for c in p.components):
            return False
    return True


# -- composite words and their renormalization ---------------------------


def word_path(word) -> MoorePathPL:
    """Assemble the Moore composite of a word of (gamma, phi, ell) pieces.

    Piece i contributes gamma_i after phi_i after mu(ell_i), a path of
    length ell_i; the whole word has length sum ell_i.
    """
    _check_word(word)
    pieces = []
    for gamma, phi, ell in word:
        scaled = compose_pl(mu(ell), phi)  # phi after mu(ell): [0, ell] -> [0, 1]
        pieces.append(
            MoorePathPL(ell, [compose_pl(scaled, c) for c in gamma.components])
        )
    out = pieces[0]
    for piece in pieces[1:]:
        out = moore_compose(out, piece)
    return out


def _check_word(word):
    if not word:
        raise IllFormedWord("empty word")
    total = Fraction(0)
    k = len(word[0][0].components)
    prev_end = None
    for gamma, phi, ell in word:
        ell = frac(ell)
        if ell <= 0:
            raise IllFormedWord("piece lengths must be positive")
        if gamma.length != 1:
            raise IllFormedWord("word pieces must have length-1 paths")
        if len(gamma.components) != k:
            raise IllFormedWord("pieces disagree on component count")
        require_in_I(phi, 1)
        start = gamma(phi(0))
        end = gamma(phi(1))
        if prev_end is not None and start != prev_end:
            raise IllFormedWord("consecutive pieces do not meet")
        prev_end = end
        total += ell
    if total != 1:
        raise IllFormedWord(f"piece lengths sum to {total}, expected 1")


def renormalize(word, phi: PLMap):
    """Rewrite (word composite) after phi as a new word and residual clock.

    Returns ``(word2, clock)`` such that the composite of ``word2``
    reparametrized by ``clock`` equals the original composite
    reparametrized by ``phi``, exactly.  When ``phi`` is constant or the
    composite is constant, ``word2`` is a single constant piece.
    Otherwise ``word2`` keeps only the pieces whose image interval meets
    the range of the rescaled clock, with equal lengths.
    """
    _check_word(word)
    require_in_I(phi, 1)
    gamma_full = word_path(word)
    if phi.v_first == phi.v_last or gamma_full.is_constant():
        value = gamma_full(phi.v_first)
        const = MoorePathPL.constant(value, 1)
        return [(const, identity_pl(0, 1), Fraction(1))], identity_pl(0, 1)

    n = len(word)
    tensor = tensor_reparams([mu(ell) for _, _, ell in word])  # M(1, n)
    psi = compose_pl(phi, tensor)  # I(n)
    psi0, psi1 = psi.v_first, psi.v_last
    r = math.floor(psi0)
    s = math.ceil(psi1)
    m = s - r
    assert m >= 1
    word2 = [
        (gamma, piece_phi, Fraction(1, m)) for gamma, piece_phi, _ in word[r:s]
    ]
    clock = psi.post_affine(Fraction(1, m), Fraction(-r, m))
    return word2, clock


def word_reparam(word, clock: PLMap) -> MoorePathPL:
    """The word composite reparametrized by a clock in I(1)."""
    require_in_I(clock, 1)
    return word_path(word).reparam(clock)
