"""Valuations of trace-space models.

A valuation replaces a trace-space model by a decidable stand-in for its
homotopy type: the finite set of path components (``pi0``), or that set
together with integer homology up to a chosen degree (``hom:k``).
``Valuation.map`` is the one induced-map pipeline: it values a
``SpaceMap`` (see ``pathspace``, which builds and checks maps) as a
component map plus, per degree, the homology map got by pushing each
generator cycle along the map with ``SpaceMap.push``.  Values are cached
on the base complex, so every map with an end at one model carries the
same ``Value`` object.

Degree-0 elements of a model are indexed base vertices first, extra
point last; components inherit that order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algtop import (
    FgAbGroup,
    FinSetMap,
    GroupHom,
    homology,
    homology_basis,
    pi0,
)
from .errors import CapExceeded, NotFunctorial, ParseError
from .pathspace import SpaceMap, TraceSpaceValue

CANDIDATE_CAP = 2048


# -- valued spaces ---------------------------------------------------------------


@dataclass(frozen=True)
class Value:
    """Valuation of one model: component count, optional graded homology."""

    components: int
    groups: tuple[FgAbGroup, ...] = ()

    def describe(self) -> str:
        if not self.groups:
            plural = "component" if self.components == 1 else "components"
            return f"{self.components} {plural}"
        return ", ".join(f"H{k} = {g}" for k, g in enumerate(self.groups))


@dataclass(frozen=True)
class ValueMap:
    src: Value
    tgt: Value
    comp: FinSetMap
    homs: tuple[GroupHom, ...] = ()  # degrees 1..maxdeg under hom valuation

    def compose(self, first: "ValueMap") -> "ValueMap":
        if first.tgt is not self.src and first.tgt != self.src:
            raise ValueError("value maps not composable")
        homs = self.homs and tuple(
            [s.compose(f) for s, f in zip(self.homs, first.homs)]
        )
        return ValueMap(first.src, self.tgt, self.comp.compose(first.comp), homs)

    def is_iso(self) -> bool:
        return self.comp.is_bijective() and all(h.is_iso() for h in self.homs)

    def inverse(self) -> "ValueMap":
        return ValueMap(
            self.tgt,
            self.src,
            self.comp.inverse(),
            tuple(h.inverse() for h in self.homs),
        )

    @staticmethod
    def identity(v: Value) -> "ValueMap":
        return ValueMap(
            v,
            v,
            FinSetMap.identity(v.components),
            tuple(GroupHom.identity(g) for g in v.groups[1:]),
        )

    def describe(self) -> str:
        comp = ",".join(str(i) for i in self.comp.images) or "-"
        if not self.homs:
            return f"[{comp}]"
        mats = "; ".join(
            f"H{k}:" + "/".join(",".join(str(x) for x in row) for row in h.matrix)
            for k, h in enumerate(self.homs, start=1)
        )
        return f"[{comp}] {mats}" if mats else f"[{comp}]"


@dataclass(frozen=True)
class Valuation:
    """pi0 or homology-up-to-degree valuation of trace-space models."""

    kind: str  # "pi0" or "hom"
    maxdeg: int = 0

    def __post_init__(self):
        if self.kind not in ("pi0", "hom"):
            raise ValueError(f"unknown valuation {self.kind}")
        if self.kind == "hom" and self.maxdeg < 0:
            raise ValueError("maxdeg must be >= 0")

    @property
    def label(self) -> str:
        return "pi0" if self.kind == "pi0" else f"hom:{self.maxdeg}"

    # -- spaces -----------------------------------------------------------

    def components_of(self, v: TraceSpaceValue) -> tuple[tuple[int, ...], int]:
        """Component index per degree-0 element, and the component count."""
        cache = v.base.homology_cache
        if "pi0" not in cache:
            cache["pi0"] = pi0(v.base)
        part = cache["pi0"]
        classes = list(part.classes)
        n = part.n_classes
        if v.extra_point:
            classes.append(n)
            n += 1
        return tuple(classes), n

    def value(self, v: TraceSpaceValue) -> Value:
        """The value of a model, one shared object per model and valuation."""
        cache = v.base.homology_cache
        key = ("value", self.label, v.extra_point)
        if key not in cache:
            _, n = self.components_of(v)
            if self.kind == "pi0":
                cache[key] = Value(n)
            else:
                groups = [FgAbGroup(n)]
                for k in range(1, self.maxdeg + 1):
                    groups.append(homology(v.base, k))
                cache[key] = Value(n, tuple(groups))
        return cache[key]

    # -- maps -------------------------------------------------------------

    def map(self, sm: SpaceMap) -> ValueMap:
        src_cls, src_n = self.components_of(sm.src)
        tgt_cls, tgt_n = self.components_of(sm.tgt)
        images = [None] * src_n
        nv = len(sm.src.base.vertices)

        def record(cls, element):
            img_cls = tgt_cls[element]
            if images[cls] is None:
                images[cls] = img_cls
            elif images[cls] != img_cls:
                raise NotFunctorial("map does not descend to components")

        for i, element in enumerate(sm.vertex_images):
            record(src_cls[i], element)
        if sm.src.extra_point:
            if sm.extra_image is None:
                raise NotFunctorial("extra point has no image")
            record(src_cls[nv], sm.extra_image)
        comp = FinSetMap(src_n, tgt_n, tuple(images))
        src_value = self.value(sm.src)
        tgt_value = self.value(sm.tgt)
        if self.kind == "pi0":
            return ValueMap(src_value, tgt_value, comp)
        if self.maxdeg >= 1:
            sm.check_chain_map()
        homs = tuple(self._induced_hom(sm, k) for k in range(1, self.maxdeg + 1))
        return ValueMap(src_value, tgt_value, comp, homs)

    def _induced_hom(self, sm: SpaceMap, k: int) -> GroupHom:
        src_b = homology_basis(sm.src.base, k)
        tgt_b = homology_basis(sm.tgt.base, k)
        if src_b.group.is_trivial() or tgt_b.group.is_trivial():
            return GroupHom.make(
                src_b.group,
                tgt_b.group,
                [[0] * src_b.group.n_gens for _ in range(tgt_b.group.n_gens)],
            )
        cols = [
            tgt_b.class_of_cycle(sm.push(k, src_b.generator_cycle(idx)))
            for idx in range(src_b.group.n_gens)
        ]
        rows = [
            [cols[c][r] for c in range(len(cols))]
            for r in range(tgt_b.group.n_gens)
        ]
        return GroupHom.make(src_b.group, tgt_b.group, rows)


def parse_valuation(text: str) -> Valuation:
    if text == "pi0":
        return Valuation("pi0")
    kind, _, degree = text.partition(":")
    if kind == "hom" and degree.isascii() and degree.isdigit():
        return Valuation("hom", int(degree))
    raise ParseError(f"valuation must be pi0 or hom:<k>, got {text!r}")


# -- isomorphism candidates -------------------------------------------------------


def _perms(n: int):
    import itertools

    return itertools.permutations(range(n))


def _group_candidates(g: FgAbGroup):
    """Signed/unit generator permutations of g; complete iff <= 1 generator."""
    import itertools

    orders = g.gen_orders()
    n = len(orders)
    if n == 0:
        return [GroupHom.make(g, g, [])], True
    slots: list[list[int]] = []
    for d in orders:
        if d == 0:
            slots.append([1, -1])
        else:
            slots.append([u for u in range(1, d) if _coprime(u, d)])
    candidates = []
    for sigma in _perms(n):
        if any(orders[i] != orders[sigma[i]] for i in range(n)):
            continue
        for units in itertools.product(*[slots[sigma[i]] for i in range(n)]):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[sigma[i]][i] = units[i]
            candidates.append(GroupHom.make(g, g, rows))
    return candidates, n <= 1


def _coprime(a, b):
    from math import gcd

    return gcd(a, b) == 1


def iso_candidates(a: Value, b: Value, cap=CANDIDATE_CAP):
    """All candidate isomorphisms a -> b under the valuation's structure.

    Returns (candidates, complete).  Component bijections are enumerated
    exhaustively; homology candidates in each degree are signed or unit
    generator permutations, which is complete only for cyclic or trivial
    groups.  A mismatch of invariants yields ([], True).
    """
    import itertools

    if a.components != b.components or a.groups != b.groups:
        return [], True
    complete = True
    n = a.components
    if n > 7:
        return [], False
    comp_maps = [
        FinSetMap(n, n, perm) for perm in _perms(n)
    ]
    degree_cands = []
    for g in a.groups[1:]:
        cands, full = _group_candidates(g)
        complete = complete and full
        degree_cands.append(cands)
    out = []
    for comp in comp_maps:
        for homs in itertools.product(*degree_cands):
            out.append(ValueMap(a, b, comp, tuple(homs)))
            if len(out) > cap:
                raise CapExceeded("too many isomorphism candidates")
    return out, complete
