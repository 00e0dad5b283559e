"""Valuations of trace-space models.

A valuation replaces a trace-space model by a decidable stand-in for its
homotopy type: the finite set of path components (``pi0``), or that set
together with integer homology up to a chosen degree (``hom:k``).
``Valuation.map`` is the one induced-map pipeline: it values a
``SpaceMap`` (see ``pathspace``) as a component map plus, per degree, the
homology map read off its chain matrices.  The ``space_map_*`` builders
make the maps the natural-system layer needs beyond ``extend_map``:
identities between wrappers, point inclusions, collapses and word
rewrites whose cubes may degenerate.

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
    mat_vec,
    mat_zero,
    pi0,
)
from .errors import CapExceeded, NotFunctorial, ParseError
from .pathspace import SpaceMap, TraceSpaceValue

CANDIDATE_CAP = 2048


# -- maps of trace-space models -------------------------------------------------


def space_map_same_base(src: TraceSpaceValue, tgt: TraceSpaceValue) -> SpaceMap:
    """Identity map between two wrappers of one shared base complex."""
    if src.base is not tgt.base:
        raise ValueError("models do not share a base complex")
    nv = len(src.base.vertices)
    extra = None
    if src.extra_point:
        if not tgt.extra_point:
            raise ValueError("source extra point has no counterpart")
        extra = nv
    return SpaceMap(
        src,
        tgt,
        tuple(range(nv)),
        tuple(
            tuple(range(src.base.n_cubes(k)))
            for k in range(1, src.base.dimension + 1)
        ),
        extra,
    )


def space_map_point_to(src: TraceSpaceValue, tgt: TraceSpaceValue, element: int) -> SpaceMap:
    """Map a one-point model (extra point only) to a chosen element."""
    if not src.extra_point or src.base.vertices:
        raise ValueError("source is not the one-point model")
    if not 0 <= element < tgt.n_points():
        raise ValueError("target element out of range")
    return SpaceMap(src, tgt, (), (), element)


def space_map_collapse(src: TraceSpaceValue, tgt: TraceSpaceValue) -> SpaceMap:
    """Map everything to the single element of a one-point target."""
    if tgt.n_points() != 1 or tgt.base.dimension != 0:
        raise ValueError("target is not a one-point model")
    nv = len(src.base.vertices)
    return SpaceMap(
        src,
        tgt,
        (0,) * nv,
        tuple(
            (None,) * src.base.n_cubes(k) for k in range(1, src.base.dimension + 1)
        ),
        0 if src.extra_point else None,
    )


def space_map_by_words(
    src: TraceSpaceValue, tgt: TraceSpaceValue, word_fn, extra_word=None
) -> SpaceMap:
    """Build a map by rewriting route words; degenerate images allowed.

    ``word_fn`` sends a source route word to a target route word; a k-cube
    whose image keeps all k square letters maps to that cube, otherwise
    it degenerates (records None).  ``extra_word`` places the extra point.
    """
    tgt_index = tgt.base.index
    cells2 = tgt.base.complex.cells2
    vertex_images = []
    for w in src.base.vertices:
        img = word_fn(w)
        if img not in tgt_index:
            raise NotFunctorial(f"image word {img} is not a route of the target")
        k, idx = tgt_index[img]
        if k != 0:
            raise NotFunctorial(f"vertex image {img} has square letters")
        vertex_images.append(idx)
    cube_images = []
    for k in range(1, src.base.dimension + 1):
        level = []
        for w in src.base.cubes[k]:
            img = word_fn(w)
            letters = sum(1 for c in img if c in cells2)
            if letters == k:
                if img not in tgt_index:
                    raise NotFunctorial(f"image word {img} is not a route of the target")
                level.append(tgt_index[img][1])
            elif letters < k:
                level.append(None)
            else:
                raise NotFunctorial("image word gained square letters")
        cube_images.append(tuple(level))
    extra_image = None
    if src.extra_point:
        if extra_word is None:
            raise ValueError("source extra point needs an image word")
        if extra_word not in tgt_index or tgt_index[extra_word][0] != 0:
            raise NotFunctorial(f"extra image {extra_word} is not a target vertex")
        extra_image = tgt_index[extra_word][1]
    return SpaceMap(src, tgt, tuple(vertex_images), tuple(cube_images), extra_image)


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
        _, n = self.components_of(v)
        if self.kind == "pi0":
            return Value(n)
        groups = [FgAbGroup(n)]
        for k in range(1, self.maxdeg + 1):
            groups.append(homology(v.base, k))
        return Value(n, tuple(groups))

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
        mats = self._chain_matrices(sm) if self.maxdeg >= 1 else None
        homs = tuple(
            self._induced_hom(sm, k, mats) for k in range(1, self.maxdeg + 1)
        )
        return ValueMap(src_value, tgt_value, comp, homs)

    def _induced_hom(self, sm: SpaceMap, k: int, mats) -> GroupHom:
        src_b = homology_basis(sm.src.base, k)
        tgt_b = homology_basis(sm.tgt.base, k)
        if src_b.group.is_trivial() or tgt_b.group.is_trivial():
            return GroupHom.make(
                src_b.group,
                tgt_b.group,
                [[0] * src_b.group.n_gens for _ in range(tgt_b.group.n_gens)],
            )
        cols = []
        for idx in range(src_b.group.n_gens):
            z = src_b.generator_cycle(idx)
            img = mat_vec(mats[k], z)
            cols.append(tgt_b.class_of_cycle(img))
        rows = [
            [cols[c][r] for c in range(len(cols))]
            for r in range(tgt_b.group.n_gens)
        ]
        return GroupHom.make(src_b.group, tgt_b.group, rows)

    def _chain_matrices(self, sm: SpaceMap):
        """Base-complex chain map; degenerate cubes map to zero.

        Commutation with the boundary is verified cube by cube; failure
        means the word-level map admits no cubical approximation we
        support.
        """
        src_p, tgt_p = sm.src.base, sm.tgt.base
        nv_tgt = len(tgt_p.vertices)
        images: list = [list(sm.vertex_images)]
        for element in sm.vertex_images:
            if element >= nv_tgt:
                raise NotFunctorial("base vertex sent to the extra point")
        images += [list(level) for level in sm.cube_images]

        def boundary_of_image(k, img):
            acc: dict[int, int] = {}
            if img is not None and k <= tgt_p.dimension:
                for j, (i0, i1) in enumerate(tgt_p.faces(k)[img], start=1):
                    sign = -1 if j % 2 else 1
                    acc[i0] = acc.get(i0, 0) + sign
                    acc[i1] = acc.get(i1, 0) - sign
            return {key: v for key, v in acc.items() if v}

        for k in range(1, src_p.dimension + 1):
            src_faces = src_p.faces(k)
            for i, img in enumerate(images[k]):
                acc: dict[int, int] = {}
                for j, (i0, i1) in enumerate(src_faces[i], start=1):
                    sign = -1 if j % 2 else 1
                    for idx, s in ((i0, sign), (i1, -sign)):
                        t_img = images[k - 1][idx]
                        if t_img is not None:
                            acc[t_img] = acc.get(t_img, 0) + s
                acc = {key: v for key, v in acc.items() if v}
                if acc != boundary_of_image(k, img):
                    raise NotFunctorial(
                        f"no chain-level extension at degree {k}: collapse is uneven"
                    )
        mats = []
        m0 = mat_zero(nv_tgt, len(src_p.vertices))
        for i, element in enumerate(sm.vertex_images):
            m0[element][i] = 1
        mats.append(m0)
        for k in range(1, src_p.dimension + 1):
            mat = mat_zero(tgt_p.n_cubes(k), src_p.n_cubes(k))
            for i, img in enumerate(images[k]):
                if img is not None:
                    mat[img][i] = 1
            mats.append(mat)
        return mats


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
