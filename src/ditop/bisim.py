"""Open maps and bisimulations of valued diagrams.

A diagram map is open when its index functor is surjective on objects,
every morphism out of an image object lifts through the functor, and all
components are isomorphisms forming a natural transformation.  Two
diagrams are bisimilar when some set of iso-linked object pairs covers
both sides and completes extension squares both ways; ``bisimilar``
searches for one by deleting violating triples from the full candidate
set until stable (a greatest-fixpoint computation).  One forth/back
square-completion clause serves both paths, challenging each triple
along generators: the search answers with live triples only, and
``verify_bisimulation`` re-checks the certificate answering with any of
its triples.  Generators suffice because every diagram built by
``natural_system`` is functorial, its build checking every extension
square, so squares paste along composites.

Candidate isomorphisms come from the valuation layer; when their
enumeration is incomplete (free rank two or beyond, composite torsion) a
failed search reports "unknown" instead of "no".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NotFunctorial, NotOpen
from .natsys import Diagram, DiagramMap, format_chain
from .values import Value, ValueMap, iso_candidates


def _fmt(obj) -> str:
    if isinstance(obj, tuple):
        return format_chain(obj)
    return str(obj)


# -- open maps ----------------------------------------------------------------


@dataclass(frozen=True)
class OpenFailure:
    kind: str
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class OpenCheck:
    ok: bool
    failures: tuple[OpenFailure, ...]

    def report(self) -> str:
        if self.ok:
            return "OPEN"
        return "NOT OPEN\n" + "\n".join(str(f) for f in self.failures)


def check_open(dm: DiagramMap, max_failures: int = 10) -> OpenCheck:
    """Object surjectivity, morphism lifting, iso components, naturality."""
    failures: list[OpenFailure] = []
    try:
        dm.check_functorial()
    except NotFunctorial as err:
        return OpenCheck(False, (OpenFailure("not-functorial", str(err)),))
    hit = set(dm.obj_map.values())
    for j in dm.tgt.index.objects:
        if j not in hit:
            failures.append(
                OpenFailure("not-surjective", f"object {_fmt(j)} has no preimage")
            )
            if len(failures) >= max_failures:
                return OpenCheck(False, tuple(failures))
    for i in dm.src.index.objects:
        fi = dm.obj_map[i]
        lift_targets = {dm.obj_map[i0] for i0 in dm.src.index.targets_from(i)}
        for j2 in dm.tgt.index.targets_from(fi):
            if j2 not in lift_targets:
                failures.append(
                    OpenFailure(
                        "no-lift",
                        f"morphism {_fmt(fi)} -> {_fmt(j2)} has no lift at {_fmt(i)}",
                    )
                )
                if len(failures) >= max_failures:
                    return OpenCheck(False, tuple(failures))
    for i in dm.src.index.objects:
        mu = dm.components[i]
        if not mu.is_iso():
            failures.append(
                OpenFailure(
                    "component-not-iso",
                    f"witness {_fmt(i)} -> {_fmt(dm.obj_map[i])}: "
                    f"{mu.src.describe()} vs {mu.tgt.describe()}",
                )
            )
            if len(failures) >= max_failures:
                return OpenCheck(False, tuple(failures))
    for a, b in dm.naturality_failures():
        failures.append(
            OpenFailure(
                "not-natural", f"square at {_fmt(a)} -> {_fmt(b)} does not commute"
            )
        )
        if len(failures) >= max_failures:
            break
    return OpenCheck(not failures, tuple(failures))


# -- bisimulations -------------------------------------------------------------


@dataclass(frozen=True)
class Bisimulation:
    triples: tuple[tuple[object, ValueMap, object], ...]

    def report(self) -> str:
        return "\n".join(
            f"triple {_fmt(i)} ~ {_fmt(j)} via {eta.describe()}"
            for i, eta, j in self.triples
        )


def _is_simple(v: Value) -> bool:
    """At most one element and no homology generators: maps INTO such a
    value are all equal (and so are maps out of an empty one)."""
    return v.components <= 1 and all(g.n_gens == 0 for g in v.groups[1:])


def _uncovered(triples, f: Diagram, g: Diagram) -> list[tuple[str, object]]:
    """Objects in no triple, as ("left", i) then ("right", j), in object order."""
    covered_i = {t[0] for t in triples}
    covered_j = {t[2] for t in triples}
    return [("left", i) for i in f.index.objects if i not in covered_i] + [
        ("right", j) for j in g.index.objects if j not in covered_j
    ]


def _square_clause(f: Diagram, g: Diagram, answers: dict, triples, live):
    """The forth/back square-completion clause against answering triples.

    ``answers`` maps an object pair (i2, j2) to ids into ``triples``;
    only ids in ``live`` may answer.  The returned ``stuck(i, eta, j, i_steps,
    j_steps)`` challenges the triple along each i -> i2 in ``i_steps``
    (forth), answered by some j -> j2 among all targets of j and a triple
    (i2, eta2, j2) whose square g(j -> j2) . eta = eta2 . f(i -> i2)
    commutes, then along each j -> j2 in ``j_steps`` (back), symmetrically.
    It returns the first unanswered step as ("forth", i, i2) or ("back", j,
    j2), or None.  A square commutes without composing when i has the
    empty value or j2 a value with at most one element and no homology:
    then both sides are the one map there is.
    """
    empty_f = {i: f.value(i).components == 0 for i in f.index.objects}
    simple_g = {j: _is_simple(g.value(j)) for j in g.index.objects}

    def answered(ks, left, f_map) -> bool:
        for k in ks:
            if k in live and (left is None or left == triples[k][1].compose(f_map)):
                return True
        return False

    def stuck(i, eta, j, i_steps, j_steps):
        trivial_i = empty_f[i]
        i_targets, j_targets = f.index.targets_from(i), g.index.targets_from(j)
        for i2 in i_steps:
            f_map = f.map(i, i2)
            for j2 in j_targets:
                ks = answers.get((i2, j2))
                if not ks:
                    continue
                trivial = trivial_i or simple_g[j2]
                left = None if trivial else g.map(j, j2).compose(eta)
                if answered(ks, left, f_map):
                    break
            else:
                return "forth", i, i2
        for j2 in j_steps:
            trivial = trivial_i or simple_g[j2]
            left = None
            for i2 in i_targets:
                ks = answers.get((i2, j2))
                if not ks:
                    continue
                if left is None and not trivial:
                    left = g.map(j, j2).compose(eta)
                if answered(ks, left, f.map(i, i2)):
                    break
            else:
                return "back", j, j2
        return None

    return stuck


def verify_bisimulation(r, f: Diagram, g: Diagram):
    """Check the coverage and square-completion clauses of a relation.

    The square clause of ``bisimilar`` is challenged along every
    generator i -> i2 (j -> j2) and answered by any triple of the
    relation, at any target of j (of i) on the far side.  Generators
    suffice when both diagrams are functorial, i.e. a composite
    extension maps to the composite of its generators' maps: pasting the
    squares of the generator steps then gives the square of every
    morphism, and an identity step is answered by the triple itself.
    Every ``Diagram`` made by ``natural_system`` is functorial, since its
    build checks every extension square; a relation between diagrams
    assembled some other way is only checked along generators.  Returns
    (True, None) or (False, description of the first violation).
    """
    triples = tuple(r.triples) if isinstance(r, Bisimulation) else tuple(r)
    missing = _uncovered(triples, f, g)
    if missing:
        side, obj = missing[0]
        return False, f"clause 1: object {_fmt(obj)} of the {side} diagram uncovered"
    by_pair: dict = {}
    for k, (i, _, j) in enumerate(triples):
        by_pair.setdefault((i, j), []).append(k)
    stuck = _square_clause(f, g, by_pair, triples, range(len(triples)))
    for i, eta, j in triples:
        why = stuck(i, eta, j, f.index.gens_from(i), g.index.gens_from(j))
        if why is not None:
            side, a, b = why
            return (
                False,
                f"clause 2 ({side}): {_fmt(i)} ~ {_fmt(j)} stuck along "
                f"{_fmt(a)} -> {_fmt(b)}",
            )
    return True, None


@dataclass(frozen=True)
class BisimResult:
    verdict: str  # yes | no | unknown
    exact: bool
    bisimulation: Optional[Bisimulation]
    refutation: tuple[str, ...]

    def report(self) -> str:
        lines = [f"BISIMILAR {self.verdict}" + ("" if self.exact else " (incomplete)")]
        if self.bisimulation is not None:
            lines.append(self.bisimulation.report())
        lines.extend(self.refutation)
        return "\n".join(lines)


def bisimilar(f: Diagram, g: Diagram, max_trace: int = 50) -> BisimResult:
    """Greatest-fixpoint search for a bisimulation between two diagrams.

    Seeds every iso candidate between every object pair, then deletes
    triples that the square clause leaves stuck along some one-step
    extension (a generator), answered only by live triples, until
    stable.  Candidates are enumerated once per distinct pair of values
    (object pairs with equal values share their ``eta`` objects), and
    the triples of one object pair sit in a contiguous range, so the
    clause looks up only the pairs (i2, j2) it can use.  Square
    conditions for composite extensions follow by pasting, so generators
    suffice; ``verify_bisimulation`` re-checks the returned relation with
    the same clause, answered by any of its triples.
    """
    exact = True
    triples: list[tuple] = []
    by_pair: dict = {}
    value_ids: dict = {}
    f_ids = [value_ids.setdefault(f.value(i), len(value_ids)) for i in f.index.objects]
    g_ids = [value_ids.setdefault(g.value(j), len(value_ids)) for j in g.index.objects]
    seeds: dict = {}  # (value id, value id) -> iso_candidates of the two values
    for i, fi in zip(f.index.objects, f_ids):
        for j, gj in zip(g.index.objects, g_ids):
            key = fi, gj
            if key not in seeds:
                seeds[key] = iso_candidates(f.value(i), g.value(j))
            cands, complete = seeds[key]
            exact = exact and complete
            if cands:
                by_pair[(i, j)] = range(len(triples), len(triples) + len(cands))
                triples.extend((i, eta, j) for eta in cands)
    alive = set(range(len(triples)))
    stuck = _square_clause(f, g, by_pair, triples, alive)
    trace: list[str] = []
    changed = True
    while changed:
        changed = False
        for idx in sorted(alive):
            i, eta, j = triples[idx]
            why = stuck(i, eta, j, f.index.gens_from(i), g.index.gens_from(j))
            if why is not None:
                if len(trace) < max_trace:
                    side, a, b = why
                    trace.append(
                        f"drop {_fmt(i)} ~ {_fmt(j)}: {side} fails along "
                        f"{_fmt(a)} -> {_fmt(b)}"
                    )
                alive.discard(idx)
                changed = True

    missing = _uncovered([triples[idx] for idx in alive], f, g)
    if not missing:
        surviving = Bisimulation(tuple(triples[idx] for idx in sorted(alive)))
        ok, why = verify_bisimulation(surviving, f, g)
        if not ok:
            raise NotFunctorial(f"fixpoint produced an invalid relation: {why}")
        return BisimResult("yes", exact, surviving, ())
    refutation = tuple(
        f"uncovered {side} object {_fmt(obj)}" for side, obj in missing[:max_trace]
    ) + tuple(trace)
    verdict = "no" if exact else "unknown"
    return BisimResult(verdict, exact, None, refutation)


def span_to_bisimulation(p: DiagramMap, q: DiagramMap) -> Bisimulation:
    """The relation induced by a span of open maps out of one diagram."""
    if p.src is not q.src:
        raise ValueError("span legs must share their source diagram")
    for name, leg in (("left", p), ("right", q)):
        chk = check_open(leg)
        if not chk.ok:
            raise NotOpen(f"{name} leg is not open: {chk.failures[0]}")
    seen = {}
    for k in p.src.index.objects:
        i = p.obj_map[k]
        j = q.obj_map[k]
        eta = q.components[k].compose(p.components[k].inverse())
        seen.setdefault((i, j), eta)
    bis = Bisimulation(tuple((i, eta, j) for (i, j), eta in seen.items()))
    ok, why = verify_bisimulation(bis, p.tgt, q.tgt)
    if not ok:
        raise NotOpen(f"span relation fails verification: {why}")
    return bis
