"""The tracking protocol: following one isolated invariant set across a
sequence of atomic rearrangements, emitting a zigzag of index pairs.

A step first attempts continuation (refinement; or coarsening with the
merged multivector inside, outside, or straddling the tracked set).  When
continuation is impossible the step falls back to the next invariant set
inside the minimal convex compatible hull, connecting the two canonical
pairs through push-forwards in the union of their closures whenever that
union isolates both ("adjacent" sets).  Failing that the step is
unresolved; an optional heuristic emits the raw intersection of canonical
pairs, which is generally not an index pair and is flagged as such.

Every pair appended to the global zigzag is re-validated against the set
it is supposed to encode; a failure raises, since it signals a bug
upstream, not bad user input.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .complexes import Complex, SimplexSet
from .dynamics import (IndexPair, PreconditionError, canonical_index_pair, invariant_part,
                       is_isolated_invariant_set, isolates, push_forward,
                       validate_index_pair, validate_index_pair_in_n)
from .fields import (AtomicRearrangement, CheckReport, MultivectorField,
                     classify_rearrangement, intersect_fields, validate_field)
from .zigzag import BACKWARD, FORWARD, Barcode, PairTag, PairZigzag, pair_zigzag_barcode


class ZigzagAssemblyError(RuntimeError):
    """A constructed pair failed validation; indicates an internal bug."""


def _require(report: CheckReport, what: str):
    if not report:
        raise ZigzagAssemblyError(f"{what}: " + "; ".join(report.problems))


def hull(field: MultivectorField, subset: SimplexSet) -> SimplexSet:
    """Minimal convex and compatible superset, by alternating the two closures.

    The convex hull of A is closure(A) & star(A): the simplices lying between
    two members.  Both closure operators only add simplices, so the loop
    terminates at the least fixed point, which is the intersection of all
    convex compatible supersets.
    """
    cx = field.cx
    out = cx.check_subset(subset)
    while True:
        grown = set(out)
        for s in out:
            grown |= field.part_of(s)
        grown = cx.closure(grown) & cx.star(grown)
        if grown == out:
            return out
        out = grown


@dataclass
class TrackingStep:
    """One protocol step: which case fired and what it contributed."""
    index: int
    case: str
    kind: str
    current: SimplexSet
    result: Optional[SimplexSet]
    rearrangement: AtomicRearrangement
    connecting_pair: Optional[IndexPair] = None
    hull_set: Optional[SimplexSet] = None
    adjacency_set: Optional[SimplexSet] = None
    appended_pairs: list = dc_field(default_factory=list)
    appended_dirs: list = dc_field(default_factory=list)
    appended_tags: list = dc_field(default_factory=list)
    notes: tuple = ()
    resolved: bool = True


@dataclass
class TrackingTrace:
    cx: Complex
    fields: Sequence[MultivectorField]
    seed: SimplexSet
    steps: list[TrackingStep]
    zigzag: PairZigzag
    barcode: Barcode
    stopped: str  # completed | emptied | unresolved


def _push_forward_pair(field: MultivectorField, subset: SimplexSet,
                       nbhd: SimplexSet) -> IndexPair:
    """The canonical pair of `subset` pushed forward inside the closed set `nbhd`."""
    cx = field.cx
    return IndexPair(push_forward(field, cx.closure(subset), nbhd),
                     push_forward(field, cx.mouth(subset), nbhd))


_CHAIN = (("canonical", "canonical pair"), ("pushforward", "push-forward pair"),
          ("meet", "intersected pair"), ("connecting", "connecting pair"))


def _chain(field: MultivectorField, subset: SimplexSet, pair: IndexPair,
           p: int, tag: int) -> tuple[list[IndexPair], list[PairTag]]:
    """canonical(S) <= pf-pair >= meet <= (P,E), each validated as an index pair for S.

    The arrows between consecutive pairs run forward, backward, forward; read
    backwards, the chain connects (P,E) down to canonical(S).  Pairs often
    coincide, so each distinct pair is validated once, under its first label.
    """
    cx = field.cx
    pf_pair = _push_forward_pair(field, subset, pair.P)
    chain = [IndexPair(cx.closure(subset), cx.mouth(subset)), pf_pair,
             IndexPair(pair.P & pf_pair.P, pair.E & pf_pair.E), pair]
    labels: dict[IndexPair, str] = {}
    for (_, label), candidate in zip(_CHAIN, chain):
        labels.setdefault(candidate, label)
    for candidate, label in labels.items():
        _require(validate_index_pair(field, candidate.P, candidate.E, subset, p), label)
    return chain, [PairTag(tag, role) for role, _ in _CHAIN]


def _adjacency_chunk(field: MultivectorField, nxt: MultivectorField,
                     current: SimplexSet, result: SimplexSet, ambient: SimplexSet,
                     p: int, tag_cur: int, tag_nxt: int):
    """canonical(S) <= pf >= meet <= pf' >= canonical(S'), pairs after canonical(S)."""
    cx = field.cx
    pf1 = _push_forward_pair(field, current, ambient)
    pf2 = _push_forward_pair(nxt, result, ambient)
    meet = IndexPair(pf1.P & pf2.P, pf1.E & pf2.E)
    canonical2 = IndexPair(cx.closure(result), cx.mouth(result))
    _require(validate_index_pair(field, pf1.P, pf1.E, current, p), "push-forward pair")
    _require(validate_index_pair_in_n(field, pf1.P, pf1.E, ambient, current, p),
             "push-forward pair in the common isolating set")
    mixed = intersect_fields(field, nxt)
    middle_set = invariant_part(mixed, meet.body, p)
    _require(validate_index_pair_in_n(mixed, meet.P, meet.E, ambient, middle_set, p),
             "intersected pair under the common refinement")
    _require(validate_index_pair(nxt, pf2.P, pf2.E, result, p), "push-forward pair")
    _require(validate_index_pair_in_n(nxt, pf2.P, pf2.E, ambient, result, p),
             "push-forward pair in the common isolating set")
    _require(validate_index_pair(nxt, canonical2.P, canonical2.E, result, p),
             "canonical pair")
    pairs = [pf1, meet, pf2, canonical2]
    dirs = [FORWARD, BACKWARD, FORWARD, BACKWARD]
    tags = [PairTag(tag_cur, "pushforward"), PairTag(tag_nxt, "meet"),
            PairTag(tag_nxt, "pushforward"), PairTag(tag_nxt, "canonical")]
    return pairs, dirs, tags


def _naive_chunk(cx: Complex, current: SimplexSet, result: SimplexSet,
                 tag_nxt: int):
    """canonical(S) >= raw meet <= canonical(S'), flagged heuristic."""
    meet = IndexPair(cx.closure(current) & cx.closure(result),
                     cx.mouth(current) & cx.mouth(result))
    canonical2 = IndexPair(cx.closure(result), cx.mouth(result))
    tags = [PairTag(tag_nxt, "naive-meet", heuristic=True),
            PairTag(tag_nxt, "canonical", heuristic=True)]
    return [meet, canonical2], [BACKWARD, FORWARD], tags


def track_step(field: MultivectorField, nxt: MultivectorField, current: SimplexSet,
               p: int = 2, heuristic_g: bool = False, step_index: int = 1) -> TrackingStep:
    """Apply one protocol step for the rearrangement `field` -> `nxt`.

    The returned step records the fired case, the new invariant set, and the
    pairs it appends to a zigzag whose current end is the canonical pair of
    `current`.
    """
    cx = field.cx
    current = cx.check_subset(current)
    if not current:
        raise PreconditionError("tracking needs a nonempty seed")
    if not is_isolated_invariant_set(field, current, p):
        raise PreconditionError("tracked set is not an isolated invariant set")
    move = classify_rearrangement(field, nxt)
    tag_cur, tag_nxt = step_index, step_index + 1

    def continuation(case: str, result: SimplexSet, pair: IndexPair,
                     hull_set=None) -> TrackingStep:
        step = TrackingStep(step_index, case, move.kind, current, result, move,
                            connecting_pair=pair, hull_set=hull_set)
        out, out_tags = _chain(field, current, pair, p, tag_cur)
        back, back_tags = _chain(nxt, result, pair, p, tag_nxt)
        step.appended_pairs = out[1:] + back[-2::-1]
        step.appended_dirs = [FORWARD, BACKWARD] * 3
        step.appended_tags = out_tags[1:] + back_tags[-2::-1]
        return step

    if move.kind == "refinement":
        result = invariant_part(nxt, current, p)
        return continuation("a", result, canonical_index_pair(field, current, p))

    merged = move.whole
    if merged <= current:
        result = invariant_part(nxt, current, p)
        return continuation("b", result, canonical_index_pair(field, current, p))
    if not merged & current:
        result = frozenset(current)
        return continuation("c", result, canonical_index_pair(field, current, p))

    hull_set = hull(nxt, current | merged)
    result = invariant_part(nxt, hull_set, p)
    if invariant_part(field, hull_set, p) == current:
        return continuation("d", result, canonical_index_pair(nxt, hull_set, p), hull_set)

    # No continuation exists past this point; fall back to persistence.
    ambient = cx.closure(current) | cx.closure(result)
    if isolates(field, ambient, current, p) and isolates(nxt, ambient, result, p):
        step = TrackingStep(step_index, "f", move.kind, current, result, move,
                            hull_set=hull_set, adjacency_set=ambient,
                            notes=("continuation broken",))
        pairs, dirs, tags = _adjacency_chunk(field, nxt, current, result, ambient, p,
                                             tag_cur, tag_nxt)
        step.appended_pairs, step.appended_dirs, step.appended_tags = pairs, dirs, tags
        return step

    notes = ["continuation broken", "no common isolating set"]
    step = TrackingStep(step_index, "g", move.kind, current,
                        result if heuristic_g else None, move,
                        hull_set=hull_set, resolved=heuristic_g)
    if heuristic_g:
        pairs, dirs, tags = _naive_chunk(cx, current, result, tag_nxt)
        meet = pairs[0]
        report = validate_index_pair(nxt, meet.P, meet.E, invariant_part(nxt, meet.body, p), p)
        notes.append("heuristic intersection emitted"
                     + ("" if report else "; middle pair is not an index pair"))
        step.appended_pairs, step.appended_dirs, step.appended_tags = pairs, dirs, tags
    step.notes = tuple(notes)
    return step


def run_protocol(fields: Sequence[MultivectorField], seed: SimplexSet,
                 p: int = 2, heuristic_g: bool = False) -> TrackingTrace:
    """Iterate the protocol across the field sequence, assembling the global
    zigzag and its barcode."""
    if not fields:
        raise PreconditionError("need at least one field")
    cx = fields[0].cx
    seed = cx.check_subset(seed)
    if not seed:
        raise PreconditionError("tracking needs a nonempty seed")
    for i, fld in enumerate(fields):
        report = validate_field(fld)
        if not report:
            raise PreconditionError(f"field {i + 1}: " + "; ".join(report.problems))
    if not is_isolated_invariant_set(fields[0], seed, p):
        raise PreconditionError("seed is not an isolated invariant set under the first field")

    start = canonical_index_pair(fields[0], seed, p)
    zz_pairs: list[IndexPair] = [start]
    zz_dirs: list[str] = []
    zz_tags: list[PairTag] = [PairTag(1, "canonical")]
    steps: list[TrackingStep] = []
    current = seed
    stopped = "completed"
    for i in range(len(fields) - 1):
        step = track_step(fields[i], fields[i + 1], current, p, heuristic_g, i + 1)
        steps.append(step)
        zz_pairs += step.appended_pairs
        zz_dirs += step.appended_dirs
        zz_tags += step.appended_tags
        if not step.resolved:
            stopped = "unresolved"
            break
        current = step.result
        if not current:
            stopped = "emptied"
            break
    zigzag = PairZigzag(cx, zz_pairs, zz_dirs, zz_tags)
    barcode = pair_zigzag_barcode(zigzag, p)
    return TrackingTrace(cx, list(fields), seed, steps, zigzag, barcode, stopped)
