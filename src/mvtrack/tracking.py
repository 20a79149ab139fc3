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

Loop invariant: the zigzag ends on a validated canonical pair (closure,
mouth) of the tracked set under the field the next step starts from.  A set
is an isolated invariant set exactly when that pair is an index pair for it,
so `run_protocol` checks the seed once and no step re-checks its start.
Every other pair a step appends, its closing pair canonical(result) last, is
validated once; a failure raises, since it signals a bug, not bad input.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .complexes import Complex, SimplexSet
from .dynamics import (IndexPair, PreconditionError, invariant_part, is_isolated_invariant_set,
                       isolates, push_forward, validate_index_pair, validate_index_pair_in_n,
                       validate_pair_in_n)
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


def _canonical(cx: Complex, subset: SimplexSet) -> IndexPair:
    return IndexPair(cx.closure(subset), cx.mouth(subset))


def _push_forward_pair(field: MultivectorField, pair: IndexPair, nbhd: SimplexSet) -> IndexPair:
    """`pair` pushed forward inside the closed set `nbhd`."""
    return IndexPair(push_forward(field, pair.P, nbhd), push_forward(field, pair.E, nbhd))


_CHAIN = (("canonical", "canonical pair"), ("pushforward", "push-forward pair"),
          ("meet", "intersected pair"), ("connecting", "connecting pair"))


def _chain(field: MultivectorField, subset: SimplexSet, pair: IndexPair,
           p: int, tag: int) -> tuple[list[IndexPair], list[PairTag]]:
    """canonical(S) <= pf-pair >= meet <= (P,E), each an index pair for S.

    Read backwards, the chain connects (P,E) down to canonical(S), which is
    validated elsewhere: as the zigzag's end before a step, or as a step's
    closing pair.  Each other distinct pair is validated once, by first label."""
    canonical = _canonical(field.cx, subset)
    pf_pair = _push_forward_pair(field, canonical, pair.P)
    chain = [canonical, pf_pair, IndexPair(pair.P & pf_pair.P, pair.E & pf_pair.E), pair]
    seen = {canonical}
    for (_, label), candidate in zip(_CHAIN[1:], chain[1:]):
        if candidate not in seen:
            seen.add(candidate)
            _require(validate_index_pair(field, candidate.P, candidate.E, subset, p), label)
    return chain, [PairTag(tag, role) for role, _ in _CHAIN]


def _adjacency_chunk(field: MultivectorField, nxt: MultivectorField,
                     current: SimplexSet, result: SimplexSet, ambient: SimplexSet,
                     p: int, index: int):
    """canonical(S) <= pf >= meet <= pf' >= canonical(S'), pairs after canonical(S).

    A push-forward pair is an index pair once it passes in the common
    isolating set, which contains it.  The meet encodes the invariant part of
    its own body, so only its closedness, images and exits can fail."""
    pf1 = _push_forward_pair(field, _canonical(field.cx, current), ambient)
    pf2 = _push_forward_pair(nxt, _canonical(nxt.cx, result), ambient)
    meet = IndexPair(pf1.P & pf2.P, pf1.E & pf2.E)
    for fld, pf, subset in ((field, pf1, current), (nxt, pf2, result)):
        _require(validate_index_pair_in_n(fld, pf.P, pf.E, ambient, subset, p),
                 "push-forward pair in the common isolating set")
    _require(validate_pair_in_n(intersect_fields(field, nxt), meet.P, meet.E, ambient),
             "intersected pair under the common refinement")
    tags = [PairTag(index, "pushforward"), PairTag(index + 1, "meet"),
            PairTag(index + 1, "pushforward"), PairTag(index + 1, "canonical")]
    return [pf1, meet, pf2, _canonical(nxt.cx, result)], [FORWARD, BACKWARD] * 2, tags


def _naive_chunk(cx: Complex, current: SimplexSet, result: SimplexSet,
                 tag_nxt: int):
    """canonical(S) >= raw meet <= canonical(S'), flagged heuristic."""
    meet = IndexPair(cx.closure(current) & cx.closure(result),
                     cx.mouth(current) & cx.mouth(result))
    tags = [PairTag(tag_nxt, "naive-meet", heuristic=True),
            PairTag(tag_nxt, "canonical", heuristic=True)]
    return [meet, _canonical(cx, result)], [BACKWARD, FORWARD], tags


def _case_step(field: MultivectorField, nxt: MultivectorField, current: SimplexSet,
               known: IndexPair, p: int, heuristic_g: bool, index: int) -> TrackingStep:
    """The case of one step and its pairs, all checked but the closing pair."""
    cx = field.cx
    move = classify_rearrangement(field, nxt)

    def continuation(case, result, pair, hull_set=None) -> TrackingStep:
        out, out_tags = _chain(field, current, pair, p, index)
        back, back_tags = _chain(nxt, result, pair, p, index + 1)
        return TrackingStep(index, case, move.kind, current, result, move,
                            connecting_pair=pair, hull_set=hull_set,
                            appended_pairs=out[1:] + back[-2::-1],
                            appended_dirs=[FORWARD, BACKWARD] * 3,
                            appended_tags=out_tags[1:] + back_tags[-2::-1])

    merged = move.whole
    if move.kind == "refinement" or merged <= current:
        case = "a" if move.kind == "refinement" else "b"
        return continuation(case, invariant_part(nxt, current, p), known)
    if not merged & current:
        return continuation("c", current, known)

    hull_set = hull(nxt, current | merged)
    result = invariant_part(nxt, hull_set, p)
    if invariant_part(field, hull_set, p) == current:
        return continuation("d", result, _canonical(cx, hull_set), hull_set)

    # No continuation exists past this point; fall back to persistence.
    ambient = cx.closure(current) | cx.closure(result)
    if isolates(field, ambient, current, p) and isolates(nxt, ambient, result, p):
        pairs, dirs, tags = _adjacency_chunk(field, nxt, current, result, ambient, p, index)
        return TrackingStep(index, "f", move.kind, current, result, move, hull_set=hull_set,
                            adjacency_set=ambient, appended_pairs=pairs, appended_dirs=dirs,
                            appended_tags=tags, notes=("continuation broken",))

    notes = ("continuation broken", "no common isolating set")
    if not heuristic_g:
        return TrackingStep(index, "g", move.kind, current, None, move, hull_set=hull_set,
                            notes=notes, resolved=False)
    pairs, dirs, tags = _naive_chunk(cx, current, result, index + 1)
    middle = validate_pair_in_n(nxt, pairs[0].P, pairs[0].E, pairs[0].P)
    notes += ("heuristic intersection emitted"
              + ("" if middle else "; middle pair is not an index pair"),)
    return TrackingStep(index, "g", move.kind, current, result, move, hull_set=hull_set,
                        appended_pairs=pairs, appended_dirs=dirs, appended_tags=tags,
                        notes=notes)


def _step(field: MultivectorField, nxt: MultivectorField, current: SimplexSet,
          known: IndexPair, p: int, heuristic_g: bool, index: int) -> TrackingStep:
    """One step from `known`, the validated canonical pair of `current` under
    `field`, to a closing pair validated here: the next step's `known` pair."""
    step = _case_step(field, nxt, current, known, p, heuristic_g, index)
    if step.resolved:
        closing = step.appended_pairs[-1]
        _require(validate_index_pair(nxt, closing.P, closing.E, step.result, p), "canonical pair")
    return step


def track_step(field: MultivectorField, nxt: MultivectorField, current: SimplexSet,
               p: int = 2, heuristic_g: bool = False, step_index: int = 1) -> TrackingStep:
    """Apply one protocol step for the rearrangement `field` -> `nxt`.

    The returned step records the fired case, the new invariant set, and the
    pairs it appends to a zigzag whose current end is the canonical pair of
    `current`.
    """
    current = field.cx.check_subset(current)
    if not current:
        raise PreconditionError("tracking needs a nonempty seed")
    if not is_isolated_invariant_set(field, current, p):
        raise PreconditionError("tracked set is not an isolated invariant set")
    return _step(field, nxt, current, _canonical(field.cx, current), p, heuristic_g, step_index)


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

    zz_pairs: list[IndexPair] = [_canonical(cx, seed)]
    zz_dirs: list[str] = []
    zz_tags: list[PairTag] = [PairTag(1, "canonical")]
    steps: list[TrackingStep] = []
    current = seed
    stopped = "completed"
    for i in range(len(fields) - 1):
        step = _step(fields[i], fields[i + 1], current, zz_pairs[-1], p, heuristic_g, i + 1)
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
