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
Continuation is by definition: S continues to S' when one pair (P,E)
isolates S under the first field and S' is the invariant part of P \\ E
under the next.  In cases a-c that pair is canonical(S): S' is the peel
repaired from the blocks the step touches, and the chains under the first
field, and under the next where S' = S, need no push-forward.  Every other
pair a step appends is checked once per field, for the conditions that can
fail; a failure raises, since it signals a bug, not bad input.  A step reads
its rearrangement from the next field's record where there is one, and
appends pairs only: `PairZigzag` infers every arrow.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .complexes import Complex, SimplexSet
from .dynamics import (IndexPair, PreconditionError, _canonical, _repair, invariant_part,
                       is_isolated_invariant_set, isolates, push_forward,
                       validate_index_pair_in_n)
from .fields import (AtomicRearrangement, MultivectorField,
                     classify_rearrangement, validate_field)
from .zigzag import Barcode, PairTag, PairZigzag, pair_zigzag_barcode


class ZigzagAssemblyError(RuntimeError):
    """A constructed pair failed validation; indicates an internal bug."""


def hull(field: MultivectorField, subset: SimplexSet) -> SimplexSet:
    """Minimal convex and compatible superset, by alternating the two closures.

    The convex hull of A is closure(A) & star(A): the simplices lying between
    two members.  Both operators only add simplices, so the loop ends at the
    least fixed point, the intersection of all convex compatible supersets."""
    cx = field.cx
    out = cx.check_subset(subset)
    while True:
        grown = out.union(*field.parts_meeting(out))
        grown = cx.closure(grown) & cx.star(grown)
        if grown == out:
            return out
        out = grown


class TrackingStep(NamedTuple):
    """One protocol step: which case fired and what it contributed."""
    index: int
    case: str
    current: SimplexSet
    result: Optional[SimplexSet]
    rearrangement: AtomicRearrangement
    appended_pairs: list[IndexPair]
    appended_tags: list[PairTag]
    connecting_pair: Optional[IndexPair] = None
    hull_set: Optional[SimplexSet] = None
    adjacency_set: Optional[SimplexSet] = None
    notes: tuple = ()
    resolved: bool = True


class TrackingTrace(NamedTuple):
    cx: Complex
    fields: list[MultivectorField]
    seed: SimplexSet
    steps: list[TrackingStep]
    zigzag: PairZigzag
    barcode: Barcode
    stopped: str  # completed | emptied | unresolved


def _push_forward_pair(field: MultivectorField, pair: IndexPair, nbhd: SimplexSet) -> IndexPair:
    """`pair` pushed forward inside the closed set `nbhd` (P = `nbhd` stays as it is)."""
    pushed_p = nbhd if pair.P == nbhd else push_forward(field, pair.P, nbhd)
    return IndexPair(pushed_p, push_forward(field, pair.E, nbhd))


def _check(field: MultivectorField, pair: IndexPair, subset: Optional[SimplexSet], p: int,
           what: str, nbhd: Optional[SimplexSet] = None):
    """`pair` as an index pair for `subset` inside `nbhd` (P by default).

    The fourth condition, Inv(P \\ E) = subset, is checked only where it can
    fail.  Every set a step checks pairs for is invariant under that field,
    and the invariant part is idempotent, so the condition holds for a body
    equal to `subset`; `subset` None means it holds by construction."""
    report = validate_index_pair_in_n(field, pair.P, pair.E, pair.P if nbhd is None else nbhd,
                                      None if pair.body == subset else subset, p)
    if not report:
        raise ZigzagAssemblyError(f"{what}: " + "; ".join(report.problems))


_CHAIN = ("canonical", "pushforward", "meet", "connecting")


def _chain(field: MultivectorField, subset: SimplexSet, pair: IndexPair, p: int, tag: int,
           start: Optional[IndexPair] = None) -> tuple[list[IndexPair], list[PairTag]]:
    """canonical(S) <= pf-pair >= meet <= (P,E), each an index pair for S.

    The connecting pair (P,E) needs no fourth condition: S is the invariant
    part of its body by definition of S' under the next field, and by the
    hull test of case d under the first.  Each distinct pair but `start`, the
    zigzag's validated end, is checked once, from (P,E) back.  If (P,E) is
    canonical(S) the chain is (P,E) four times: pushed inside P, P is P and E
    is E by the exit condition, of the loop invariant under the first field
    and checked below under the next."""
    canonical = _canonical(field.cx, subset)
    pf_pair = pair if canonical == pair else _push_forward_pair(field, canonical, pair.P)
    chain = [canonical, pf_pair, IndexPair(pair.P & pf_pair.P, pair.E & pf_pair.E), pair]
    seen = {start}
    for role, candidate in reversed(list(zip(_CHAIN, chain))):
        if candidate not in seen:
            seen.add(candidate)
            _check(field, candidate, None if candidate is pair else subset, p, f"{role} pair")
    return chain, [PairTag(tag, role) for role in _CHAIN]


def _adjacency_chunk(field: MultivectorField, nxt: MultivectorField, current: SimplexSet,
                     result: SimplexSet, ambient: SimplexSet, p: int, index: int):
    """canonical(S) <= pf >= meet <= pf' >= canonical(S'), pairs after canonical(S).

    A push-forward pair is an index pair once it passes in the common
    isolating set, and so in its own P: canonical(S') is checked only where
    it differs from pf'.  The meet encodes the invariant part of its body,
    and is checked under the common refinement of the two fields where it
    differs from pf.  Only a merge reaches this chunk, since a refinement
    continues (case a), and the common refinement of a field and a merge of
    two of its parts is that field: `field`, the field pf is checked under."""
    pf1 = _push_forward_pair(field, _canonical(field.cx, current), ambient)
    closing = _canonical(nxt.cx, result)
    pf2 = _push_forward_pair(nxt, closing, ambient)
    meet = IndexPair(pf1.P & pf2.P, pf1.E & pf2.E)
    for fld, pf, subset in ((field, pf1, current), (nxt, pf2, result)):
        _check(fld, pf, subset, p, "push-forward pair in the common isolating set", ambient)
    if meet != pf1:
        _check(field, meet, None, p, "intersected pair under the common refinement", ambient)
    if closing != pf2:
        _check(nxt, closing, result, p, "canonical pair")
    tags = [PairTag(index, "pushforward"), PairTag(index + 1, "meet"),
            PairTag(index + 1, "pushforward"), PairTag(index + 1, "canonical")]
    return [pf1, meet, pf2, closing], tags


def _naive_chunk(cx: Complex, current: SimplexSet, result: SimplexSet, tag_nxt: int):
    """canonical(S) >= raw meet <= canonical(S'), the meet tagged naive-meet."""
    first, second = _canonical(cx, current), _canonical(cx, result)
    meet = IndexPair(first.P & second.P, first.E & second.E)
    tags = [PairTag(tag_nxt, "naive-meet"), PairTag(tag_nxt, "canonical")]
    return [meet, second], tags


def _step(field: MultivectorField, nxt: MultivectorField, current: SimplexSet,
          known: IndexPair, p: int, heuristic_g: bool, index: int) -> TrackingStep:
    """One step from `known`, the validated canonical pair of `current` under
    `field`, to canonical(result) under `nxt`.  Continuation connects through
    `known` in cases a-c, and through canonical(hull) in case d."""
    cx = field.cx
    move = classify_rearrangement(field, nxt)
    merged, hull_set, pair = move.whole, None, known
    if move.kind == "refinement" or merged <= current or not merged & current:
        case = "a" if move.kind == "refinement" else "b" if merged <= current else "c"
        result = _repair(nxt, current, move, p)
    else:
        hull_set = hull(nxt, current | merged)
        case = "d" if invariant_part(field, hull_set, p) == current else "f"
        pair = _canonical(cx, hull_set) if case == "d" else None
        # The hull is convex, so it is the body of canonical(hull): one S' for d and f.
        result = invariant_part(nxt, hull_set, p)

    if pair is not None:
        if case == "c" and result != current:
            raise ZigzagAssemblyError("case c: a merge outside the set changed its invariant part")
        out, out_tags = _chain(field, current, pair, p, index, known)
        back, back_tags = _chain(nxt, result, pair, p, index + 1)
        return TrackingStep(index, case, current, result, move, connecting_pair=pair,
                            hull_set=hull_set, appended_pairs=out[1:] + back[-2::-1],
                            appended_tags=out_tags[1:] + back_tags[-2::-1])

    # No continuation exists past this point; fall back to persistence.
    ambient = cx.closure(current) | cx.closure(result)
    if isolates(field, ambient, current, p) and isolates(nxt, ambient, result, p):
        pairs, tags = _adjacency_chunk(field, nxt, current, result, ambient, p, index)
        return TrackingStep(index, "f", current, result, move, hull_set=hull_set,
                            adjacency_set=ambient, appended_pairs=pairs, appended_tags=tags,
                            notes=("continuation broken",))

    notes = ("continuation broken", "no common isolating set")
    if not heuristic_g:
        return TrackingStep(index, "g", current, None, move, [], [], hull_set=hull_set,
                            notes=notes, resolved=False)
    pairs, tags = _naive_chunk(cx, current, result, index + 1)
    _check(nxt, pairs[-1], result, p, "canonical pair")
    middle = validate_index_pair_in_n(nxt, pairs[0].P, pairs[0].E, pairs[0].P, None)
    notes += ("heuristic intersection emitted"
              + ("" if middle else "; middle pair is not an index pair"),)
    return TrackingStep(index, "g", current, result, move, hull_set=hull_set,
                        appended_pairs=pairs, appended_tags=tags, notes=notes)


def track_step(field: MultivectorField, nxt: MultivectorField, current: SimplexSet,
               p: int = 2, heuristic_g: bool = False, step_index: int = 1) -> TrackingStep:
    """Apply one protocol step for the rearrangement `field` -> `nxt`: the
    fired case, the new invariant set, and the pairs it appends to a zigzag
    ending on the canonical pair of `current`."""
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
    zz_tags: list[PairTag] = [PairTag(1, "canonical")]
    steps: list[TrackingStep] = []
    current = seed
    stopped = "completed"
    for i in range(len(fields) - 1):
        step = _step(fields[i], fields[i + 1], current, zz_pairs[-1], p, heuristic_g, i + 1)
        steps.append(step)
        zz_pairs += step.appended_pairs
        zz_tags += step.appended_tags
        if not step.resolved:
            stopped = "unresolved"
            break
        current = step.result
        if not current:
            stopped = "emptied"
            break
    zigzag = PairZigzag(cx, zz_pairs, zz_tags)
    barcode = pair_zigzag_barcode(zigzag, p)
    return TrackingTrace(cx, list(fields), seed, steps, zigzag, barcode, stopped)
