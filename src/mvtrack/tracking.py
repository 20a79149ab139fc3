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
mouth) of the tracked set under the field the next step starts from, both
tagged closed (see `complexes`).  A set is an isolated invariant set exactly
when that pair is an index pair for it, so `run_protocol` checks the seed
once and no step re-checks its start.  Continuation is by definition: S
continues to S' when one pair (P,E) isolates S under the first field and S'
is the invariant part of P \\ E under the next.  In cases a-c that pair is
canonical(S): S' is the peel repaired from the blocks the step touches, and
the chains under the first field, and under the next where S' = S, need no
push-forward.  In cases d, f and g the hull grows from S, and its test and
S' = Inv(hull) under the next field both peel from the blocks of hull \\ S,
so no step peels a whole set.  One loop checks each other pair a step
appends once per field and set N it is checked in, for the conditions that
can fail; a failure raises, since it signals a bug, not bad input.  A step
takes one closure, of S' where it is new, and tags every set it builds but
the mouth of S', whose check is that S' is convex.  A step reads its
rearrangement from the next field's record where there is one, and appends
pairs only: `PairZigzag` infers every arrow.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .complexes import Complex, SimplexSet, _Closed, facets
from .dynamics import (IndexPair, PreconditionError, _canonical, _peel, _repair,
                       is_isolated_invariant_set, isolates, push_forward, validate_index_pair_in_n)
from .fields import (AtomicRearrangement, MultivectorField,
                     classify_rearrangement, validate_field)
from .zigzag import Barcode, PairTag, PairZigzag, pair_zigzag_barcode


class ZigzagAssemblyError(RuntimeError):
    """A constructed pair failed validation; indicates an internal bug."""


def hull(field: MultivectorField, subset: SimplexSet) -> SimplexSet:
    """Minimal convex and compatible superset, grown from the empty set."""
    return _grow(field, frozenset(), frozenset(), field.cx.check_subset(subset))[0]


def _grow(field: MultivectorField, current: SimplexSet, closure: SimplexSet,
          added: SimplexSet) -> tuple[SimplexSet, SimplexSet]:
    """hull(field, current | added) and its closure, for a convex `current`
    with closure `closure` whose every multivector lies in current | added.
    Each new member, taken once, adds its multivector, its facets with a face
    in the set and its cofacets in the closure so far, whence a chain of such
    steps from the member of two taken last reaches what lies between them."""
    cx = field.cx
    out, faces, stack = set(current | added), set(), list(added - current)
    while stack:
        x = stack.pop()
        faces.update(cx.closure_of(x))
        new = {f for f in facets(x) if f not in out and not out.isdisjoint(cx.closure_of(f))}
        new.update(c for c in cx.cofacets(x) if c not in out and (c in closure or c in faces))
        new.update(field.part_of(x) - out)
        out.update(new)
        stack += new
    return frozenset(out), _Closed(closure | faces)


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


def _meet(a: IndexPair, b: IndexPair) -> IndexPair:
    """(P & P', E & E'), each tagged closed where both of its sides are."""
    return IndexPair(*(_Closed(x & y) if isinstance(x, _Closed) and isinstance(y, _Closed)
                       else x & y for x, y in zip(a, b)))


def _checked(field: MultivectorField, known: IndexPair, links: list, p: int, roles: tuple,
             index: int) -> tuple:
    """The pairs a step appends and their tags, read off its checked links by
    `roles`: (link index, field offset of the tag, role) for each, in zigzag order.

    A link is (pair, field, subset, what, nbhd).  Each distinct pair is checked
    once per field and set N it is checked inside, `nbhd` or else P, in link
    order, and stands in the step tagged closed: an index pair inside N is
    one inside its own P, and `known` one under `field`.  The fourth
    condition, Inv(P \\ E) = subset, is checked only where it can fail: every
    set a step checks pairs for is invariant under that field, and the
    invariant part is idempotent, so it holds for a body equal to `subset`;
    `subset` None means it holds by construction."""
    checked = {(id(field), known, known.P): known}
    for pair, fld, subset, what, nbhd in links:
        nbhd = pair.P if nbhd is None else nbhd
        if (id(fld), pair, nbhd) not in checked:
            report = validate_index_pair_in_n(fld, pair.P, pair.E, nbhd,
                                              None if pair.body == subset else subset, p)
            if not report:
                raise ZigzagAssemblyError(f"{what}: " + "; ".join(report.problems))
            checked[id(fld), pair, nbhd] = checked[id(fld), pair, pair.P] = IndexPair(
                *(x if isinstance(x, _Closed) else _Closed(x) for x in pair))
    pairs = [checked[id(fld), pair, pair.P] for pair, fld, _, _, _ in links]
    return [pairs[i] for i, _, _ in roles], [PairTag(index + k, role) for _, k, role in roles]


_CONTINUED = ((2, 0, "pushforward"), (1, 0, "meet"), (0, 0, "connecting"),
              (5, 1, "meet"), (6, 1, "pushforward"), (7, 1, "canonical"))
_ADJACENT = ((0, 0, "pushforward"), (2, 1, "meet"), (1, 1, "pushforward"), (3, 1, "canonical"))


def _step(field: MultivectorField, nxt: MultivectorField, current: SimplexSet,
          known: IndexPair, p: int, heuristic_g: bool, index: int) -> TrackingStep:
    """One step from `known`, the validated canonical pair of `current` under
    `field`, to canonical(result) under `nxt`.

    Continuation connects through (P,E), `known` in cases a-c and
    canonical(hull) in case d: canonical(S) <= pf >= meet <= (P,E) under
    `field`, then (P,E) >= meet' <= pf' >= canonical(S') under `nxt`, each
    an index pair for its set, checked from (P,E) back.  (P,E) needs no
    fourth condition: S is the invariant part of its body by definition of
    S' under the next field, and by the hull test of case d under the first.
    A start equal to (P,E) gives its chain as (P,E) four times: pushed inside
    P, P is P and E is E by the exit condition.

    Case f goes canonical(S) <= pf >= meet <= pf' >= canonical(S') in the
    common isolating set N.  A push-forward pair is an index pair once it
    passes in N, and so in its own P: canonical(S') is checked only where it
    differs from pf'.  The meet encodes the invariant part of its body, and
    is checked under the common refinement of the two fields where it
    differs from pf.  Only a merge reaches case f, since a refinement
    continues (case a), and the common refinement of a field and a merge of
    two of its parts is that field: `field`, the field pf is checked under."""
    move = classify_rearrangement(field, nxt)
    merged, hull_set, pair = move.whole, None, known
    if move.kind == "refinement" or merged <= current or not merged & current:
        case = "a" if move.kind == "refinement" else "b" if merged <= current else "c"
        result = _repair(nxt, current, move, p)
    else:
        hull_set, hull_closure = _grow(nxt, current, known.P, merged)
        # Inv(hull) under either field is the peel from the blocks of hull - current (see
        # `_peel`): the merged multivector meets it, and every other block is one of `current`.
        outside = hull_set - current
        case = "d" if _peel(field, hull_set, set(map(field.mv_id, outside)), p) == current else "f"
        pair = IndexPair(hull_closure, _Closed(hull_closure - hull_set)) if case == "d" else None
        # The hull is convex, so it is the body of canonical(hull): one S' for d and f.
        result = _peel(nxt, hull_set, set(map(nxt.mv_id, outside)), p)
    closing = known if result == current else _canonical(field.cx, result)

    if pair is not None:
        if case == "c" and result != current:
            raise ZigzagAssemblyError("case c: a merge outside the set changed its invariant part")
        links = []
        for fld, subset, start in ((field, current, known), (nxt, result, closing)):
            pf = pair if start == pair else _push_forward_pair(fld, start, pair.P)
            links += [(pair, fld, None, "connecting pair", None),
                      (_meet(pair, pf), fld, subset, "meet pair", None),
                      (pf, fld, subset, "pushforward pair", None),
                      (start, fld, subset, "canonical pair", None)]
        pairs, tags = _checked(field, known, links, p, _CONTINUED, index)
        return TrackingStep(index, case, current, result, move, pairs, tags,
                            connecting_pair=pair, hull_set=hull_set)

    # No continuation exists past this point; fall back to persistence.
    ambient = _Closed(known.P | closing.P)
    if isolates(field, ambient, current) and isolates(nxt, ambient, result):
        pf = _push_forward_pair(field, known, ambient)
        pf_next = _push_forward_pair(nxt, closing, ambient)
        in_n = "push-forward pair in the common isolating set"
        links = [(pf, field, current, in_n, ambient), (pf_next, nxt, result, in_n, ambient),
                 (_meet(pf, pf_next), field, None,
                  "intersected pair under the common refinement", ambient),
                 (closing, nxt, result, "canonical pair", None)]
        pairs, tags = _checked(field, known, links, p, _ADJACENT, index)
        return TrackingStep(index, "f", current, result, move, pairs, tags, hull_set=hull_set,
                            adjacency_set=ambient, notes=("continuation broken",))

    notes = ("continuation broken", "no common isolating set")
    if not heuristic_g:
        return TrackingStep(index, "g", current, None, move, [], [], hull_set=hull_set,
                            notes=notes, resolved=False)
    [closing], tags = _checked(field, known, [(closing, nxt, result, "canonical pair", None)],
                               p, ((0, 1, "canonical"),), index)
    meet = _meet(known, closing)
    middle = validate_index_pair_in_n(nxt, meet.P, meet.E, meet.P, None)
    notes += ("heuristic intersection emitted"
              + ("" if middle else "; middle pair is not an index pair"),)
    return TrackingStep(index, "g", current, result, move, [meet, closing],
                        [PairTag(index + 1, "naive-meet")] + tags, hull_set=hull_set, notes=notes)


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
    return _step(field, nxt, current, _canonical(field.cx, current, convex=True), p,
                 heuristic_g, step_index)


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

    zz_pairs: list[IndexPair] = [_canonical(cx, seed, convex=True)]
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
