"""Invariant parts, isolation, index pairs, and push-forwards.

The dynamics of a field on a subset A is the directed graph with vertex set
A and an edge sigma -> tau whenever tau lies in the induced multivalued map
of sigma, restricted to A.  The invariant part of A is a union of blocks,
the simplices of A in one multivector, and is found by peeling blocks that
cannot lie on an essential solution.  The peel is validated against a
direct essential-solution search and against the former strongly connected
component reduction in the test suite.  Index pairs have one validator,
`validate_index_pair_in_n`, and one scan, which names the least offender.

All functions are pure; scratch state is private per call.
"""

from __future__ import annotations

from functools import cache
from typing import Collection, NamedTuple, Optional

from .algebra import relative_homology
from .complexes import Complex, Simplex, SimplexSet
from .fields import AtomicRearrangement, CheckReport, MultivectorField


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold."""


class IndexPair(NamedTuple("IndexPair", [("P", SimplexSet), ("E", SimplexSet)])):
    """An ordered pair of closed sets with E contained in P."""
    __slots__ = ()

    def __new__(cls, P: Collection[Simplex], E: Collection[Simplex]) -> "IndexPair":
        P, E = frozenset(P), frozenset(E)
        if not E <= P:
            raise ValueError("E must be a subset of P")
        return super().__new__(cls, P, E)

    @property
    def body(self) -> SimplexSet:
        return self.P - self.E

    def includes(self, other: "IndexPair") -> bool:
        return other.P <= self.P and other.E <= self.E


def _reachable(field: MultivectorField, nbhd: SimplexSet,
               seeds: Collection[Simplex]) -> set[Simplex]:
    """Everything reachable from `seeds` by steps of the dynamics inside `nbhd`."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for nxt in field.fmap(stack.pop()) & nbhd:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _image(field: MultivectorField, members: Collection[Simplex]) -> SimplexSet:
    """The one-step image of `members`: their closures and multivectors, each
    multivector taken once."""
    return frozenset().union(*map(field.cx.closure_of, members), *field.parts_meeting(members))


def _least_leaving(field: MultivectorField, members: SimplexSet, target: SimplexSet,
                   cut: SimplexSet) -> Optional[Simplex]:
    """The least member whose image, cut to `cut`, leaves `target`, or None.
    Closures and multivectors are tested apart, and only offenders compared."""
    leaving = (_image(field, members) - target) & cut
    if not leaving:
        return None
    return min(s for s in members if not (leaving.isdisjoint(field.cx.closure_of(s))
                                          and leaving.isdisjoint(field.part_of(s))))


def invariant_part(field: MultivectorField, subset: Collection[Simplex],
                   p: int = 2) -> SimplexSet:
    """Simplices of the subset lying on an essential solution inside it.

    A block is the set of simplices of the subset that lie in one multivector.
    Each block maps onto itself, since fmap(s) contains the multivector of s,
    so the answer is a union of blocks, and the only steps between blocks go
    to faces.  The essential blocks are those that reach, and are reached
    from, a critical block or a cycle of blocks.  Peeling every regular block
    without a predecessor or a successor among the remaining blocks, until
    none is left, keeps exactly these: a block on an essential solution keeps
    its neighbours on that solution, and a remaining regular block has a
    remaining predecessor and successor, so walks from it both ways end at a
    critical block or on a cycle.  A block popped again is not decided again.
    """
    cx = field.cx
    subset = cx.check_subset(subset)
    blocks: dict[Simplex, list[Simplex]] = {}
    for s in subset:
        blocks.setdefault(field.mv_id(s), []).append(s)
    succ: dict[Simplex, set[Simplex]] = {b: set() for b in blocks}
    pred: dict[Simplex, set[Simplex]] = {b: set() for b in blocks}
    for b, members in blocks.items():
        for s in members:
            for t in cx.closure_of(s):
                if t in subset:
                    c = field.mv_id(t)
                    if c != b:
                        succ[b].add(c)
                        pred[c].add(b)
    critical = cache(lambda b: field.is_critical(b, p))
    stack = [b for b in blocks if not succ[b] or not pred[b]]
    while stack:
        b = stack.pop()
        if b not in blocks or critical(b):
            continue
        del blocks[b]
        for c in succ.pop(b):
            pred[c].discard(b)
            if not pred[c]:
                stack.append(c)
        for c in pred.pop(b):
            succ[c].discard(b)
            if not succ[c]:
                stack.append(c)
    return frozenset(s for members in blocks.values() for s in members)


def _repair(field: MultivectorField, subset: SimplexSet, move: AtomicRearrangement,
            p: int = 2) -> SimplexSet:
    """invariant_part(field, subset) for a set invariant under the field that
    `move` made `field` from.  A block of a part the move keeps is the same
    set, as critical, and each neighbour it had under the old field lies in
    another block, so only the blocks of the parts the move adds can start
    the peel.  A popped block is peeled unless critical or left with a
    successor (a face) and a predecessor (a coface in the set) among the
    blocks kept; a peeled block pushes its neighbours, the only blocks that
    can lose one.  A block popped again, being critical or kept with both
    neighbours, is not decided again."""
    cx, peeled = field.cx, set()
    critical = cache(lambda b: field.is_critical(b, p))
    stack = [min(part) for part in move.added if not part.isdisjoint(subset)]
    while stack:
        b = stack.pop()
        if b not in peeled and not critical(b):
            members = field.part(b) & subset
            succ = {field.mv_id(t) for s in members for t in cx.closure_of(s) if t in subset}
            pred = {field.mv_id(t) for s in members for t in cx.star((s,)) if t in subset}
            if not succ - peeled - {b} or not pred - peeled - {b}:
                peeled.add(b)
                stack += (succ | pred) - peeled
    return subset.difference(*map(field.part, peeled))


def is_invariant(field: MultivectorField, subset: Collection[Simplex], p: int = 2) -> bool:
    subset = field.cx.check_subset(subset)
    return invariant_part(field, subset, p) == subset


def is_isolated_invariant_set(field: MultivectorField, subset: Collection[Simplex],
                              p: int = 2) -> bool:
    """Invariant, convex and compatible (the three are equivalent to isolation)."""
    subset = field.cx.check_subset(subset)
    return (is_invariant(field, subset, p)
            and field.cx.is_convex(subset)
            and field.is_compatible(subset))


def isolates(field: MultivectorField, nbhd: Collection[Simplex],
             subset: Collection[Simplex], p: int = 2) -> bool:
    """Does the closed set `nbhd` isolate the invariant set `subset`?

    Requires the one-step image of the set inside `nbhd`, and no path within
    `nbhd` that leaves the set and later re-enters it.
    """
    cx = field.cx
    nbhd, subset = map(cx.check_subset, (nbhd, subset))
    image = _image(field, subset)
    if not cx.is_closed(nbhd) or not image <= nbhd:
        return False
    return not (_reachable(field, nbhd, image - subset) & subset)


def push_forward(field: MultivectorField, subset: Collection[Simplex],
                 nbhd: Collection[Simplex]) -> SimplexSet:
    """Everything in the closed set `nbhd` reachable from `subset` inside it."""
    cx = field.cx
    nbhd = cx.check_subset(nbhd)
    subset = cx.check_subset(subset)
    if not subset <= nbhd:
        raise ValueError("push-forward seed must lie inside the ambient set")
    if not cx.is_closed(nbhd):
        raise ValueError("push-forward ambient set must be closed")
    return frozenset(_reachable(field, nbhd, subset))


def _canonical(cx: Complex, subset: SimplexSet) -> IndexPair:
    """(closure, closure - subset), unchecked."""
    closure = cx.closure(subset)
    return IndexPair(closure, closure - subset)


def canonical_index_pair(field: MultivectorField, subset: Collection[Simplex]) -> IndexPair:
    """(closure, mouth) of a convex compatible set: the minimal index pair
    for its invariant part."""
    cx = field.cx
    subset = cx.check_subset(subset)
    if not cx.is_convex(subset):
        raise PreconditionError("canonical index pair needs a convex set")
    if not field.is_compatible(subset):
        raise PreconditionError("canonical index pair needs a compatible set")
    return _canonical(cx, subset)


def validate_index_pair_in_n(field: MultivectorField, pset: Collection[Simplex],
                             eset: Collection[Simplex], nbhd: Collection[Simplex],
                             subset: Optional[Collection[Simplex]], p: int = 2) -> CheckReport:
    """Diagnostic check of (P, E) as an index pair inside `nbhd` for `subset`:
    closedness, images, exits and no re-entry into N outside P, then the
    fourth condition, Inv(P \\ E) = subset, unless `subset` is None.  With
    N = P the re-entry condition holds trivially, and each failed condition is
    reported once, naming P.  An image message names the least offender."""
    cx = field.cx
    pset, eset, nbhd = map(cx.check_subset, (pset, eset, nbhd))
    n = "P" if nbhd == pset else "N"
    problems = [f"{name} is not closed" for name, x in {"P": pset, "E": eset, n: nbhd}.items()
                if not cx.is_closed(x)]
    if not eset <= pset:
        problems.append("E is not a subset of P")
    for message, members, target, cut in (
            (f"image of {{}} escapes {n}", pset - eset, nbhd, cx.simplices),
            (f"image of exit simplex {{}} re-enters {n} outside E", eset, eset, nbhd),
            ("image of {} re-enters N outside P", pset if n == "N" else frozenset(), pset, nbhd)):
        s = _least_leaving(field, members, target, cut)
        if s is not None:
            problems.append(message.format(s))
    if subset is not None and invariant_part(field, pset - eset, p) != cx.check_subset(subset):
        problems.append("invariant part of P \\ E differs from the given set")
    return CheckReport(not problems, tuple(problems))


def validate_index_pair(field: MultivectorField, pset: Collection[Simplex],
                        eset: Collection[Simplex], subset: Collection[Simplex],
                        p: int = 2) -> CheckReport:
    """Diagnostic check of the index-pair conditions for the given invariant set."""
    return validate_index_pair_in_n(field, pset, eset, pset, subset, p)


def conley_index(field: MultivectorField, subset: Collection[Simplex],
                 p: int = 2) -> tuple:
    """Betti vector of the canonical index pair of an isolated invariant set."""
    pair = canonical_index_pair(field, subset)
    return relative_homology(field.cx, pair.P, pair.E, p)
