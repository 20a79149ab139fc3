"""Invariant parts, isolation, index pairs, and push-forwards.

The dynamics of a field on a subset A is the directed graph with vertex set
A and an edge sigma -> tau whenever tau lies in the induced multivalued map
of sigma, restricted to A.  The invariant part of A is a union of blocks,
the simplices of A in one multivector, and is found by peeling blocks that
cannot lie on an essential solution.  The peel is validated against a
direct essential-solution search and against the former strongly connected
component reduction in the test suite.

All functions are pure; scratch state is private per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

from .algebra import relative_homology
from .complexes import Simplex, SimplexSet
from .fields import CheckReport, MultivectorField


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold."""


@dataclass(frozen=True)
class IndexPair:
    """An ordered pair of closed sets with E contained in P."""
    P: SimplexSet
    E: SimplexSet

    def __post_init__(self):
        object.__setattr__(self, "P", frozenset(self.P))
        object.__setattr__(self, "E", frozenset(self.E))
        if not self.E <= self.P:
            raise ValueError("E must be a subset of P")

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
    critical block or on a cycle.
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
    stack = [b for b in blocks if not succ[b] or not pred[b]]
    while stack:
        b = stack.pop()
        if b not in blocks or field.is_critical(b, p):
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
    nbhd = cx.check_subset(nbhd)
    subset = cx.check_subset(subset)
    if not cx.is_closed(nbhd):
        return False
    exits: set[Simplex] = set()
    for s in subset:
        image = field.fmap(s)
        if not image <= nbhd:
            return False
        exits |= image & nbhd
    exits -= subset
    if not exits:
        return True
    return not (_reachable(field, nbhd, exits) & subset)


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


def canonical_index_pair(field: MultivectorField, subset: Collection[Simplex]) -> IndexPair:
    """(closure, mouth) of a convex compatible set: the minimal index pair
    for its invariant part."""
    cx = field.cx
    subset = cx.check_subset(subset)
    if not cx.is_convex(subset):
        raise PreconditionError("canonical index pair needs a convex set")
    if not field.is_compatible(subset):
        raise PreconditionError("canonical index pair needs a compatible set")
    return IndexPair(cx.closure(subset), cx.mouth(subset))


def validate_pair_in_n(field: MultivectorField, pset: Collection[Simplex],
                       eset: Collection[Simplex], nbhd: Collection[Simplex]) -> CheckReport:
    """The conditions for an index pair inside `nbhd` that do not name its
    invariant set: closedness, images and exits.  With N = P they are checked
    for P itself, and each failed condition is reported once, naming P."""
    cx = field.cx
    pset = cx.check_subset(pset)
    eset = cx.check_subset(eset)
    nbhd = cx.check_subset(nbhd)
    in_p = nbhd == pset
    n = "P" if in_p else "N"
    problems = []
    if not cx.is_closed(pset):
        problems.append("P is not closed")
    if not cx.is_closed(eset):
        problems.append("E is not closed")
    if not in_p and not cx.is_closed(nbhd):
        problems.append("N is not closed")
    if not eset <= pset:
        problems.append("E is not a subset of P")
    for s in sorted(pset - eset):
        if not field.fmap(s) <= nbhd:
            problems.append(f"image of {s} escapes {n}")
            break
    for s in sorted(eset):
        if not field.fmap(s) & nbhd <= eset:
            problems.append(f"image of exit simplex {s} re-enters {n} outside E")
            break
    if not in_p:  # with N = P this condition holds trivially
        for s in sorted(pset):
            if not field.fmap(s) & nbhd <= pset:
                problems.append(f"image of {s} re-enters N outside P")
                break
    return CheckReport(not problems, tuple(problems))


def validate_index_pair_in_n(field: MultivectorField, pset: Collection[Simplex],
                             eset: Collection[Simplex], nbhd: Collection[Simplex],
                             subset: Collection[Simplex], p: int = 2) -> CheckReport:
    """Diagnostic check of the conditions of `validate_pair_in_n` and of the
    fourth: the invariant part of P \\ E is the given set."""
    problems = validate_pair_in_n(field, pset, eset, nbhd).problems
    if invariant_part(field, set(pset) - set(eset), p) != field.cx.check_subset(subset):
        problems += ("invariant part of P \\ E differs from the given set",)
    return CheckReport(not problems, problems)


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
