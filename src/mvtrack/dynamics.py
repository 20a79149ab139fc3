"""Invariant parts, isolation, index pairs, and push-forwards.

The dynamics of a field on a subset A is the directed graph with vertex set
A and an edge sigma -> tau whenever tau lies in the induced multivalued map
of sigma, restricted to A.  The invariant part of A consists of the
simplices that see an essential core in both directions, where the core
collects simplices of critical multivectors together with simplices whose
strongly connected component meets more than one multivector.  This
reduction is validated against a direct essential-solution search in the
test suite.

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


def step_graph(field: MultivectorField, subset: SimplexSet) -> dict[Simplex, list[Simplex]]:
    """Successor lists of the dynamics restricted to `subset`."""
    return {s: sorted(field.fmap(s) & subset) for s in subset}


def _reachable(adj: dict[Simplex, list[Simplex]], seeds: Collection[Simplex]) -> set[Simplex]:
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _reverse(adj: dict[Simplex, list[Simplex]]) -> dict[Simplex, list[Simplex]]:
    rev: dict[Simplex, list[Simplex]] = {s: [] for s in adj}
    for s, nbrs in adj.items():
        for t in nbrs:
            rev[t].append(s)
    return rev


def strongly_connected_components(adj: dict[Simplex, list[Simplex]]) -> list[set[Simplex]]:
    """Tarjan's algorithm, iterative to sidestep recursion limits."""
    index: dict[Simplex, int] = {}
    low: dict[Simplex, int] = {}
    on_stack: set[Simplex] = set()
    stack: list[Simplex] = []
    counter = 0
    out: list[set[Simplex]] = []
    for root in adj:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    comp.add(top)
                    if top == node:
                        break
                out.append(comp)
    return out


def invariant_part(field: MultivectorField, subset: Collection[Simplex],
                   p: int = 2) -> SimplexSet:
    """Simplices of the subset lying on an essential solution inside it."""
    subset = field.cx.check_subset(subset)
    if not subset:
        return frozenset()
    adj = step_graph(field, subset)
    core: set[Simplex] = {s for s in subset if field.is_critical(field.mv_id(s), p)}
    for comp in strongly_connected_components(adj):
        if len({field.mv_id(s) for s in comp}) > 1:
            core |= comp
    if not core:
        return frozenset()
    forward = _reachable(adj, core)
    backward = _reachable(_reverse(adj), core)
    return frozenset(forward & backward)


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
    adj = step_graph(field, nbhd)
    return not (_reachable(adj, exits) & subset)


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
    return frozenset(_reachable(step_graph(field, nbhd), subset))


def canonical_index_pair(field: MultivectorField, subset: Collection[Simplex],
                         p: int = 2) -> IndexPair:
    """(closure, mouth) of a convex compatible set: the minimal index pair
    for its invariant part."""
    cx = field.cx
    subset = cx.check_subset(subset)
    if not cx.is_convex(subset):
        raise PreconditionError("canonical index pair needs a convex set")
    if not field.is_compatible(subset):
        raise PreconditionError("canonical index pair needs a compatible set")
    return IndexPair(cx.closure(subset), cx.mouth(subset))


def validate_index_pair_in_n(field: MultivectorField, pset: Collection[Simplex],
                             eset: Collection[Simplex], nbhd: Collection[Simplex],
                             subset: Collection[Simplex], p: int = 2) -> CheckReport:
    """Diagnostic check of the four conditions for an index pair inside `nbhd`.

    With N = P these are the conditions for an index pair, and each failed
    condition is reported once, naming P.
    """
    cx = field.cx
    pset = cx.check_subset(pset)
    eset = cx.check_subset(eset)
    nbhd = cx.check_subset(nbhd)
    subset = cx.check_subset(subset)
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
    body = pset - eset
    for s in sorted(body):
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
    if invariant_part(field, body, p) != subset:
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
    pair = canonical_index_pair(field, subset, p)
    return relative_homology(field.cx, pair.P, pair.E, p)
