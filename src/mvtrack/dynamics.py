"""Invariant parts, isolation, index pairs, and push-forwards.

The dynamics of a field on a subset A is the directed graph with vertex set
A and an edge sigma -> tau whenever tau lies in the induced multivalued map
of sigma, restricted to A.  The invariant part of A is a union of blocks,
the simplices of A in one multivector, and is found by peeling blocks that
cannot lie on an essential solution.  One loop, `_peel`, does every peel:
`invariant_part` starts it from each block without a neighbour on one side,
with every block's neighbours tabled, and the tracking protocol from the
blocks a step touched.  The peel keeps the largest set of blocks in which
each regular block keeps a successor (a face) and a predecessor (a coface).
In a convex set, facets keep the same blocks: a facet link is a face link,
and a face of a member is reached by a chain of facets in the set, on which
each block has a link each way, so the blocks kept along faces, with those
chains, keep the rule along facets.  So one pass over the members' facets,
`_facet_pass`, finds convexity, compatibility and the links at once.  Tests
check the peel against the definition, the SCC reduction and face links.
Index pairs have one validator, `validate_index_pair_in_n`, and one scan,
which names the least offender.  It, `isolates` and `push_forward` scan
every set for closedness but one closed by construction (see `complexes`),
as a push-forward is.

All functions are pure; scratch state is private per call.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Collection, NamedTuple, Optional

from .algebra import relative_homology
from .complexes import Complex, Simplex, SimplexSet, _Closed, facets, proper_faces
from .fields import AtomicRearrangement, CheckReport, MultivectorField


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold."""


class IndexPair(NamedTuple("IndexPair", [("P", SimplexSet), ("E", SimplexSet)])):
    """An ordered pair of closed sets with E contained in P."""
    __slots__ = ()

    def __new__(cls, P: Collection[Simplex], E: Collection[Simplex]) -> "IndexPair":
        P = P if isinstance(P, frozenset) else frozenset(P)
        E = E if isinstance(E, frozenset) else frozenset(E)
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
    """Everything reachable from `seeds` by steps of the dynamics inside `nbhd`.
    Closed seeds hold their faces, so only their multivectors lead on."""
    seen = set(seeds)
    stack = ([s for s in _image(field, seeds) - seeds if s in nbhd]
             if isinstance(seeds, _Closed) else list(seen))
    seen.update(stack)
    while stack:
        for nxt in field.fmap(stack.pop()) & nbhd:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _image(field: MultivectorField, members: Collection[Simplex]) -> SimplexSet:
    """The one-step image of `members`: their closures and multivectors, each
    multivector taken once.  A closed set is its own closure."""
    closures = (members,) if isinstance(members, _Closed) else map(field.cx.closure_of, members)
    return frozenset().union(*closures, *field.parts_meeting(members))


def _least_leaving(field: MultivectorField, members: SimplexSet, target: SimplexSet,
                   cut: SimplexSet) -> Optional[Simplex]:
    """The least member whose image, cut to `cut`, leaves `target`, or None.
    Closures and multivectors are tested apart, and only offenders compared."""
    leaving = (_image(field, members) - target) & cut
    if not leaving:
        return None
    return min(s for s in members if not (leaving.isdisjoint(field.cx.closure_of(s))
                                          and leaving.isdisjoint(field.part_of(s))))


def _facet_pass(field: MultivectorField, subset: SimplexSet) -> tuple[list[str], dict, dict]:
    """The faults "convex" and "compatible" of `subset`, and its blocks' links
    along facets.  A facet outside with a face inside lies between members."""
    ids = dict(zip(subset, map(field.mv_id, subset)))
    succ: dict[Simplex, set[Simplex]] = {b: set() for b in ids.values()}
    pred: dict[Simplex, set[Simplex]] = {b: set() for b in succ}
    convex = True
    for s, b in ids.items():
        for f in combinations(s, len(s) - 1):
            c = ids.get(f)
            if c is None:
                convex = convex and (len(f) < 2 or subset.isdisjoint(proper_faces(f)))
            elif c != b:
                succ[b].add(c)
                pred[c].add(b)
    compatible = all(field.part(b) <= subset for b in succ)
    return [n for n, ok in (("convex", convex), ("compatible", compatible)) if not ok], succ, pred


def invariant_part(field: MultivectorField, subset: Collection[Simplex],
                   p: int = 2) -> SimplexSet:
    """Simplices of the subset lying on an essential solution inside it: the
    peel of every block, linked along facets, or along faces if not convex."""
    cx, mv_id = field.cx, field.mv_id
    subset = cx.check_subset(subset)
    faults, succ, pred = _facet_pass(field, subset)
    for s in subset if "convex" in faults else ():
        b = mv_id(s)
        for c in {mv_id(t) for t in cx.closure_of(s) & subset} - {b}:
            succ[b].add(c)
            pred[c].add(b)
    return _peel(field, subset, [b for b in succ if not succ[b] or not pred[b]], p, (succ, pred))


def _peel(field: MultivectorField, subset: SimplexSet, seeds: Collection[Simplex],
          p: int = 2, links: Optional[tuple[dict, dict]] = None) -> SimplexSet:
    """invariant_part(field, subset) by the peel from the blocks `seeds`.

    A block is the set of simplices of the subset in one multivector.  Each
    block maps onto itself, since fmap(s) holds the multivector of s, so the
    answer is a union of blocks, and steps between blocks go to faces.  The
    essential blocks reach, and are reached from, a critical block or a cycle
    of blocks.  Peeling every regular block without a successor (a face) or a
    predecessor (a coface) among those left, until none is, keeps exactly
    these: a block on an essential solution keeps its neighbours on it, and
    a regular block left has a successor and a predecessor left, so walks
    from it both ways end at a critical block or on a cycle.  A peeled block
    pushes its neighbours, the only blocks that can lose one, so the seeds
    need only hold each regular block lacking a successor or a predecessor.
    Hence the peel of X = `subset` is exact when X holds a set S = Inv(f, S)
    under some field f, every block meeting X \\ S is a seed, and so is every
    block of a multivector that `field` has and f lacks: any other block is
    one of S under f, as critical, and its neighbours there lie in others.
    `_repair` is X = S, f the field before a move; in `tracking`, the hull
    test is f = `field`, and S' f the field before the merge.  Neighbours
    come from `links`, every block's successors and predecessors, else from
    the popped block's members' facets and cofacets, X and S being convex.
    A block popped again is not decided again."""
    cx, mv_id, peeled = field.cx, field.mv_id, set()
    critical = cache(lambda b: field.is_critical(b, p))
    stack = list(seeds)
    while stack:
        b = stack.pop()
        if b not in peeled and not critical(b):
            if links is None:
                part = field.part(b) & subset
                succ = {mv_id(t) for s in part for t in facets(s) if t in subset} - {b}
                pred = {mv_id(t) for s in part for t in cx.cofacets(s) if t in subset} - {b}
            else:
                succ, pred = links[0][b], links[1][b]
            if succ <= peeled or pred <= peeled:
                peeled.add(b)
                stack += (succ | pred) - peeled
    return subset.difference(*map(field.part, peeled)) if peeled else subset


def _repair(field: MultivectorField, subset: SimplexSet, move: AtomicRearrangement,
            p: int = 2) -> SimplexSet:
    """invariant_part(field, subset) for a set invariant under the field that
    `move` made `field` from: its added parts seed the peel (see `_peel`)."""
    return _peel(field, subset, [min(a) for a in move.added if not a.isdisjoint(subset)], p)


def isolation_faults(field: MultivectorField, subset: Collection[Simplex],
                     p: int = 2) -> list[str]:
    """The conditions of isolation the set fails: "convex", "compatible", and
    "invariant", which is asked only of a convex, compatible set."""
    subset = field.cx.check_subset(subset)
    faults, succ, pred = _facet_pass(field, subset)
    seeds = [b for b in succ if not succ[b] or not pred[b]]
    return faults or ["invariant"] * (_peel(field, subset, seeds, p, (succ, pred)) != subset)


def is_isolated_invariant_set(field: MultivectorField, subset: Collection[Simplex],
                              p: int = 2) -> bool:
    """Convex, compatible and invariant (the three are equivalent to isolation)."""
    return not isolation_faults(field, subset, p)


def isolates(field: MultivectorField, nbhd: Collection[Simplex],
             subset: Collection[Simplex]) -> bool:
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
    return _Closed(_reachable(field, nbhd, subset))


def _canonical(cx: Complex, subset: SimplexSet, convex: bool = False) -> IndexPair:
    """(closure, closure - subset), unchecked; a convex set's mouth is closed,
    as a mouth simplex with a face in the set lies between two members."""
    closure = cx.closure(subset)
    return IndexPair(closure, (_Closed if convex else frozenset)(closure - subset))


def canonical_index_pair(field: MultivectorField, subset: Collection[Simplex]) -> IndexPair:
    """(closure, mouth) of a convex compatible set: the minimal index pair
    for its invariant part."""
    subset = field.cx.check_subset(subset)
    faults = _facet_pass(field, subset)[0]
    if faults:
        raise PreconditionError(f"canonical index pair needs a {faults[0]} set")
    return _canonical(field.cx, subset, convex=True)


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
    return relative_homology(field.cx, *canonical_index_pair(field, subset), p)
