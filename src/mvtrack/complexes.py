"""Finite simplicial complexes with face-poset queries.

A simplex is a tuple of strictly increasing vertex ids.  A complex stores
every simplex explicitly; the dynamics layers are graph traversals over the
face relation, and at the scales this package targets every algorithm
touches every simplex anyway.  The face tables are built on demand: the
closure of a simplex on its first lookup, the cofacet table on its first
use.  Homology reads only a pair's simplex sets and the complex's
dimension, so it never builds them, and `is_convex` works from shape or
facets and reads no table.

`from_maximal` normalizes each simplex, then completes the closure and hands
the set over unchecked; the scene loader, whose parser normalizes, takes the
second step alone, and both refuse more than MAX_FACES faces before building
one.  `Complex(simplices)` checks both steps.  The simplex set is immutable,
and every table fill computes a value from it alone and stores it once, so a
repeated or concurrent fill stores an equal value and readers are safe.
A set closed by construction (`closure`, a push-forward, a convex set's
mouth, a meet or union of such sets, a set a check found closed) is a private
`frozenset` subclass, which `is_closed` answers and `check_subset` keeps.
"""

from __future__ import annotations

import itertools
from typing import Collection, FrozenSet, Iterable, Tuple

Simplex = Tuple[int, ...]
SimplexSet = FrozenSet[Simplex]
MAX_FACES = 10 ** 6  # 2^k - 1 faces for each listed k-vertex simplex, summed


class _Closed(frozenset):
    """A simplex set closed under faces by construction."""
    __slots__ = ()


def simplex(vertices: Iterable[int]) -> Simplex:
    """Normalize vertex ids into a simplex tuple (sorted, distinct, non-empty)."""
    vs = tuple(sorted(vertices))
    if not vs:
        raise ValueError("a simplex needs at least one vertex")
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"repeated vertex {a} in simplex {vs}")
    return vs


def proper_faces(sigma: Simplex) -> list[Simplex]:
    """All non-empty faces of sigma other than sigma itself."""
    out = []
    for k in range(1, len(sigma)):
        out.extend(itertools.combinations(sigma, k))
    return out


def _face_codim(a: Simplex, b: Simplex) -> int:
    """The codimension of the smaller simplex in the larger if a face of it, else 0."""
    small, big = (a, b) if len(a) < len(b) else (b, a)
    return len(big) - len(small) if set(big).issuperset(small) else 0


def facets(sigma: Simplex) -> list[Simplex]:
    """Codimension-one faces of sigma."""
    if len(sigma) == 1:
        return []
    return [sigma[:i] + sigma[i + 1:] for i in range(len(sigma))]


class Complex:
    """A finite simplicial complex, closed under the face relation."""

    __slots__ = ("simplices", "dim", "_closure_of", "_cofacets")

    def __init__(self, simplices: Iterable[Iterable[int]]):
        sset = frozenset(simplex(s) for s in simplices)
        for s in sset:
            for f in facets(s):
                if f not in sset:
                    raise ValueError(f"not closed under faces: {f} missing (face of {s})")
        self._adopt(sset)

    def _adopt(self, sset: SimplexSet) -> None:
        """Take a normalized, closed simplex set as this complex's own."""
        self.simplices = sset
        self.dim = max(map(len, sset), default=0) - 1
        self._closure_of: dict[Simplex, SimplexSet] = {}
        self._cofacets: dict[Simplex, tuple[Simplex, ...]] | None = None

    @classmethod
    def from_maximal(cls, maximal: Iterable[Iterable[int]]) -> "Complex":
        """Build a complex from (at least) its maximal simplices, completing the closure."""
        return cls._from_normalized(map(simplex, maximal))

    @classmethod
    def _from_normalized(cls, maximal: Iterable[Simplex]) -> "Complex":
        """from_maximal for simplices that are normalized already."""
        maximal = list(maximal)
        if sum(2 ** len(s) - 1 for s in maximal) > MAX_FACES:
            raise ValueError(f"the listed simplices have more than MAX_FACES = {MAX_FACES} faces")
        sset: set[Simplex] = set()
        for s in maximal:
            if s not in sset:  # a member's faces are members already
                sset.add(s)
                sset.update(proper_faces(s))
        cx = cls.__new__(cls)
        cx._adopt(frozenset(sset))
        return cx

    def __len__(self) -> int:
        return len(self.simplices)

    def __contains__(self, sigma: Simplex) -> bool:
        return sigma in self.simplices

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Complex)
                                 and self.simplices == other.simplices)

    def __hash__(self) -> int:
        return hash(self.simplices)

    def __repr__(self) -> str:
        return f"Complex({len(self.simplices)} simplices, dim {self.dim})"

    def sorted_simplices(self) -> tuple[Simplex, ...]:
        return tuple(sorted(self.simplices))

    def check_subset(self, subset: Collection[Simplex]) -> SimplexSet:
        """Normalize a collection of simplices, requiring membership in the complex."""
        out = subset if isinstance(subset, frozenset) else frozenset(subset)
        if not out <= self.simplices:
            missing = next(s for s in out if s not in self.simplices)
            raise ValueError(f"simplex {missing} not in complex")
        return out

    def cofacets(self, sigma: Simplex) -> tuple[Simplex, ...]:
        if self._cofacets is None:
            cof: dict[Simplex, list[Simplex]] = {s: [] for s in self.simplices}
            for s in self.simplices:
                for f in facets(s):
                    cof[f].append(s)
            self._cofacets = {s: tuple(sorted(v)) for s, v in cof.items()}
        return self._cofacets[sigma]

    def closure_of(self, sigma: Simplex) -> SimplexSet:
        """All faces of sigma, sigma included."""
        try:
            return self._closure_of[sigma]
        except KeyError:
            if sigma not in self.simplices:
                raise
        out = self._closure_of[sigma] = frozenset(proper_faces(sigma)) | {sigma}
        return out

    def _closures(self, members: SimplexSet) -> list[SimplexSet]:
        """closure_of of every member (all in the complex), in iteration order."""
        table = self._closure_of
        for s in members.difference(table):
            self.closure_of(s)
        return list(map(table.__getitem__, members))

    def closure(self, subset: Collection[Simplex]) -> SimplexSet:
        """Union of the closures of the members."""
        subset = self.check_subset(subset)
        return _Closed(frozenset().union(*self._closures(subset)))

    def star(self, subset: Collection[Simplex]) -> SimplexSet:
        """Every simplex having a member as a face, the members included."""
        out = set(self.check_subset(subset))
        stack = list(out)
        while stack:
            for c in self.cofacets(stack.pop()):
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return frozenset(out)

    def mouth(self, subset: Collection[Simplex]) -> SimplexSet:
        """closure(A) minus A."""
        subset = self.check_subset(subset)
        return self.closure(subset) - subset

    def is_closed(self, subset: Collection[Simplex]) -> bool:
        subset = self.check_subset(subset)
        return isinstance(subset, _Closed) or subset.issuperset(
            itertools.chain.from_iterable(self._closures(subset)))

    def is_convex(self, subset: Collection[Simplex]) -> bool:
        """True iff no simplex outside the set lies between two members.
        Two are convex unless one is a face of the other of codimension >= 2
        (the complex holds the faces between).  Any set is, iff no member tau
        has a facet f outside it with a proper face in it.  Such an f lies
        between; conversely, for g < rho < tau with rho outside, the last
        simplex outside along a facet chain from rho up to tau is such an f.
        Members with at most two vertices have no such f.  No table is read.
        """
        subset = self.check_subset(subset)
        if len(subset) == 2:
            a, b = subset
            return abs(len(a) - len(b)) < 2 or _face_codim(a, b) < 2
        for tau in subset:
            if len(tau) > 2:
                for f in facets(tau):
                    if f not in subset and not subset.isdisjoint(proper_faces(f)):
                        return False
        return True
