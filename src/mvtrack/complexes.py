"""Finite simplicial complexes with face-poset queries.

A simplex is a tuple of strictly increasing vertex ids.  A complex stores
every simplex explicitly and precomputes closures and facet/cofacet
adjacency: the dynamics layers are graph traversals over these relations,
and at the scales this package targets every algorithm touches every
simplex anyway.

All types are immutable after construction and every operation is a pure
function, so concurrent readers are safe.
"""

from __future__ import annotations

import itertools
from typing import Collection, FrozenSet, Iterable, Tuple

Simplex = Tuple[int, ...]
SimplexSet = FrozenSet[Simplex]


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


def facets(sigma: Simplex) -> list[Simplex]:
    """Codimension-one faces of sigma."""
    if len(sigma) == 1:
        return []
    return [sigma[:i] + sigma[i + 1:] for i in range(len(sigma))]


class Complex:
    """A finite simplicial complex, closed under the face relation."""

    __slots__ = ("simplices", "dim", "_closure_of", "_cofacets", "_sorted")

    def __init__(self, simplices: Iterable[Iterable[int]]):
        sset = frozenset(simplex(s) for s in simplices)
        for s in sset:
            for f in facets(s):
                if f not in sset:
                    raise ValueError(f"not closed under faces: {f} missing (face of {s})")
        self.simplices = sset
        self.dim = max((len(s) - 1 for s in sset), default=-1)
        self._sorted = tuple(sorted(sset))
        self._closure_of = {s: frozenset(proper_faces(s)) | {s} for s in sset}
        cof: dict[Simplex, list[Simplex]] = {s: [] for s in sset}
        for s in sset:
            for f in facets(s):
                cof[f].append(s)
        self._cofacets = {s: tuple(sorted(v)) for s, v in cof.items()}

    @classmethod
    def from_maximal(cls, maximal: Iterable[Iterable[int]]) -> "Complex":
        """Build a complex from (at least) its maximal simplices, completing the closure."""
        sset: set[Simplex] = set()
        for m in maximal:
            s = simplex(m)
            sset.add(s)
            sset.update(proper_faces(s))
        return cls(sset)

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

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(s[0] for s in self.simplices if len(s) == 1))

    def sorted_simplices(self) -> tuple[Simplex, ...]:
        return self._sorted

    def check_subset(self, subset: Collection[Simplex]) -> SimplexSet:
        """Normalize a collection of simplices, requiring membership in the complex."""
        out = frozenset(subset)
        for s in out:
            if s not in self.simplices:
                raise ValueError(f"simplex {s} not in complex")
        return out

    def cofacets(self, sigma: Simplex) -> tuple[Simplex, ...]:
        return self._cofacets[sigma]

    def closure_of(self, sigma: Simplex) -> SimplexSet:
        """All faces of sigma, sigma included."""
        return self._closure_of[sigma]

    def closure(self, subset: Collection[Simplex]) -> SimplexSet:
        """Union of the closures of the members."""
        subset = self.check_subset(subset)
        out: set[Simplex] = set()
        for s in subset:
            out |= self._closure_of[s]
        return frozenset(out)

    def star(self, subset: Collection[Simplex]) -> SimplexSet:
        """Every simplex having a member as a face, the members included."""
        out = set(self.check_subset(subset))
        stack = list(out)
        while stack:
            for c in self._cofacets[stack.pop()]:
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
        return all(f in subset for s in subset for f in facets(s))

    def is_convex(self, subset: Collection[Simplex]) -> bool:
        """True iff the set contains every simplex sandwiched between two members.

        A violation needs some rho outside the set with a coface and a face
        inside it, so only mouth simplices can ever violate convexity.
        """
        subset = self.check_subset(subset)
        for rho in self.mouth(subset):
            if any(f in subset for f in proper_faces(rho)):
                return False
        return True
