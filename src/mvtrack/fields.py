"""Multivector fields: validation, induced dynamics, atomic rearrangements.

A multivector field is a partition of a complex into convex pieces.  Each
piece is identified by its lexicographically smallest member simplex, which
keeps identities stable across serialization.  Criticality of a piece is the
non-vanishing of the relative homology of (closure, mouth) and is cached per
(piece, characteristic); cache fills are idempotent, so concurrent readers
are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

from .algebra import relative_homology
from .complexes import Complex, Simplex, SimplexSet


class NotAtomicError(ValueError):
    """Two fields do not differ by a single split or merge."""


class MultivectorField:
    """A partition of a complex into multivectors (not necessarily convex).

    The constructor enforces that the parts partition the complex; convexity
    is checked separately by validate_field so that offending parts can be
    reported rather than merely rejected.
    """

    __slots__ = ("cx", "_assign", "_parts", "_criticality")

    def __init__(self, cx: Complex, parts: Iterable[Collection[Simplex]]):
        self.cx = cx
        assign: dict[Simplex, Simplex] = {}
        part_map: dict[Simplex, SimplexSet] = {}
        for raw in parts:
            part = cx.check_subset(raw)
            if not part:
                continue
            ident = min(part)
            if ident in part_map:
                raise ValueError(f"duplicate multivector identifier {ident}")
            part_map[ident] = part
            for s in part:
                if s in assign:
                    raise ValueError(f"simplex {s} assigned to two multivectors")
                assign[s] = ident
        missing = cx.simplices - assign.keys()
        if missing:
            raise ValueError(f"not a partition: {sorted(missing)[0]} unassigned")
        self._assign = assign
        self._parts = part_map
        self._criticality: dict[tuple[Simplex, int], bool] = {}

    @classmethod
    def singleton_field(cls, cx: Complex) -> "MultivectorField":
        return cls(cx, [[s] for s in cx.simplices])

    @classmethod
    def from_parts(cls, cx: Complex, parts: Iterable[Collection[Simplex]],
                   complete_singletons: bool = False) -> "MultivectorField":
        """Build a field; optionally treat unlisted simplices as singletons."""
        listed = [frozenset(cx.check_subset(p)) for p in parts]
        if complete_singletons:
            used = set().union(*listed) if listed else set()
            listed.extend(frozenset([s]) for s in sorted(cx.simplices - used))
        return cls(cx, listed)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MultivectorField)
                and self.cx == other.cx
                and set(self._parts.values()) == set(other._parts.values()))

    def __hash__(self) -> int:
        return hash((self.cx, frozenset(self._parts.values())))

    def __repr__(self) -> str:
        return f"MultivectorField({len(self._parts)} multivectors on {self.cx!r})"

    def mv_id(self, sigma: Simplex) -> Simplex:
        return self._assign[sigma]

    def part(self, ident: Simplex) -> SimplexSet:
        return self._parts[ident]

    def part_of(self, sigma: Simplex) -> SimplexSet:
        """The unique multivector containing sigma."""
        return self._parts[self._assign[sigma]]

    def ids(self) -> tuple[Simplex, ...]:
        return tuple(sorted(self._parts))

    def parts(self) -> tuple[SimplexSet, ...]:
        return tuple(self._parts[i] for i in self.ids())

    def __len__(self) -> int:
        return len(self._parts)

    def fmap(self, sigma: Simplex) -> SimplexSet:
        """Induced multivalued map: closure of sigma united with its multivector."""
        return self.cx.closure_of(sigma) | self.part_of(sigma)

    def is_critical(self, ident: Simplex, p: int = 2) -> bool:
        """Non-trivial relative homology of (closure, mouth) of the multivector."""
        key = (ident, p)
        cached = self._criticality.get(key)
        if cached is None:
            part = self._parts[ident]
            closure = self.cx.closure(part)
            cached = any(relative_homology(self.cx, closure, closure - part, p))
            self._criticality[key] = cached
        return cached

    def is_compatible(self, subset: Collection[Simplex]) -> bool:
        """True iff the set is a union of whole multivectors."""
        subset = self.cx.check_subset(subset)
        return all(self.part_of(s) <= subset for s in subset)

    def split(self, ident: Simplex, off: Collection[Simplex]) -> "MultivectorField":
        """Atomic refinement splitting one multivector into `off` and the rest."""
        part = self._parts[ident]
        off = frozenset(off)
        if not off or not off < part:
            raise ValueError("split piece must be a proper non-empty subset of the multivector")
        parts = [p for i, p in self._parts.items() if i != ident]
        parts.extend([off, part - off])
        return MultivectorField(self.cx, parts)

    def merge(self, ident_a: Simplex, ident_b: Simplex) -> "MultivectorField":
        """Atomic coarsening merging two multivectors into one."""
        if ident_a == ident_b:
            raise ValueError("cannot merge a multivector with itself")
        parts = [p for i, p in self._parts.items() if i not in (ident_a, ident_b)]
        parts.append(self._parts[ident_a] | self._parts[ident_b])
        return MultivectorField(self.cx, parts)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a diagnostic check: truthy iff ok, with the failed conditions."""
    ok: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_field(field: MultivectorField) -> CheckReport:
    """Check that every part is convex, naming offenders (partition is enforced
    at construction).  Disconnected parts are deliberately accepted."""
    problems = []
    for ident in field.ids():
        part = field.part(ident)
        if not field.cx.is_convex(part):
            problems.append(f"multivector {sorted(part)} is not convex")
    return CheckReport(not problems, tuple(problems))


@dataclass(frozen=True)
class AtomicRearrangement:
    """Descriptor of a single split (refinement) or merge (coarsening).

    `whole` is the one multivector that splits (refinement, a part of the
    source field) or results from the merge (coarsening, a part of the
    target field); `parts` are its two halves.
    """
    kind: str  # "refinement" | "coarsening"
    whole: SimplexSet
    parts: tuple[SimplexSet, SimplexSet]


def classify_rearrangement(field: MultivectorField,
                           other: MultivectorField) -> AtomicRearrangement:
    """Classify `other` as an atomic refinement or coarsening of `field`.

    Raises NotAtomicError when the fields are equal, on different complexes,
    or differ by anything other than one split or one merge.
    """
    if field.cx != other.cx:
        raise NotAtomicError("fields live on different complexes")
    old = set(field.parts())
    new = set(other.parts())
    gone = sorted(old - new, key=sorted)
    born = sorted(new - old, key=sorted)
    if len(gone) == 1 and len(born) == 2:
        whole, (a, b) = gone[0], born
        if a | b == whole:
            return AtomicRearrangement("refinement", whole, (a, b))
    if len(gone) == 2 and len(born) == 1:
        (a, b), whole = gone, born[0]
        if a | b == whole:
            return AtomicRearrangement("coarsening", whole, (a, b))
    raise NotAtomicError(
        f"fields differ by {len(gone)} removed / {len(born)} added multivectors")


def _maximal_elements(field: MultivectorField, part: SimplexSet) -> list[Simplex]:
    return [s for s in part
            if not any(c in part for c in field.cx.cofacets(s))]


def refinement_path(field: MultivectorField) -> list[MultivectorField]:
    """Atomic refinements from `field` down to the singleton field.

    Deterministic: always split the lexicographically smallest non-singleton
    multivector at its lexicographically smallest maximal element.  Splitting
    off a maximal element keeps both halves convex.
    """
    path = [field]
    current = field
    while True:
        targets = [i for i in current.ids() if len(current.part(i)) > 1]
        if not targets:
            return path
        ident = targets[0]
        sigma = min(_maximal_elements(current, current.part(ident)))
        current = current.split(ident, {sigma})
        path.append(current)


def rearrangement_path(field: MultivectorField,
                       other: MultivectorField) -> list[MultivectorField]:
    """A chain of atomic rearrangements from `field` to `other`, routed
    through the singleton field."""
    if field.cx != other.cx:
        raise ValueError("fields live on different complexes")
    down = refinement_path(field)
    up = refinement_path(other)
    return down + up[::-1][1:]


def intersect_fields(field: MultivectorField,
                     other: MultivectorField) -> MultivectorField:
    """Common refinement: the nonempty intersections of parts, found by
    grouping simplices by their pair of multivectors."""
    if field.cx != other.cx:
        raise ValueError("fields live on different complexes")
    parts: dict[tuple[Simplex, Simplex], list[Simplex]] = {}
    for s in field.cx.simplices:
        parts.setdefault((field.mv_id(s), other.mv_id(s)), []).append(s)
    return MultivectorField(field.cx, parts.values())
