"""Multivector fields: validation, induced dynamics, atomic rearrangements.

A multivector field is a partition of a complex into convex pieces.  Each
piece is identified by its lexicographically smallest member simplex, which
keeps identities stable across serialization.  Criticality of a piece is the
non-vanishing of the relative homology of (closure, mouth) and is cached per
(piece, characteristic), and the sorted ids and validate_field's convexity
report are stored; every fill is idempotent, so concurrent readers are safe.
Splits and merges derive their result from the parent's tables and keep the
criticality of untouched pieces, as does `successor`, which builds the field a
list of parts makes when it is one split or merge away.  A field records the
step that made it, set by any of these, or else by the first
classify_rearrangement diff.
"""

from __future__ import annotations

import weakref
from typing import Collection, Iterable, Iterator, NamedTuple

from .algebra import relative_homology
from .complexes import Complex, Simplex, SimplexSet


class NotAtomicError(ValueError):
    """Two fields do not differ by a single split or merge."""


class MultivectorField:
    """A partition of a complex into multivectors (not necessarily convex).

    The constructor enforces that the parts partition the complex; convexity
    is checked separately by validate_field so that offending parts can be
    reported rather than merely rejected.  `_step` is None or (weak reference
    to the parent, the AtomicRearrangement that made this field from it); a
    record whose parent is gone is dropped when next read, and none is pickled.
    """

    __slots__ = ("cx", "_assign", "_parts", "_criticality", "_ids", "_report", "_step",
                 "__weakref__")

    def __init__(self, cx: Complex, parts: Iterable[Collection[Simplex]]):
        self._partition(cx, map(cx.check_subset, parts))

    def _partition(self, cx: Complex, parts: Iterable[SimplexSet]) -> None:
        """Adopt `parts`, frozensets of members of cx, as a partition of cx."""
        assign: dict[Simplex, Simplex] = {}
        part_map: dict[Simplex, SimplexSet] = {}
        for part in parts:
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
        self._adopt(cx, assign, part_map, {})

    def _adopt(self, cx: Complex, assign: dict, parts: dict, criticality: dict,
               step: tuple | None = None) -> None:
        self.cx, self._assign, self._parts, self._criticality = cx, assign, parts, criticality
        self._ids, self._report, self._step = None, None, step

    def __getstate__(self):
        """Every slot but the step record: a weak reference cannot be pickled."""
        state = {name: getattr(self, name) for name in self.__slots__[:-2]}
        return None, {**state, "_step": None}

    @classmethod
    def singleton_field(cls, cx: Complex) -> "MultivectorField":
        return cls(cx, [[s] for s in cx.simplices])

    @classmethod
    def from_parts(cls, cx: Complex, parts: Iterable[Collection[Simplex]],
                   complete_singletons: bool = False) -> "MultivectorField":
        """Build a field; optionally treat unlisted simplices as singletons.
        A non-member in any part is named before an overlap."""
        listed = list(map(frozenset, parts))
        used = frozenset().union(*listed)
        if not used <= cx.simplices:
            for part in listed:
                cx.check_subset(part)  # raises, naming the first non-member
        if complete_singletons:
            listed.extend(frozenset([s]) for s in sorted(cx.simplices - used))
        field = cls.__new__(cls)
        field._partition(cx, listed)
        return field

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

    def parts_meeting(self, members: Iterable[Simplex]) -> Iterator[SimplexSet]:
        """Each multivector with a simplex in `members`, once."""
        return map(self._parts.__getitem__, set(map(self._assign.__getitem__, members)))

    def ids(self) -> tuple[Simplex, ...]:
        if self._ids is None:
            self._ids = tuple(sorted(self._parts))
        return self._ids

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
        halves = (off, part - off) if ident in off else (part - off, off)
        return self._replace(AtomicRearrangement("refinement", part, halves))

    def merge(self, ident_a: Simplex, ident_b: Simplex) -> "MultivectorField":
        """Atomic coarsening merging two multivectors into one."""
        if ident_a == ident_b:
            raise ValueError("cannot merge a multivector with itself")
        a, b = self._parts[ident_a], self._parts[ident_b]
        halves = (a, b) if ident_a < ident_b else (b, a)
        return self._replace(AtomicRearrangement("coarsening", a | b, halves))

    def successor(self, parts: Collection[SimplexSet]) -> "MultivectorField | None":
        """The field the frozensets `parts` make, every simplex they leave out
        a singleton, when it is one split or merge away from this field: then
        it is built from this field by that step, which it records.  None
        otherwise, the parts being checked no further."""
        listed = [part for part in parts if part]
        if len(set(listed)) < len(listed):
            return None
        step = _atomic(*_change(self, listed))
        return step and self._replace(step)

    def _replace(self, step: AtomicRearrangement) -> "MultivectorField":
        """The field `step` makes from this one, recording `step`.  Criticality
        entries of every replaced id are dropped: the half of a split that
        keeps the minimum keeps its id, not its content."""
        if step.kind == "refinement":
            gone, born = (min(step.whole),), step.parts
        else:
            gone, born = tuple(map(min, step.parts)), (step.whole,)
        assign = dict(self._assign)
        parts = dict(self._parts)
        for ident in gone:
            del parts[ident]
        for part in born:
            ident = min(part)
            parts[ident] = part
            for s in part:
                assign[s] = ident
        criticality = {key: crit for key, crit in self._criticality.items()
                       if key[0] not in gone}
        child = object.__new__(MultivectorField)
        child._adopt(self.cx, assign, parts, criticality, (weakref.ref(self), step))
        return child


class CheckReport(NamedTuple):
    """Outcome of a diagnostic check: truthy iff ok, with the failed conditions."""
    ok: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_field(field: MultivectorField) -> CheckReport:
    """Check that every part is convex, naming offenders in part-id order
    (partition is enforced at construction).  Disconnected parts are
    deliberately accepted.  The report is stored on the field.

    A field that records the step that made it from a parent which is alive
    and whose stored report is ok is checked only by the parts the step
    added; any other field is checked part by part."""
    if field._report is None:
        record = _record(field)
        if record is None or not record[0]._report:
            checked = field.parts()
        else:
            step = record[1]
            checked = step.parts if step.kind == "refinement" else (step.whole,)
        problems = tuple(f"multivector {sorted(part)} is not convex"
                         for part in checked if not field.cx.is_convex(part))
        field._report = CheckReport(not problems, problems)
    return field._report


class AtomicRearrangement(NamedTuple):
    """Descriptor of a single split (refinement) or merge (coarsening).

    `whole` is the one multivector that splits (refinement, a part of the
    source field) or results from the merge (coarsening, a part of the
    target field); `parts` are its two halves, in part-id order.
    """
    kind: str  # "refinement" | "coarsening"
    whole: SimplexSet
    parts: tuple[SimplexSet, SimplexSet]


def classify_rearrangement(field: MultivectorField,
                           other: MultivectorField) -> AtomicRearrangement:
    """Classify `other` as an atomic refinement or coarsening of `field`.

    This is the step `other` records when its parent is `field`; otherwise a
    diff of the parts, which `other` records if it records no step yet.
    Raises NotAtomicError when the fields are equal, on different complexes,
    or differ by anything other than one split or one merge.
    """
    record = _record(other)
    if record is not None and record[0] is field:
        return record[1]
    if field.cx != other.cx:
        raise NotAtomicError("fields live on different complexes")
    gone, born = _change(field, other._parts.values())
    step = _atomic(gone, born)
    if step is None:
        raise NotAtomicError(
            f"fields differ by {len(gone)} removed / {len(born)} added multivectors")
    if record is None:
        other._step = (weakref.ref(field), step)
    return step


def _record(field: MultivectorField):
    """(parent, step) as `field` records them, or None.  A record whose parent
    is gone is dropped, so that it keeps none of the parent's sets alive."""
    parent = field._step and field._step[0]()
    if parent is None:
        field._step = None
        return None
    return parent, field._step[1]


def _change(field: MultivectorField, parts: Collection[SimplexSet]):
    """The parts of `field` that `parts` drop and the parts they add, every
    simplex `parts` leave out being a singleton."""
    new = set(parts)
    used = frozenset().union(*new)
    old = set(field._parts.values())
    gone = [part for part in old - new if len(part) > 1 or part <= used]
    born = new - old
    born.update(frozenset([s]) for part in gone for s in part - used)
    return gone, born


def _atomic(gone: Collection[SimplexSet],
            born: Collection[SimplexSet]) -> AtomicRearrangement | None:
    """The split or merge that replaces the parts `gone` by the parts `born`
    of a partition, if it is one; halves in part-id order."""
    if len(gone) == 1 and len(born) == 2:
        (whole,), (a, b) = gone, sorted(born, key=min)
        if a | b == whole and a.isdisjoint(b):
            return AtomicRearrangement("refinement", whole, (a, b))
    if len(gone) == 2 and len(born) == 1:
        (a, b), (whole,) = sorted(gone, key=min), born
        if a | b == whole:
            return AtomicRearrangement("coarsening", whole, (a, b))
    return None


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
