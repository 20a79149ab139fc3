"""Multivector fields: validation, induced dynamics, atomic rearrangements.

A multivector field is a partition of a complex into convex pieces.  Each
piece is identified by its lexicographically smallest member simplex, which
keeps identities stable across serialization.  Criticality of a piece is the
non-vanishing of the relative homology of (closure, mouth), read off the shape
of a piece of one or two simplices and computed for a larger one, each time it
is asked.  A field holds its part tables, validate_field's stored convexity
report and the step that made it; the report fill is idempotent, so concurrent
readers are safe.  Splits, merges and `successor` (the field a list of parts
makes when one split or merge away) share an ancestor's part tables under an
overlay of what changed since, folded into flat tables once more than sqrt|K|
simplices have moved; each records the step.
"""

from __future__ import annotations

import heapq
import weakref
from itertools import chain, compress, filterfalse
from typing import Collection, Iterable, Iterator, NamedTuple

from .algebra import check_prime, relative_homology
from .complexes import Complex, Simplex, SimplexSet, _face_codim


class NotAtomicError(ValueError):
    """Two fields do not differ by a single split or merge."""


class MultivectorField:
    """A partition of a complex into multivectors (not necessarily convex).

    The constructor enforces that the parts partition the complex; convexity
    is checked separately by validate_field so that offending parts can be
    reported rather than merely rejected.  `_step` is None or (weak reference
    to the parent, the AtomicRearrangement that made this field from it); a
    record whose parent is gone is dropped when next read, and none is pickled.

    `_assign` (simplex to id) and `_parts` (id to part) are a base field's flat
    tables, shared and never changed; the overlay `_moved` maps each simplex
    a step since then gave a new id to it, and `_changed` each id made or
    removed since then to its part or None.  A field built from parts is its
    own base.  A derived field copies its parent's overlay and adds its step,
    unless over sqrt|K| simplices would then have moved: then it folds them
    into flat tables, so one O(|K|) fold is paid per sqrt|K| moved simplices.
    """

    __slots__ = ("cx", "_assign", "_parts", "_moved", "_changed", "_len", "_report", "_step",
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
        self._adopt(cx, assign, part_map, {}, {}, len(part_map))

    def _adopt(self, cx: Complex, assign: dict, parts: dict, moved: dict, changed: dict,
               count: int, step: tuple | None = None) -> None:
        self.cx, self._assign, self._parts = cx, assign, parts
        self._moved, self._changed, self._len = moved, changed, count
        self._report, self._step = None, step

    def __getstate__(self):
        """Every slot but the step record: a weak reference cannot be pickled."""
        state = {name: getattr(self, name) for name in self.__slots__[:-2]}
        return None, {**state, "_step": None}

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
        return (isinstance(other, MultivectorField) and self.cx == other.cx
                and self._part_set() == other._part_set())

    def __hash__(self) -> int:
        return hash((self.cx, frozenset(self._part_set())))

    def __repr__(self) -> str:
        return f"MultivectorField({len(self)} multivectors on {self.cx!r})"

    def mv_id(self, sigma: Simplex) -> Simplex:
        return self._moved.get(sigma) or self._assign[sigma]

    def part(self, ident: Simplex) -> SimplexSet:
        part = self._changed.get(ident, self._parts.get(ident))
        if part is None:
            raise KeyError(ident)
        return part

    def part_of(self, sigma: Simplex) -> SimplexSet:
        """The unique multivector containing sigma."""
        ident = self._moved.get(sigma) or self._assign[sigma]
        return self._changed.get(ident) or self._parts[ident]

    def parts_meeting(self, members: Collection[Simplex]) -> Iterator[SimplexSet]:
        """Each multivector with a simplex in `members`, once."""
        ids = set(map(self._moved.get, members, map(self._assign.__getitem__, members)))
        return map(self._changed.get, ids, map(self._parts.get, ids))

    def ids(self) -> tuple[Simplex, ...]:
        changed = self._changed
        return tuple(sorted(chain(filterfalse(changed.__contains__, self._parts),
                                  compress(changed, changed.values()))))

    def parts(self) -> tuple[SimplexSet, ...]:
        ids = self.ids()
        return tuple(map(self._changed.get, ids, map(self._parts.get, ids)))

    def _part_set(self) -> set[SimplexSet]:
        """The base's parts but those the overlay replaces, and the overlay's."""
        parts = set(self._parts.values())
        parts.difference_update(map(self._parts.get, self._changed))
        parts.update(filter(None, self._changed.values()))
        return parts

    def __len__(self) -> int:
        return self._len

    def fmap(self, sigma: Simplex) -> SimplexSet:
        """Induced multivalued map: closure of sigma united with its multivector."""
        return self.cx.closure_of(sigma) | self.part_of(sigma)

    def is_critical(self, ident: Simplex, p: int = 2) -> bool:
        """Non-trivial relative homology of (closure, mouth) of the multivector.
        One simplex is critical, and two, unless one is a face of the other of
        codimension >= 2, are regular iff a facet pair (boundary +-1 at any p)."""
        part = self.part(ident)
        codim = _face_codim(*part) if len(part) == 2 else None
        if len(part) == 1 or codim in (0, 1):
            check_prime(p)
            return codim != 1
        closure = self.cx.closure(part)
        return any(relative_homology(self.cx, closure, closure - part, p))

    def split(self, ident: Simplex, off: Collection[Simplex]) -> "MultivectorField":
        """Atomic refinement splitting one multivector into `off` and the rest."""
        part = self.part(ident)
        off = frozenset(off)
        if not off or not off < part:
            raise ValueError("split piece must be a proper non-empty subset of the multivector")
        halves = (off, part - off) if ident in off else (part - off, off)
        return self._replace(AtomicRearrangement("refinement", part, halves))

    def merge(self, ident_a: Simplex, ident_b: Simplex) -> "MultivectorField":
        """Atomic coarsening merging two multivectors into one."""
        if ident_a == ident_b:
            raise ValueError("cannot merge a multivector with itself")
        a, b = self.part(ident_a), self.part(ident_b)
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
        """The field `step` makes from this one, recording `step`."""
        moved, changed = dict(self._moved), dict(self._changed)
        removed = {min(part): part for part in step.removed}
        changed.update(dict.fromkeys(removed))
        for part in step.added:
            ident = min(part)
            changed[ident] = part
            moved.update(dict.fromkeys(part.difference(removed.get(ident, ())), ident))
        tables = self._assign, self._parts, moved, changed
        if len(moved) ** 2 > len(self._assign):
            parts = {ident: part for ident, part in {**self._parts, **changed}.items() if part}
            tables = {**self._assign, **moved}, parts, {}, {}
        count = len(self) + len(step.added) - len(removed)
        child = object.__new__(MultivectorField)
        child._adopt(self.cx, *tables, count, (weakref.ref(self), step))
        return child


class CheckReport(NamedTuple):
    """Outcome of a diagnostic check: truthy iff ok, with the failed conditions."""
    ok: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_field(field: MultivectorField) -> CheckReport:
    """Check that every part is convex, naming offenders in part-id order
    (partition is enforced at construction; a singleton is convex unchecked).
    Disconnected parts are deliberately accepted.  The report is stored on the field.

    A field that records the step that made it from a parent which is alive
    and whose stored report is ok is checked only by the parts the step
    added; any other field is checked part by part."""
    if field._report is None:
        record = _record(field)
        checked = field.parts() if record is None or not record[0]._report else record[1].added
        problems = tuple(f"multivector {sorted(part)} is not convex"
                         for part in checked if len(part) > 1 and not field.cx.is_convex(part))
        field._report = CheckReport(not problems, problems)
    return field._report


class AtomicRearrangement(NamedTuple):
    """Descriptor of a single split (refinement) or merge (coarsening).

    `whole` is the one multivector that splits (refinement, a part of the
    source field) or results from the merge (coarsening, a part of the
    target field); `parts` are its two halves, in part-id order.  `removed`
    and `added` are the parts the step takes away and puts in their place.
    """
    kind: str  # "refinement" | "coarsening"
    whole: SimplexSet
    parts: tuple[SimplexSet, SimplexSet]

    @property
    def removed(self) -> tuple[SimplexSet, ...]:
        return (self.whole,) if self.kind == "refinement" else self.parts

    @property
    def added(self) -> tuple[SimplexSet, ...]:
        return self.parts if self.kind == "refinement" else (self.whole,)


def classify_rearrangement(field: MultivectorField,
                           other: MultivectorField) -> AtomicRearrangement:
    """Classify `other` as an atomic refinement or coarsening of `field`.

    This is the step `other` records when its parent is `field`; otherwise a
    diff of the parts.
    Raises NotAtomicError when the fields are equal, on different complexes,
    or differ by anything other than one split or one merge.
    """
    record = _record(other)
    if record is not None and record[0] is field:
        return record[1]
    if field.cx != other.cx:
        raise NotAtomicError("fields live on different complexes")
    gone, born = _change(field, other._part_set())
    step = _atomic(gone, born)
    if step is None:
        raise NotAtomicError(
            f"fields differ by {len(gone)} removed / {len(born)} added multivectors")
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
    old = field._part_set()
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


def refinement_path(field: MultivectorField) -> list[MultivectorField]:
    """Atomic refinements from `field` down to the singleton field.

    Deterministic: always split the lexicographically smallest non-singleton
    multivector at its lexicographically smallest maximal element.  Splitting
    off a maximal element keeps both halves convex.  The non-singleton ids
    are a heap, to which a split returns at most the rest's id."""
    path, heap = [field], [i for i in field.ids() if len(field.part(i)) > 1]
    while heap:
        part = path[-1].part(heap[0])
        sigma = min(s for s in part if not any(c in part for c in field.cx.cofacets(s)))
        path.append(path[-1].split(heap[0], {sigma}))
        rest = part - {sigma}
        if len(rest) > 1:
            heapq.heapreplace(heap, min(rest))
        else:
            heapq.heappop(heap)
    return path


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
