"""Zigzag persistence of index-pair sequences.

Each pair's homology is that of its relative chain complex, and an arrow
between nested pairs induces a map on it.  Each arrow's direction is
inferred from the two pairs it joins; where they are equal the identity
points forward.  A zigzag repeats a few pairs many times: `PairZigzag`
interns equal pairs and checks each distinct one when it is built, and
`homology_module` builds one homology basis per distinct body P \\ E, all
its relative chain complex depends on, and one map per pair of bodies.  A
maximal run of equal consecutive pairs is joined by identity arrows, which
are isomorphisms, and no interval summand begins or ends at an isomorphism;
so the module is taken over the runs, one position each, and a bar on runs
[b, d] spans the positions from the first of run b to the last of run d.
The interval decomposition of each per-dimension homology module comes from
one left-to-right sweep (after Carlsson & de Silva, "Zigzag persistence",
and Carlsson, de Silva & Morozov, "Zigzag persistent homology and
real-valued functions").  The sweep keeps the bars alive at position i,
ordered from senior to junior, each with its birth and a representative in
V_i; together they form a basis of V_i.

* Forward arrow f: V_i -> V_{i+1}.  Reduce f of every representative, in
  order.  A bar whose image reduces to zero dies at i; the others continue
  with their reduced image.  Each unit vector e_r of V_{i+1} whose row r is
  the low of no reduced image opens a bar born at i+1, at the junior end, in
  ascending r.  These are the units that would survive reduction after the
  images, and unreduced, since every lower row is already spanned.
* Backward arrow g: V_i <- V_{i+1}.  Reduce the columns of g, then the
  representatives in order, recording V.  A bar whose representative
  survives is not in im g plus its seniors and dies at i.  A bar that reduces
  to zero continues; minus the g-part of its V column is a preimage.  Each
  column of g that reduces to zero gives a kernel vector, which opens a bar
  born at i+1, at the senior end.

Column reduction only adds earlier columns to later ones, so a
representative only ever gains multiples of senior representatives: exactly
the changes of basis an interval decomposition allows.  All elimination is
`algebra.reduce_columns`.  Two independent decomposition oracles in the test
suite (Hom dimensions, and the former windowed generalized ranks) gate
correctness, and the former sweep over every position gates the runs.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional, Sequence

from .algebra import (Column, HomologyBasis, _axpy, check_prime, induced_map,
                      reduce_columns)
from .complexes import Complex
from .dynamics import IndexPair

FORWARD = "fwd"   # pair i included in pair i+1
BACKWARD = "bwd"  # pair i+1 included in pair i


class PairTag(NamedTuple):
    """Bookkeeping attached to one zigzag position."""
    field_index: Optional[int] = None   # 1-based index into the tracked field sequence
    role: str = ""                      # e.g. canonical / pushforward / meet / connecting


class Bar(NamedTuple("Bar", [("dim", int), ("birth", int), ("death", int)])):
    """One interval of dimension `dim`, from `birth` to `death`: 1-based, inclusive."""
    __slots__ = ()

    def __new__(cls, dim: int, birth: int, death: int) -> "Bar":
        if not 1 <= birth <= death:
            raise ValueError(f"bad bar interval [{birth}, {death}]")
        return super().__new__(cls, dim, birth, death)


class Barcode(NamedTuple):
    bars: list[Bar]
    length: int
    betti_per_position: list[tuple]
    step_of_position: Optional[list[int]] = None

    def step_bars(self) -> list[tuple[int, int, int]]:
        """Bars as (dim, birth step, death step), using the position-to-step map."""
        if self.step_of_position is None:
            raise ValueError("barcode has no step map")
        return [(b.dim, self.step_of_position[b.birth - 1],
                 self.step_of_position[b.death - 1]) for b in self.bars]


class PairZigzag:
    """An alternating inclusion sequence of index pairs over one complex.

    Equal pairs are interned into one object: `distinct` holds the distinct
    pairs in order of first occurrence, `at[i]` the distinct index of
    position i, and `pairs` the pair at each position as a tuple.  Every
    distinct P and E is checked once for membership in the complex and for
    closedness, so the homology bases of `homology_module` need no further
    checks.
    `directions[i]` is FORWARD when pair i is included in pair i+1 (equal
    pairs, being one object, without a subset test), else BACKWARD;
    consecutive pairs not nested either way are rejected.
    """

    def __init__(self, cx: Complex, pairs: Sequence[IndexPair],
                 tags: Optional[Sequence[PairTag]] = None):
        if not pairs:
            raise ValueError("a zigzag needs at least one pair")
        self.cx = cx
        index: dict[IndexPair, int] = {}
        self.at = tuple(index.setdefault(pair, len(index)) for pair in pairs)
        self.distinct = tuple(index)
        self.pairs = tuple(self.distinct[j] for j in self.at)
        checked: set[frozenset] = set()
        for j, pair in enumerate(self.distinct):
            for name, part in (("P", pair.P), ("E", pair.E)):
                if part not in checked:
                    try:
                        if not cx.is_closed(part):
                            raise ValueError(f"{name} is not closed")
                    except ValueError as exc:
                        raise ValueError(f"pair {self.at.index(j) + 1}: {exc}") from exc
                    checked.add(part)
        self.directions = [self._infer(a, b, i) for i, (a, b) in
                           enumerate(zip(self.pairs, self.pairs[1:]), 1)]
        self.tags = list(tags) if tags is not None else [PairTag() for _ in self.pairs]
        if len(self.tags) != len(self.pairs):
            raise ValueError("need one tag per pair")

    @staticmethod
    def _infer(a: IndexPair, b: IndexPair, k: int) -> str:
        if a is b or b.includes(a):
            return FORWARD
        if a.includes(b):
            return BACKWARD
        raise ValueError(f"pairs {k} and {k + 1} are not nested either way")

    def __len__(self) -> int:
        return len(self.pairs)


def _image(cols: list[Column], vec: Column, p: int) -> Column:
    """The image of the sparse vector `vec` under the matrix with columns `cols`."""
    out: Column = {}
    for k, x in vec.items():
        _axpy(out, x, cols[k], p)
    return out


def interval_multiplicities(dims: list[int], arrows: list[tuple[str, list[Column]]],
                            p: int = 2) -> dict[tuple[int, int], int]:
    """Multiplicity of every interval summand of a zigzag module (0-based positions).

    `arrows[i]` is (FORWARD, f) with f: V_i -> V_{i+1}, or (BACKWARD, g) with
    g: V_{i+1} -> V_i.  A map is given by sparse columns, one per basis
    vector of its source, with rows below the dimension of its target.
    """
    n = len(dims)
    if len(arrows) != max(n - 1, 0):
        raise ValueError(f"need {max(n - 1, 0)} arrows for {n} positions, got {len(arrows)}")
    mats = []
    for i, (direction, cols) in enumerate(arrows):
        if direction == FORWARD:
            src, dst = i, i + 1
        elif direction == BACKWARD:
            src, dst = i + 1, i
        else:
            raise ValueError(f"unknown direction {direction!r} at arrow {i}")
        if len(cols) != dims[src]:
            raise ValueError(f"arrow {i} has {len(cols)} columns, expected {dims[src]}")
        if any(not 0 <= r < dims[dst] for col in cols for r in col):
            raise ValueError(f"arrow {i} has a row outside 0..{dims[dst] - 1}")
        # copies: the backward step reduces them in place
        mats.append([{r: x % p for r, x in col.items() if x % p} for col in cols])
    out: Counter = Counter()
    # bars alive at position i, senior first: (birth, representative in V_i)
    alive = [(0, {r: 1}) for r in range(dims[0])] if n else []
    for i, ((direction, _), cols) in enumerate(zip(arrows, mats)):
        nxt = []
        if direction == FORWARD:
            images = [_image(cols, rep, p) for _, rep in alive]
            pivots, _ = reduce_columns(images, p)
            kept = set(pivots.values())
            for j, (birth, _) in enumerate(alive):
                if j in kept:
                    nxt.append((birth, images[j]))
                else:
                    out[(birth, i)] += 1
            nxt += [(i + 1, {r: 1}) for r in range(dims[i + 1]) if r not in pivots]
        else:
            m = len(cols)
            pivots, vs = reduce_columns(cols + [rep for _, rep in alive], p, record=True)
            kept = set(pivots.values())
            nxt += [(i + 1, vs[j]) for j in range(m) if j not in kept]
            for j, (birth, _) in enumerate(alive, m):
                if j in kept:
                    out[(birth, i)] += 1
                else:
                    nxt.append((birth, {k: p - x for k, x in vs[j].items() if k < m}))
        alive = nxt
    for birth, _ in alive:
        out[(birth, n - 1)] += 1
    return dict(sorted(out.items()))


def _runs(at: Sequence[int]) -> list[tuple[int, int]]:
    """(first, last) position of each maximal run of equal consecutive entries."""
    firsts = [i for i in range(len(at)) if not i or at[i] != at[i - 1]]
    return list(zip(firsts, [i - 1 for i in firsts[1:]] + [len(at) - 1]))


def homology_module(zz: PairZigzag, p: int = 2):
    """The homology zigzag of `zz` over its runs of equal pairs.

    Returns the runs as (first, last) positions, the Betti vector of each
    run, and per dimension the (dims, arrows) of the module with one
    position per run.  Homology bases are built once per distinct body of
    `zz`, which has already checked every pair, and maps once per arrow."""
    check_prime(p)
    runs = _runs(zz.at)
    bodies: dict[frozenset, int] = {}
    body_of = [bodies.setdefault(pair.body, len(bodies)) for pair in zz.distinct]
    at = [body_of[zz.at[first]] for first, _ in runs]
    directions = [zz.directions[last] for _, last in runs[:-1]]
    bases = [HomologyBasis(zz.cx, body, frozenset(), p) for body in bodies]
    betti = [tuple(bases[j].betti) for j in at]
    modules = []
    map_cache: dict[tuple[int, int, int], list[Column]] = {}
    for k in range(zz.cx.dim + 1):
        dims = [bt[k] for bt in betti]
        arrows: list[tuple[str, list[Column]]] = []
        for i, direction in enumerate(directions):
            small, big = (at[i], at[i + 1]) if direction == FORWARD else (at[i + 1], at[i])
            key = (small, big, k)
            cols = map_cache.get(key)
            if cols is None:
                cols = map_cache[key] = induced_map(bases[small], bases[big], k)
            arrows.append((direction, cols))
        modules.append((dims, arrows))
    return runs, betti, modules


def pair_zigzag_barcode(zz: PairZigzag, p: int = 2) -> Barcode:
    """Interval decomposition of the homology zigzag of a pair sequence."""
    runs, betti, modules = homology_module(zz, p)
    bars: list[Bar] = []
    for k, (dims, arrows) in enumerate(modules):
        if not any(dims):
            continue
        for (b, d), m in sorted(interval_multiplicities(dims, arrows, p).items()):
            bars.extend([Bar(k, runs[b][0] + 1, runs[d][1] + 1)] * m)
    bars.sort(key=lambda bar: (bar.dim, bar.birth, bar.death))
    # a run has one Betti vector, and every bar covers the whole of each run it meets
    for (first, _), bt in zip(runs, betti):
        for k in range(len(bt)):
            covering = sum(1 for bar in bars
                           if bar.dim == k and bar.birth <= first + 1 <= bar.death)
            if covering != bt[k]:
                raise AssertionError(
                    f"bar count {covering} != betti {bt[k]} at position {first + 1}, dim {k}")
    steps = [t.field_index for t in zz.tags]
    step_map = steps if all(s is not None for s in steps) else None
    per_position = [bt for (first, last), bt in zip(runs, betti) for _ in range(first, last + 1)]
    return Barcode(bars, len(zz), per_position, step_map)
