"""Exact linear algebra over a prime field and relative simplicial homology.

One kernel does all elimination: `reduce_columns` reduces sparse columns
({row: coeff} dicts of Python ints, so exact for every prime) by their
lowest nonzero row, and can record V with R = D·V.  Boundary columns are
built directly from simplices.  Homology reduces one dimension at a time
from the top down and clears the columns that are already pivots of the
dimension above (Chen & Kerber, "Persistent homology computation with a
twist"): such a simplex is the low of a boundary, so its column would reduce
to zero anyway.  Relative homology of a closed pair (P, E) uses the
quotient chain complex spanned by the simplices of P \\ E.

Induced maps are sparse columns too, and the zigzag sweep reduces them here,
so one column format runs from the boundary matrices to the barcode.
Primes are capped below 3,317,044,064,679,887,385,961,981, the least strong
pseudoprime to the bases 2..41, below which Miller-Rabin with those bases is
exact (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
Math. Comp. 2017).  `check_prime` remembers each prime it has verified, so
Miller-Rabin runs once per characteristic however often a caller checks it.

A homology basis of a pair (P, E) reduces the same quotient complex, with
representatives.  An inclusion of pairs (P, E) <= (P', E') induces the
chain map that keeps a cell of P \\ E and sends one in E' to zero, so
`induced_map` needs no absolute complex that contains both pairs.
"""

from __future__ import annotations

import functools
from typing import Collection, Iterator, Sequence

from .complexes import Complex, Simplex, SimplexSet

BettiVector = tuple
Column = dict  # {row index: nonzero coefficient mod p}

# Deterministic Miller-Rabin bases, exact for every n below MAX_PRIME.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3_317_044_064_679_887_385_961_981  # exclusive


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None, typed=True)  # typed: 2.0 is not the cached 2
def check_prime(p: int) -> int:
    if not isinstance(p, int):
        raise ValueError(f"field characteristic must be an integer, got {p!r}")
    if p >= MAX_PRIME:
        raise ValueError(f"field characteristic must be below {MAX_PRIME}, got {p}")
    if not _is_prime(p):
        raise ValueError(f"field characteristic must be prime, got {p}")
    return p


def _axpy(col: Column, f: int, other: Column, p: int) -> None:
    """col += f * other, in place, mod p."""
    for r, x in other.items():
        y = (col.get(r, 0) + f * x) % p
        if y:
            col[r] = y
        else:
            del col[r]


def reduce_columns(cols: list[Column], p: int, clear: Collection[int] = (),
                   record: bool = False) -> tuple[dict[int, int], list[Column] | None]:
    """Reduce `cols` in place, left to right, by their lowest (largest) row.

    Returns the pivot table {low row: column index} and, if `record`, the
    columns of V with R = D·V.  Every pivot column is scaled so its low entry
    is 1.  Columns whose index is in `clear` are zeroed without reduction (their
    V entry is left empty); the caller must know they reduce to zero.
    """
    pivots: dict[int, int] = {}
    vs: list[Column] | None = [] if record else None
    for j, col in enumerate(cols):
        v: Column = {}
        if j in clear:
            col.clear()
        else:
            v[j] = 1
            while col:
                low = max(col)
                i = pivots.get(low)
                if i is None:
                    inv = pow(col[low], -1, p)
                    if inv != 1:
                        for r in col:
                            col[r] = col[r] * inv % p
                        for r in v:
                            v[r] = v[r] * inv % p
                    pivots[low] = j
                    break
                f = p - col[low]
                _axpy(col, f, cols[i], p)
                if record:
                    _axpy(v, f, vs[i], p)
        if record:
            vs.append(v)
    return pivots, vs


def row_reduce(rows: Sequence[Sequence[int]], p: int,
               record: bool = True) -> tuple[dict[int, int], list[Column] | None]:
    """Reduce the columns of a matrix given as integer rows, mod p.

    Returns (pivot table, V or None), as `reduce_columns` does.  The adapter
    for callers holding a dense matrix; the benchmark's tracer counts it by
    this name.
    """
    cols: list[Column] = [{} for _ in range(len(rows[0]) if len(rows) else 0)]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            x = int(x) % p
            if x:
                cols[j][i] = x
    return reduce_columns(cols, p, record=record)


def nullspace(rows: Sequence[Sequence[int]], p: int) -> list[Column]:
    """A basis of the kernel of a matrix given as integer rows, as sparse columns."""
    pivots, vs = row_reduce(rows, p)
    paired = set(pivots.values())
    return [v for j, v in enumerate(vs) if j not in paired]


def _levels(simplices, dim: int) -> list[list[Simplex]]:
    """Simplices grouped by dimension 0..dim, each level in sorted order."""
    out: list[list[Simplex]] = [[] for _ in range(dim + 1)]
    for s in sorted(simplices):
        out[len(s) - 1].append(s)
    return out


def _boundary(chain: Sequence[Simplex], lower: dict[Simplex, int], p: int) -> list[Column]:
    """Sparse boundary columns of `chain`, faces outside `lower` dropped.

    Sign convention: removing the vertex at position i contributes (-1)^i.
    """
    cols = []
    for s in chain:
        col: Column = {}
        for i in range(len(s)):
            row = lower.get(s[:i] + s[i + 1:])
            if row is not None:
                col[row] = p - 1 if i % 2 else 1
        cols.append(col)
    return cols


def _reduce_levels(levels: list[list[Simplex]], p: int,
                   record: bool = False) -> Iterator[tuple]:
    """Reduce each boundary map from the top dimension down, with clearing.

    Yields (k, reduced columns, pivot table, V) for k = dim..0.
    """
    above: dict[int, int] = {}
    for k in reversed(range(len(levels))):
        lower = {s: i for i, s in enumerate(levels[k - 1])} if k else {}
        cols = _boundary(levels[k], lower, p)
        pivots, vs = reduce_columns(cols, p, clear=above, record=record)
        yield k, cols, pivots, vs
        above = pivots


def _betti(levels: list[list[Simplex]], p: int) -> BettiVector:
    ranks = [0] * (len(levels) + 1)
    for k, _, pivots, _ in _reduce_levels(levels, p):
        ranks[k] = len(pivots)
    return tuple(len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(len(levels)))


def _validate_pair(cx: Complex, pset: Collection[Simplex], eset: Collection[Simplex]):
    pset = cx.check_subset(pset)
    eset = cx.check_subset(eset)
    if not eset <= pset:
        raise ValueError("E must be a subset of P")
    if not cx.is_closed(pset):
        raise ValueError("P is not closed")
    if not cx.is_closed(eset):
        raise ValueError("E is not closed")
    return pset, eset


def relative_homology(cx: Complex, pset: Collection[Simplex],
                      eset: Collection[Simplex], p: int = 2) -> BettiVector:
    """Betti numbers of the pair (P, E) over GF(p), indexed 0..dim(K)."""
    check_prime(p)
    pset, eset = _validate_pair(cx, pset, eset)
    return _betti(_levels(pset - eset, cx.dim), p)


class HomologyBasis:
    """Homology of a closed pair (P, E) with explicit cycle representatives.

    The chains are those of the relative complex C(P)/C(E): its k-cells are
    the k-simplices of P \\ E, and a boundary face in E is zero.  With E
    empty this is the unreduced homology of P.  For each dimension k we keep
    the k-cells in canonical order and a pivot table {low row: column}
    holding the reduced boundaries of the dimension above and one
    representative cycle per homology class (the V column of each zero
    column that no boundary clears).  All these columns have distinct lows,
    so a cycle reduces to zero against the table in one pass, and the
    multiples of the representatives it used are its homology coordinates.
    `reps[k]` holds the representatives of H_k as sparse columns over the
    k-cells `by_dim[k]`.  The pair is taken unchecked, as `PairZigzag`
    checks every pair when it is built.
    """

    def __init__(self, cx: Complex, pset: SimplexSet, eset: SimplexSet, p: int = 2):
        check_prime(p)
        self.p = p
        self.by_dim = _levels(pset - eset, cx.dim)
        self.index = [{s: i for i, s in enumerate(level)} for level in self.by_dim]
        self.betti: list[int] = [0] * (cx.dim + 1)
        self.reps: list[list[Column]] = [[] for _ in self.by_dim]
        # per dimension: low row -> (column, homology coordinate or None)
        self._table: list[dict[int, tuple[Column, int | None]]] = [{} for _ in self.by_dim]
        bounds: dict[int, Column] = {}   # reduced boundaries from the level above
        for k, cols, pivots, vs in _reduce_levels(self.by_dim, p, record=True):
            table = {low: (col, None) for low, col in bounds.items()}
            paired = set(pivots.values())
            for j, col in enumerate(cols):
                if j not in paired and j not in bounds:
                    table[j] = (vs[j], len(self.reps[k]))
                    self.reps[k].append(vs[j])
            self._table[k] = table
            self.betti[k] = len(self.reps[k])
            bounds = {low: cols[j] for low, j in pivots.items()}

    def coordinates(self, k: int, chain: Column) -> list[int]:
        """Homology coordinates of a sparse relative cycle over this pair's k-cells.

        Reduces `chain` (consumed) against the pivot table of dimension k.
        """
        p = self.p
        out = [0] * self.betti[k]
        table = self._table[k]
        while chain:
            low = max(chain)
            entry = table.get(low)
            if entry is None:
                raise ValueError("chain is not a cycle of this pair")
            col, coord = entry
            f = chain[low]
            if coord is not None:
                out[coord] = f
            _axpy(chain, p - f, col, p)
        return out


def induced_map(small: HomologyBasis, big: HomologyBasis, k: int) -> list[Column]:
    """The inclusion-induced map H_k(small) -> H_k(big) as sparse columns.

    One column per representative of `small`, over the basis of H_k(big).
    A cell of `small` in the bigger pair's E is zero there.
    """
    level, to_big = small.by_dim[k], big.index[k]
    out = []
    for rep in small.reps[k]:
        chain = {}
        for i, x in rep.items():
            r = to_big.get(level[i])
            if r is not None:
                chain[r] = x
        coords = big.coordinates(k, chain)
        out.append({r: x for r, x in enumerate(coords) if x})
    return out
