"""Exact linear algebra over a prime field and relative simplicial homology.

One kernel does all elimination: `reduce_columns` reduces sparse columns
({row: coeff} dicts of Python ints, so exact for every prime) by their
lowest nonzero row, and can record V with R = D·V.  Boundary columns are
built directly from simplices.  Homology reduces one dimension at a time
from the top down and clears the columns that are already pivots of the
dimension above (Chen & Kerber, "Persistent homology computation with a
twist"): such a simplex is the low of a boundary, so its column would reduce
to zero anyway.  Relative homology of a closed pair (P, E) uses the
quotient chain complex spanned by the simplices of P \\ E; reduced homology
adds the empty simplex as the one (-1)-simplex.

The zigzag layer works on int64 arrays; `rank` and `nullspace` convert them
to sparse columns, which is why primes are capped below 2**63.

The cone construction realizes a closed pair as an absolute complex whose
reduced homology equals the relative homology of the pair.  Reusing one
apex across many pairs turns pair inclusions into plain complex inclusions,
which is what the zigzag layer needs.
"""

from __future__ import annotations

from typing import Collection, Iterator, Sequence

import numpy as np

from .complexes import Complex, Simplex, simplex

BettiVector = tuple
Column = dict  # {row index: nonzero coefficient mod p}

# Deterministic Miller-Rabin bases: correct for every n below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 2 ** 63  # exclusive; zigzag arrows are int64 arrays


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


def check_prime(p: int) -> int:
    if p >= MAX_PRIME:
        raise ValueError(f"field characteristic must be below 2**63, got {p}")
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


def row_reduce(mat: np.ndarray, p: int,
               record: bool = True) -> tuple[dict[int, int], list[Column] | None]:
    """Reduce the columns of an integer array mod p: (pivot table, V or None).

    The one adapter from the array interface to `reduce_columns`; `rank` and
    `nullspace` share it, and the benchmark's tracer counts it by this name.
    """
    at = np.asarray(mat, dtype=np.int64).T % p
    cols: list[Column] = [{} for _ in range(at.shape[0])]
    js, rows = np.nonzero(at)
    for j, i, x in zip(js.tolist(), rows.tolist(), at[js, rows].tolist()):
        cols[j][i] = x
    return reduce_columns(cols, p, record=record)


def rank(mat: np.ndarray, p: int = 2) -> int:
    """Rank over the prime field."""
    a = np.asarray(mat)
    if a.size == 0:
        return 0
    return len(row_reduce(a, p, record=False)[0])


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of the kernel of mat over GF(p)."""
    a = np.asarray(mat, dtype=np.int64)
    pivots, vs = row_reduce(a, p)
    paired = set(pivots.values())
    return _dense([v for j, v in enumerate(vs) if j not in paired], a.shape[1])


def _dense(columns: Sequence[Column], rows: int) -> np.ndarray:
    out = np.zeros((rows, len(columns)), dtype=np.int64)
    for j, col in enumerate(columns):
        for r, x in col.items():
            out[r, j] = x
    return out


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


def _reduce_levels(levels: list[list[Simplex]], p: int, augmented: bool,
                   record: bool = False) -> Iterator[tuple]:
    """Reduce each boundary map from the top dimension down, with clearing.

    Yields (k, reduced columns, pivot table, V) for k = dim..0.  With
    `augmented`, vertices have the empty simplex as their one face, which
    gives reduced homology.
    """
    above: dict[int, int] = {}
    for k in reversed(range(len(levels))):
        if k:
            lower = {s: i for i, s in enumerate(levels[k - 1])}
        else:
            lower = {(): 0} if augmented else {}
        cols = _boundary(levels[k], lower, p)
        pivots, vs = reduce_columns(cols, p, clear=above, record=record)
        yield k, cols, pivots, vs
        above = pivots


def _betti(levels: list[list[Simplex]], p: int, augmented: bool) -> BettiVector:
    ranks = [0] * (len(levels) + 1)
    for k, _, pivots, _ in _reduce_levels(levels, p, augmented):
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
    return _betti(_levels(pset - eset, cx.dim), p, augmented=False)


def cone_pair(cx: Complex, pset: Collection[Simplex], eset: Collection[Simplex],
              apex: int | None = None) -> Complex:
    """The complex P together with a cone over E from a fresh apex vertex.

    Reduced homology of the result equals relative_homology(cx, P, E).
    Pass the same apex for every pair of a zigzag so that pair inclusions
    become complex inclusions.
    """
    pset, eset = _validate_pair(cx, pset, eset)
    if apex is None:
        apex = max(cx.vertices, default=-1) + 1
    if (apex,) in cx.simplices:
        raise ValueError(f"apex {apex} collides with an existing vertex")
    coned = set(pset)
    coned.add((apex,))
    for s in eset:
        coned.add(simplex(s + (apex,)))
    return Complex(coned)


def reduced_betti(cx: Complex, p: int = 2) -> BettiVector:
    """Reduced Betti numbers of a complex over GF(p), indexed 0..dim."""
    check_prime(p)
    return _betti(_levels(cx.simplices, cx.dim), p, augmented=True)


class HomologyBasis:
    """Reduced homology of a complex with explicit cycle representatives.

    For each dimension k we keep the k-simplices in canonical order and a
    pivot table {low row: column} holding the reduced boundaries of the
    dimension above and one representative cycle per homology class (the V
    column of each zero column that no boundary clears).  All these columns
    have distinct lows, so a cycle reduces to zero against the table in one
    pass, and the multiples of the representatives it used are its homology
    coordinates.  Used by the zigzag layer to turn inclusions into matrices.
    """

    def __init__(self, cx: Complex, p: int = 2):
        check_prime(p)
        self.cx = cx
        self.p = p
        self.by_dim = _levels(cx.simplices, cx.dim)
        self.index = [{s: i for i, s in enumerate(level)} for level in self.by_dim]
        self.betti: list[int] = [0] * (cx.dim + 1)
        self._reps: list[list[Column]] = [[] for _ in self.by_dim]
        # per dimension: low row -> (column, homology coordinate or None)
        self._table: list[dict[int, tuple[Column, int | None]]] = [{} for _ in self.by_dim]
        bounds: dict[int, Column] = {}   # reduced boundaries from the level above
        for k, cols, pivots, vs in _reduce_levels(self.by_dim, p, augmented=True,
                                                  record=True):
            table = {low: (col, None) for low, col in bounds.items()}
            paired = set(pivots.values())
            for j, col in enumerate(cols):
                if j not in paired and j not in bounds:
                    table[j] = (vs[j], len(self._reps[k]))
                    self._reps[k].append(vs[j])
            self._table[k] = table
            self.betti[k] = len(self._reps[k])
            bounds = {low: cols[j] for low, j in pivots.items()}

    def representative_cycles(self, k: int) -> np.ndarray:
        """Columns are chosen cycle representatives of H_k, over the k-simplex basis."""
        return _dense(self._reps[k], len(self.by_dim[k]))

    def coordinates(self, k: int, chain_vec: np.ndarray) -> np.ndarray:
        """Homology coordinates of a cycle given over this complex's k-simplices."""
        chain = {i: x % self.p for i, x in enumerate(np.asarray(chain_vec).tolist())
                 if x % self.p}
        return np.array(self._coordinates(k, chain), dtype=np.int64)

    def _coordinates(self, k: int, chain: Column) -> list[int]:
        """Reduce a sparse cycle (consumed) against the pivot table of dimension k."""
        p = self.p
        out = [0] * self.betti[k]
        table = self._table[k]
        while chain:
            low = max(chain)
            entry = table.get(low)
            if entry is None:
                raise ValueError("chain is not a cycle of this complex")
            col, coord = entry
            f = chain[low]
            if coord is not None:
                out[coord] = f
            _axpy(chain, p - f, col, p)
        return out


def induced_map(small: HomologyBasis, big: HomologyBasis, k: int) -> np.ndarray:
    """Matrix of the inclusion-induced map H_k(small) -> H_k(big)."""
    if k > small.cx.dim:
        return np.zeros((big.betti[k] if k <= big.cx.dim else 0, 0), dtype=np.int64)
    if k > big.cx.dim:
        return np.zeros((0, small.betti[k]), dtype=np.int64)
    to_big = [big.index[k][s] for s in small.by_dim[k]]
    out = np.zeros((big.betti[k], small.betti[k]), dtype=np.int64)
    for j, rep in enumerate(small._reps[k]):
        out[:, j] = big._coordinates(k, {to_big[i]: x for i, x in rep.items()})
    return out
