"""Zigzag persistence of index-pair sequences.

Each pair is realized as an absolute complex by coning its exit set from a
shared apex, so pair inclusions become complex inclusions and a single
machinery handles the whole zigzag.  The interval multiplicities of the
resulting homology module are computed from generalized ranks over windows:
the rank of the canonical map from the limit to the colimit of the module
restricted to [b, d] counts the bars containing the window, and inclusion-
exclusion over the four windows [b-1..b] x [d..d+1] recovers multiplicity.
An independent decomposition oracle in the test suite gates correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import HomologyBasis, check_prime, cone_pair, induced_map, nullspace, rank
from .complexes import Complex
from .dynamics import IndexPair

FORWARD = "fwd"   # pair i included in pair i+1
BACKWARD = "bwd"  # pair i+1 included in pair i


@dataclass(frozen=True)
class PairTag:
    """Bookkeeping attached to one zigzag position."""
    field_index: Optional[int] = None   # 1-based index into the tracked field sequence
    role: str = ""                      # e.g. canonical / pushforward / meet / connecting
    heuristic: bool = False


@dataclass(frozen=True)
class Bar:
    dim: int
    birth: int  # 1-based, inclusive
    death: int

    def __post_init__(self):
        if not 1 <= self.birth <= self.death:
            raise ValueError(f"bad bar interval [{self.birth}, {self.death}]")


@dataclass
class Barcode:
    bars: list[Bar]
    length: int
    betti_per_position: list[tuple]
    step_of_position: Optional[list[int]] = None

    def is_full(self) -> bool:
        return all(b.birth == 1 and b.death == self.length for b in self.bars)

    def bars_in_dim(self, k: int) -> list[Bar]:
        return [b for b in self.bars if b.dim == k]

    def step_bars(self) -> list[tuple[int, int, int]]:
        """Bars as (dim, birth step, death step), using the position-to-step map."""
        if self.step_of_position is None:
            raise ValueError("barcode has no step map")
        return [(b.dim, self.step_of_position[b.birth - 1],
                 self.step_of_position[b.death - 1]) for b in self.bars]


class PairZigzag:
    """An alternating inclusion sequence of index pairs over one complex."""

    def __init__(self, cx: Complex, pairs: Sequence[IndexPair],
                 directions: Optional[Sequence[str]] = None,
                 tags: Optional[Sequence[PairTag]] = None):
        if not pairs:
            raise ValueError("a zigzag needs at least one pair")
        self.cx = cx
        self.pairs = list(pairs)
        for pair in self.pairs:
            cx.check_subset(pair.P)
        if directions is None:
            directions = [self._infer(a, b) for a, b in zip(self.pairs, self.pairs[1:])]
        self.directions = list(directions)
        if len(self.directions) != len(self.pairs) - 1:
            raise ValueError("need one direction per consecutive pair")
        for i, (a, b, d) in enumerate(zip(self.pairs, self.pairs[1:], self.directions)):
            if d == FORWARD and not b.includes(a):
                raise ValueError(f"claimed inclusion fails at position {i + 1}")
            if d == BACKWARD and not a.includes(b):
                raise ValueError(f"claimed inclusion fails at position {i + 1}")
            if d not in (FORWARD, BACKWARD):
                raise ValueError(f"unknown direction {d!r}")
        self.tags = list(tags) if tags is not None else [PairTag() for _ in self.pairs]
        if len(self.tags) != len(self.pairs):
            raise ValueError("need one tag per pair")

    @staticmethod
    def _infer(a: IndexPair, b: IndexPair) -> str:
        if b.includes(a):
            return FORWARD
        if a.includes(b):
            return BACKWARD
        raise ValueError("consecutive pairs are not nested either way")

    def __len__(self) -> int:
        return len(self.pairs)


def _window_rank(dims: list[int], arrows: list[tuple[str, np.ndarray]],
                 b: int, d: int, p: int, iso: list[bool]) -> int:
    """Rank of limit -> colimit of the module restricted to positions [b, d]."""
    if any(dims[i] == 0 for i in range(b, d + 1)):
        return 0
    if b == d:
        return dims[b]
    if all(iso[i] for i in range(b, d)):
        return dims[b]
    offs = [0]
    for i in range(b, d + 1):
        offs.append(offs[-1] + dims[i])
    total = offs[-1]
    blocks = []
    rel_cols = []
    for i in range(b, d):
        direction, mat = arrows[i]
        if direction == FORWARD:
            src, dst = i - b, i - b + 1
        else:
            src, dst = i - b + 1, i - b
        rows = np.zeros((mat.shape[0], total), dtype=np.int64)
        rows[:, offs[src]:offs[src] + mat.shape[1]] = mat
        rows[:, offs[dst]:offs[dst] + mat.shape[0]] -= np.eye(mat.shape[0], dtype=np.int64)
        blocks.append(rows % p)
        for j in range(mat.shape[1]):
            col = np.zeros(total, dtype=np.int64)
            col[offs[dst]:offs[dst] + mat.shape[0]] = mat[:, j]
            col[offs[src] + j] -= 1
            rel_cols.append(col % p)
    constraints = np.vstack(blocks)
    lim = nullspace(constraints, p)
    if lim.shape[1] == 0:
        return 0
    lim_embedded = np.zeros((total, lim.shape[1]), dtype=np.int64)
    lim_embedded[offs[0]:offs[1], :] = lim[offs[0]:offs[1], :]
    rel = np.array(rel_cols, dtype=np.int64).T if rel_cols else np.zeros((total, 0), dtype=np.int64)
    return rank(np.hstack([lim_embedded, rel]), p) - rank(rel, p)


def interval_multiplicities(dims: list[int], arrows: list[tuple[str, np.ndarray]],
                            p: int = 2) -> dict[tuple[int, int], int]:
    """Multiplicity of every interval summand of a zigzag module (0-based windows)."""
    n = len(dims)
    iso = []
    for direction, mat in arrows:
        iso.append(mat.shape[0] == mat.shape[1] and rank(mat, p) == mat.shape[0])
    ranks: dict[tuple[int, int], int] = {}
    for b in range(n):
        for d in range(b, n):
            r = _window_rank(dims, arrows, b, d, p, iso)
            ranks[(b, d)] = r
            if r == 0:
                for dd in range(d + 1, n):
                    ranks[(b, dd)] = 0
                break

    def get(b: int, d: int) -> int:
        return ranks.get((b, d), 0) if 0 <= b and d <= n - 1 else 0

    out: dict[tuple[int, int], int] = {}
    for b in range(n):
        for d in range(b, n):
            m = get(b, d) - get(b - 1, d) - get(b, d + 1) + get(b - 1, d + 1)
            if m < 0:
                raise AssertionError(f"negative multiplicity at window [{b}, {d}]")
            if m:
                out[(b, d)] = m
    return out


def homology_module(zz: PairZigzag, p: int = 2):
    """Per-dimension (dims, arrows) of the coned-complex homology zigzag."""
    check_prime(p)
    apex = max(zz.cx.vertices, default=-1) + 1
    cones: dict[IndexPair, Complex] = {}
    bases: dict[IndexPair, HomologyBasis] = {}
    for pair in zz.pairs:
        if pair not in cones:
            cones[pair] = cone_pair(zz.cx, pair.P, pair.E, apex=apex)
            bases[pair] = HomologyBasis(cones[pair], p)
    kmax = zz.cx.dim
    betti = []
    for pair in zz.pairs:
        bs = bases[pair].betti
        # relative homology vanishes above the ambient dimension, so the cone
        # cannot carry anything there either
        if any(bs[kmax + 1:]):
            raise AssertionError("cone homology above the ambient dimension")
        betti.append(tuple(bs[k] if k < len(bs) else 0 for k in range(kmax + 1)))
    modules = []
    map_cache: dict[tuple[IndexPair, IndexPair, int], np.ndarray] = {}
    for k in range(kmax + 1):
        dims = [bt[k] for bt in betti]
        arrows: list[tuple[str, np.ndarray]] = []
        for i, direction in enumerate(zz.directions):
            a, b = zz.pairs[i], zz.pairs[i + 1]
            small, big = (a, b) if direction == FORWARD else (b, a)
            key = (small, big, k)
            mat = map_cache.get(key)
            if mat is None:
                if small == big:
                    mat = np.eye(dims[i], dtype=np.int64)
                else:
                    mat = induced_map(bases[small], bases[big], k)
                map_cache[key] = mat
            arrows.append((direction, mat))
        modules.append((dims, arrows))
    return betti, modules


def pair_zigzag_barcode(zz: PairZigzag, p: int = 2) -> Barcode:
    """Interval decomposition of the homology zigzag of a pair sequence."""
    betti, modules = homology_module(zz, p)
    bars: list[Bar] = []
    for k, (dims, arrows) in enumerate(modules):
        if not any(dims):
            continue
        for (b, d), m in sorted(interval_multiplicities(dims, arrows, p).items()):
            bars.extend([Bar(k, b + 1, d + 1)] * m)
    bars.sort(key=lambda bar: (bar.dim, bar.birth, bar.death))
    for i, bt in enumerate(betti):
        for k in range(len(bt)):
            covering = sum(1 for bar in bars if bar.dim == k and bar.birth <= i + 1 <= bar.death)
            if covering != bt[k]:
                raise AssertionError(
                    f"bar count {covering} != betti {bt[k]} at position {i + 1}, dim {k}")
    steps = [t.field_index for t in zz.tags]
    step_map = [s for s in steps] if all(s is not None for s in steps) else None
    return Barcode(bars, len(zz), [tuple(bt) for bt in betti], step_map)


def induced_map_rank(cx: Complex, pair_a: IndexPair, pair_b: IndexPair,
                     direction: str, p: int = 2) -> tuple:
    """Per-dimension rank of the inclusion-induced map between two pairs.

    `direction` names the arrow: FORWARD maps pair_a into pair_b and
    requires that inclusion; BACKWARD the reverse.
    """
    if direction == FORWARD:
        small, big = pair_a, pair_b
    elif direction == BACKWARD:
        small, big = pair_b, pair_a
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if not big.includes(small):
        raise ValueError("pairs are not nested in the claimed direction")
    apex = max(cx.vertices, default=-1) + 1
    hb_small = HomologyBasis(cone_pair(cx, small.P, small.E, apex=apex), p)
    hb_big = HomologyBasis(cone_pair(cx, big.P, big.E, apex=apex), p)
    out = []
    for k in range(cx.dim + 1):
        mat = induced_map(hb_small, hb_big, k)
        out.append(rank(mat, p) if mat.size else 0)
    return tuple(out)
