import random

import numpy as np
import pytest

import mvtrack as mv
from mvtrack.dynamics import IndexPair
from mvtrack.zigzag import (BACKWARD, FORWARD, Bar, PairZigzag, homology_module,
                            induced_map_rank, interval_multiplicities,
                            pair_zigzag_barcode)

from helpers import (oracle_multiplicities, random_complex, random_field,
                     random_isolated_set, random_module, closed_subsets)


def test_bar_validation():
    with pytest.raises(ValueError):
        Bar(1, 3, 2)


def test_pair_zigzag_checks_inclusions(triangle):
    a = IndexPair(triangle.closure({(0, 1)}), frozenset({(0,)}))
    b = IndexPair(triangle.simplices, frozenset({(0,)}))
    zz = PairZigzag(triangle, [a, b])
    assert zz.directions == [FORWARD]
    with pytest.raises(ValueError):
        PairZigzag(triangle, [a, b], [BACKWARD])
    c = IndexPair(triangle.closure({(1, 2)}), frozenset())
    with pytest.raises(ValueError):
        PairZigzag(triangle, [a, c])


def test_interval_multiplicities_hand_cases():
    ident = np.eye(1, dtype=np.int64)
    zero = np.zeros((1, 1), dtype=np.int64)
    # F --id--> F : one bar across
    assert interval_multiplicities([1, 1], [(FORWARD, ident)]) == {(0, 1): 1}
    # F <--0-- F : two singleton bars
    assert interval_multiplicities([1, 1], [(BACKWARD, zero)]) == {(0, 0): 1, (1, 1): 1}
    # F --(1,0)--> F^2 <--(0,1)-- F : bars [0,1] and [1,2]
    left = np.array([[1], [0]], dtype=np.int64)
    right = np.array([[0], [1]], dtype=np.int64)
    out = interval_multiplicities([1, 2, 1], [(FORWARD, left), (BACKWARD, right)])
    assert out == {(0, 1): 1, (1, 2): 1}


def test_interval_multiplicities_against_hom_oracle():
    rng = random.Random(40)
    for _ in range(120):
        n = rng.randint(1, 5)
        p = rng.choice([2, 3])
        dims, arrows = random_module(rng, n, max_dim=3, p=p)
        assert interval_multiplicities(dims, arrows, p) \
            == oracle_multiplicities(dims, arrows, p)


def test_constant_zigzag_full_barcode(repeller_disk):
    cx = repeller_disk.cx
    center = repeller_disk.seed
    pair = IndexPair(cx.closure(center), cx.mouth(center))
    zz = PairZigzag(cx, [pair] * 4)
    barcode = pair_zigzag_barcode(zz)
    assert barcode.is_full()
    assert [(b.dim, b.birth, b.death) for b in barcode.bars] == [(2, 1, 4)]


def test_pairs_in_n_intersection_barcode(repeller_disk):
    """Intersecting two index pairs inside a common isolating set keeps the
    static homology: a single full bar in the top dimension."""
    cx = repeller_disk.cx
    every = cx.simplices
    outer = frozenset({(4,), (5,), (6,), (4, 5), (5, 6), (4, 6)})
    e2 = outer | {(2,), (2, 4), (2, 5), (2, 4, 5)}
    e3 = outer | {(3,), (3, 5), (3, 6), (3, 5, 6)}
    zz = PairZigzag(cx, [IndexPair(every, e2), IndexPair(every, e2 & e3),
                         IndexPair(every, e3)])
    barcode = pair_zigzag_barcode(zz)
    assert [(b.dim, b.birth, b.death) for b in barcode.bars] == [(2, 1, 3)]


def test_naive_intersection_barcode_is_erratic(repeller_disk):
    """Raw intersection of two plain index pairs: the ends do not join."""
    cx = repeller_disk.cx
    center = next(iter(repeller_disk.seed))
    left_p = cx.closure({center}) | {(1, 2, 4), (1, 4), (2, 4), (4,)}
    left = IndexPair(left_p, left_p - {center, (1, 2), (1, 2, 4)})
    right_p = cx.closure({center}) | {(1, 3, 6), (1, 6), (3, 6), (6,)}
    right = IndexPair(right_p, right_p - {center, (1, 3), (1, 3, 6)})
    meet = IndexPair(left.P & right.P, left.E & right.E)
    fld = repeller_disk.fields[0]
    assert mv.validate_index_pair(fld, left.P, left.E, repeller_disk.seed)
    assert mv.validate_index_pair(fld, right.P, right.E, repeller_disk.seed)
    assert not mv.validate_index_pair(fld, meet.P, meet.E,
                                      mv.invariant_part(fld, meet.body))
    barcode = pair_zigzag_barcode(PairZigzag(cx, [left, meet, right]))
    assert not barcode.is_full()
    assert [(b.birth, b.death) for b in barcode.bars_in_dim(2)] == [(1, 1), (3, 3)]
    assert [(b.birth, b.death) for b in barcode.bars_in_dim(1)] == [(2, 2)]
    # pairs with disjoint bodies: the induced map vanishes in every dimension
    assert induced_map_rank(cx, meet, left, FORWARD) == (0, 0, 0)


def test_module_extraction_matches_oracle_on_real_zigzags():
    rng = random.Random(41)
    done = 0
    while done < 12:
        cx = random_complex(rng, n_vertices=5, n_maximal=3, max_dim=2, max_size=12)
        closed = closed_subsets(cx)
        pairs = [_random_pair(rng, closed)]
        for _ in range(rng.randint(1, 4)):
            nxt = _random_adjacent_pair(rng, closed, pairs[-1])
            if nxt is None:
                break
            pairs.append(nxt)
        if len(pairs) < 2:
            continue
        zz = PairZigzag(cx, pairs)
        _, modules = homology_module(zz, 2)
        for dims, arrows in modules:
            assert interval_multiplicities(dims, arrows, 2) \
                == oracle_multiplicities(dims, arrows, 2)
        done += 1


def _random_pair(rng, closed):
    pset = rng.choice(closed)
    eset = rng.choice([e for e in closed if e <= pset])
    return IndexPair(pset, eset)


def _random_adjacent_pair(rng, closed, prev):
    grow = rng.random() < 0.5
    candidates = []
    for pset in closed:
        if grow and not prev.P <= pset:
            continue
        if not grow and not pset <= prev.P:
            continue
        for eset in closed:
            if not eset <= pset:
                continue
            if grow and prev.E <= eset:
                candidates.append(IndexPair(pset, eset))
            if not grow and eset <= prev.E:
                candidates.append(IndexPair(pset, eset))
        if len(candidates) > 200:
            break
    return rng.choice(candidates) if candidates else None


def test_barcode_counts_match_betti(merging_saddles):
    trace = mv.run_protocol(merging_saddles.fields, merging_saddles.seed)
    barcode = trace.barcode
    for pos, betti in enumerate(barcode.betti_per_position, start=1):
        for dim, expected in enumerate(betti):
            covering = sum(1 for b in barcode.bars
                           if b.dim == dim and b.birth <= pos <= b.death)
            assert covering == expected


def test_induced_map_rank(merging_saddles):
    cx = merging_saddles.cx
    v1 = merging_saddles.fields[0]
    seed = merging_saddles.seed
    canonical = mv.canonical_index_pair(v1, seed)
    assert induced_map_rank(cx, canonical, canonical, FORWARD) == (0, 1, 0)
    bigger = IndexPair(mv.push_forward(v1, canonical.P, cx.simplices),
                       mv.push_forward(v1, canonical.E, cx.simplices))
    assert mv.validate_index_pair(v1, bigger.P, bigger.E, seed)
    # nested pairs for one invariant set: inclusion induces an isomorphism
    assert induced_map_rank(cx, canonical, bigger, FORWARD) == (0, 1, 0)
    with pytest.raises(ValueError):
        induced_map_rank(cx, canonical, bigger, BACKWARD)


def test_semi_equal_inclusions_induce_isomorphisms():
    """Nested index pairs for one set sharing P or sharing E."""
    rng = random.Random(42)
    done = 0
    while done < 10:
        cx = random_complex(rng, max_size=14)
        fld = random_field(rng, cx)
        if not mv.validate_field(fld):
            continue
        subset = random_isolated_set(rng, fld)
        if subset is None:
            continue
        canonical = mv.canonical_index_pair(fld, subset)
        pf_p = mv.push_forward(fld, canonical.P, cx.simplices)
        pf_e = mv.push_forward(fld, canonical.E, cx.simplices)
        grown = IndexPair(pf_p, pf_e)
        if not mv.validate_index_pair(fld, grown.P, grown.E, subset):
            continue
        betti = mv.relative_homology(cx, canonical.P, canonical.E)
        same_p = IndexPair(canonical.P, grown.E & canonical.P)
        if mv.validate_index_pair(fld, same_p.P, same_p.E, subset):
            assert induced_map_rank(cx, canonical, same_p, FORWARD) == betti
        same_e = IndexPair(canonical.P | grown.E, grown.E)
        if mv.validate_index_pair(fld, same_e.P, same_e.E, subset):
            assert induced_map_rank(cx, same_e, grown, FORWARD) == betti
        done += 1
