import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mvtrack as mv
from mvtrack import algebra
from mvtrack.algebra import (MAX_PRIME, HomologyBasis, check_prime, induced_map, nullspace,
                             relative_homology)
from mvtrack.cli import main
from mvtrack.dynamics import IndexPair
from mvtrack.zigzag import FORWARD

import helpers
from helpers import (BIG_P, RP2, boundary_matrix, closed_subsets, cone_pair, dense,
                     dense_reduced_betti, dense_relative_betti, induced_map_rank, oracle_prime,
                     random_complex, rank, reduced_betti, solve)

FIXTURES = Path(__file__).parent.parent / "fixtures"


def test_rank_basics():
    assert rank([[0] * 4] * 3) == 0
    assert rank(np.eye(5, dtype=np.int64)) == 5
    assert rank([[1, 1], [1, 4]], p=3) == 1
    assert rank([[1, 1], [1, 4]], p=5) == 2
    assert rank([], p=3) == 0


def test_rank_of_triangle_boundary(triangle):
    edges = [(0, 1), (0, 2), (1, 2)]
    mat = boundary_matrix([(0, 1, 2)], edges, 2)
    assert mat.shape == (3, 1)
    assert rank(mat, 2) == 1


def test_nullspace_and_solve():
    mat = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.int64)
    basis = nullspace(mat.tolist(), 2)
    assert basis == [{0: 1, 1: 1, 2: 1}]
    assert not ((mat @ dense(basis, 3)) % 2).any()
    assert nullspace([[0] * 4], 3) == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]
    assert nullspace([[], [], []], 3) == [] and nullspace([], 3) == []
    # the dense oracle, which the Hom-dimension oracle uses, on empty shapes
    assert (helpers.nullspace(np.zeros((0, 4), dtype=np.int64), 3) == np.eye(4)).all()
    assert helpers.nullspace(np.zeros((3, 0), dtype=np.int64), 3).shape == (0, 0)
    x = solve(mat, np.array([1, 0]), 2)
    assert ((mat @ x) % 2 == np.array([1, 0])).all()
    assert solve(np.zeros((2, 2), dtype=np.int64), np.array([1, 0]), 2) is None


def test_relative_homology_examples(triangle):
    top = frozenset({(0, 1, 2)})
    assert relative_homology(triangle, triangle.closure(top), triangle.mouth(top)) == (0, 0, 1)
    assert relative_homology(triangle, frozenset({(0,)}), frozenset()) == (1, 0, 0)
    assert relative_homology(triangle, triangle.simplices, triangle.simplices) == (0, 0, 0)


def test_relative_homology_of_saddle_sets(merging_saddles):
    cx = merging_saddles.cx
    seed = merging_saddles.seed
    assert relative_homology(cx, cx.closure(seed), cx.mouth(seed)) == (0, 1, 0)


def test_relative_homology_rejects_bad_pairs(triangle):
    with pytest.raises(ValueError):
        relative_homology(triangle, frozenset({(0, 1)}), frozenset())
    with pytest.raises(ValueError):
        relative_homology(triangle, frozenset({(0,)}), frozenset({(1,)}))
    with pytest.raises(ValueError):
        relative_homology(triangle, frozenset({(0,)}), frozenset(), p=4)


def test_cone_pair_examples(triangle):
    coned = cone_pair(triangle, frozenset({(0,)}), frozenset())
    assert (3,) in coned.simplices and len(coned) == 2

    edge = triangle.closure({(0, 1)})
    ends = frozenset({(0,), (1,)})
    coned = cone_pair(triangle, edge, ends)
    assert reduced_betti(coned) == (0, 1)
    assert relative_homology(triangle, edge, ends)[:2] == (0, 1)

    with pytest.raises(ValueError):
        cone_pair(triangle, edge, ends, apex=0)


def test_cone_pair_is_monotone(triangle):
    small = cone_pair(triangle, triangle.closure({(0, 1)}), frozenset({(0,)}), apex=9)
    big = cone_pair(triangle, triangle.simplices, triangle.closure({(0, 1)}), apex=9)
    assert small.simplices <= big.simplices


def test_relative_equals_coned_reduced_on_random_pairs():
    rng = random.Random(5)
    for _ in range(40):
        cx = random_complex(rng, n_vertices=5, n_maximal=3, max_dim=2, max_size=15)
        closed = closed_subsets(cx)
        pset = rng.choice(closed)
        esets = [e for e in closed if e <= pset]
        eset = rng.choice(esets)
        for p in (2, 3):
            rel = relative_homology(cx, pset, eset, p)
            red = reduced_betti(cone_pair(cx, pset, eset), p)
            padded = tuple(red) + (0,) * (len(rel) - len(red))
            assert rel == padded[:len(rel)] and not any(padded[len(rel):])


def test_euler_characteristic_consistency():
    rng = random.Random(6)
    for _ in range(30):
        cx = random_complex(rng, n_vertices=5, n_maximal=3, max_dim=2, max_size=15)
        closed = closed_subsets(cx)
        pset = rng.choice(closed)
        eset = rng.choice([e for e in closed if e <= pset])
        betti = relative_homology(cx, pset, eset, 2)
        chi_homology = sum((-1) ** k * b for k, b in enumerate(betti))
        chi_count = sum((-1) ** (len(s) - 1) for s in pset - eset)
        assert chi_homology == chi_count


def test_characteristic_matters_on_projective_plane():
    """Betti numbers over GF(2) and odd characteristics differ, which pins
    the boundary sign convention."""
    cx = mv.Complex.from_maximal(RP2)
    every = cx.simplices
    assert relative_homology(cx, every, frozenset(), 2) == (1, 1, 1)
    assert relative_homology(cx, every, frozenset(), 3) == (1, 0, 0)
    assert relative_homology(cx, every, frozenset(), 5) == (1, 0, 0)
    punctured = every - {(1,)}
    assert relative_homology(cx, cx.closure(punctured), cx.mouth(punctured), 2) \
        == (0, 1, 1)
    assert relative_homology(cx, cx.closure(punctured), cx.mouth(punctured), 3) \
        == (0, 0, 0)
    assert reduced_betti(cone_pair(cx, cx.closure(punctured), cx.mouth(punctured)), 3) \
        == (0, 0, 0)


def test_criticality_depends_on_characteristic():
    cx = mv.Complex.from_maximal(RP2)
    punctured = cx.simplices - {(1,)}
    assert cx.is_convex(punctured)
    fld = mv.MultivectorField.from_parts(cx, [punctured], complete_singletons=True)
    ident = fld.mv_id(min(punctured))
    assert fld.is_critical(ident, 2)
    assert not fld.is_critical(ident, 3)
    assert mv.invariant_part(fld, cx.simplices, 2) == cx.simplices
    assert mv.invariant_part(fld, cx.simplices, 3) == frozenset({(1,)})


def test_homology_basis_and_induced_map(triangle):
    boundary = triangle.simplices - {(0, 1, 2)}
    every = triangle.simplices
    circle = HomologyBasis(triangle, boundary, frozenset(), 2)
    assert circle.betti == [1, 1, 0]
    disk = HomologyBasis(triangle, every, frozenset(), 2)
    assert disk.betti == [1, 0, 0]
    # the class of the circle dies in the disk; its vertex class lives on
    assert induced_map(circle, disk, 1) == [{}]
    assert induced_map(circle, disk, 0) == [{0: 1}]
    # the disk relative to its boundary: the circle's cells all lie in E
    rel = HomologyBasis(triangle, every, boundary, 2)
    assert rel.betti == [0, 0, 1] and rel.by_dim == [[], [], [(0, 1, 2)]]
    assert induced_map(circle, rel, 0) == induced_map(circle, rel, 1) == [{}]


def _nested_pairs(rng, n_cases, max_size=14):
    """Random closed pairs (P, E) <= (P2, E2) over random complexes, then
    pairs in the projective plane (torsion): yields cx and both pairs."""
    for _ in range(n_cases):
        cx = random_complex(rng, n_vertices=5, n_maximal=3, max_dim=2, max_size=max_size)
        closed = closed_subsets(cx)
        pset = rng.choice(closed)
        eset = rng.choice([e for e in closed if e <= pset])
        pset2 = rng.choice([q for q in closed if pset <= q])
        eset2 = rng.choice([e for e in closed if eset <= e <= pset2])
        yield cx, IndexPair(pset, eset), IndexPair(pset2, eset2)
    rp2 = mv.Complex.from_maximal(RP2)
    every = rp2.simplices
    empty, vertex, triangle = frozenset(), frozenset({(1,)}), rp2.closure({(1, 2, 3)})
    yield rp2, IndexPair(every, empty), IndexPair(every, vertex)
    yield rp2, IndexPair(every, vertex), IndexPair(every, triangle)
    yield rp2, IndexPair(rp2.closure({(1, 2, 3), (2, 3, 6)}), vertex), IndexPair(every, vertex)


def _cone_betti(cx, pair, p):
    """Reduced Betti numbers of the pair's cone by the dense oracle, 0..dim(K)."""
    betti = dense_reduced_betti(cone_pair(cx, pair.P, pair.E), oracle_prime(p))
    padded = betti + (0,) * (cx.dim + 1 - len(betti))
    assert not any(padded[cx.dim + 1:])
    return list(padded[:cx.dim + 1])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sparse_kernel_matches_dense_oracle(p):
    rng = random.Random(40 + p)
    for cx, small, big in _nested_pairs(rng, 25):
        for pair in (small, big):
            assert relative_homology(cx, pair.P, pair.E, p) \
                == dense_relative_betti(cx, pair.P, pair.E, p)
            cone = cone_pair(cx, pair.P, pair.E)
            assert reduced_betti(cone, p) == dense_reduced_betti(cone, p)


@pytest.mark.parametrize("p", [2, 3, 5, BIG_P])
def test_relative_basis_matches_the_cone_oracle(p):
    """The basis of each pair's relative chain complex against the dense
    reduced homology of its cone: Betti numbers, the rank of every induced
    map, and unit coordinates for every representative."""
    rng = random.Random(70 + p)
    for cx, small, big in _nested_pairs(rng, 25):
        hb_small, hb_big = (HomologyBasis(cx, pair.P, pair.E, p) for pair in (small, big))
        assert hb_small.betti == _cone_betti(cx, small, p)
        assert hb_big.betti == _cone_betti(cx, big, p)
        ranks = induced_map_rank(cx, small, big, FORWARD, oracle_prime(p))
        for k in range(cx.dim + 1):
            cols = induced_map(hb_small, hb_big, k)
            assert rank(dense(cols, hb_big.betti[k]), p) == ranks[k]
        for hb in (hb_small, hb_big):
            for k, reps in enumerate(hb.reps):
                for j, rep in enumerate(reps):
                    unit = [int(i == j) for i in range(hb.betti[k])]
                    assert hb.coordinates(k, dict(rep)) == unit


@pytest.mark.parametrize("p", [2, 3, 5])
def test_induced_map_rank_matches_dense_oracle(p):
    rng = random.Random(50 + p)
    for cx, small, big in _nested_pairs(rng, 25):
        hb_small, hb_big = (HomologyBasis(cx, pair.P, pair.E, p) for pair in (small, big))
        ranks = induced_map_rank(cx, small, big, FORWARD, p)
        for k in range(cx.dim + 1):
            cols = induced_map(hb_small, hb_big, k)
            assert len(cols) == hb_small.betti[k]
            assert all(0 <= r < hb_big.betti[k] for col in cols for r in col)
            assert rank(dense(cols, hb_big.betti[k]), p) == ranks[k]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coordinates_of_representatives_and_non_cycles(p):
    rng = random.Random(60 + p)
    non_cycles = 0
    for cx, _, pair in _nested_pairs(rng, 20):
        hb = HomologyBasis(cx, pair.P, pair.E, p)
        for k, level in enumerate(hb.by_dim):
            reps = hb.reps[k]
            assert len(reps) == hb.betti[k]
            assert all(0 <= i < len(level) for rep in reps for i in rep)
            if k + 1 < len(hb.by_dim) and hb.by_dim[k + 1]:
                bnd = boundary_matrix(hb.by_dim[k + 1][:1], level, p)[:, 0].tolist()
            else:
                bnd = [0] * len(level)
            for j, rep in enumerate(reps):
                unit = [int(i == j) for i in range(hb.betti[k])]
                assert hb.coordinates(k, dict(rep)) == unit
                # adding a relative boundary does not change the class
                shifted = {i: (2 * rep.get(i, 0) + b) % p for i, b in enumerate(bnd)}
                shifted = {i: x for i, x in shifted.items() if x}
                assert hb.coordinates(k, shifted) == [2 * x % p for x in unit]
            # a cell with a face outside E has a nonzero relative boundary
            if k and level and boundary_matrix(level[:1], hb.by_dim[k - 1], p).any():
                non_cycles += 1
                with pytest.raises(ValueError, match="not a cycle"):
                    hb.coordinates(k, {0: 1})
    assert non_cycles >= 10


def test_rank_is_exact_at_a_large_prime():
    rng = random.Random(32)
    for _ in range(50):
        m, n = rng.randint(4, 8), rng.randint(4, 8)
        # rank exactly 3: an identity block, the other rows/columns random,
        # then rows and columns shuffled
        left = [[int(i == j) for j in range(3)] for i in range(3)]
        left += [[rng.randrange(BIG_P) for _ in range(3)] for _ in range(m - 3)]
        right = [[int(i == j) for j in range(3)] + [rng.randrange(BIG_P) for _ in range(n - 3)]
                 for i in range(3)]
        rng.shuffle(left)
        order = rng.sample(range(n), n)
        prod = [[sum(row[t] * right[t][c] for t in range(3)) % BIG_P for c in order]
                for row in left]
        assert rank(prod, BIG_P) == 3


def test_homology_is_exact_at_a_large_prime():
    cx = mv.Complex.from_maximal(RP2)
    assert relative_homology(cx, cx.simplices, frozenset(), BIG_P) == (1, 0, 0)
    assert HomologyBasis(cx, cx.simplices, frozenset(), BIG_P).betti == [1, 0, 0]
    rng = random.Random(33)
    for cx, _, big in _nested_pairs(rng, 10):
        # no odd torsion on these complexes, so rational Betti numbers
        expected = relative_homology(cx, big.P, big.E, 3)
        assert relative_homology(cx, big.P, big.E, BIG_P) == expected
        assert HomologyBasis(cx, big.P, big.E, BIG_P).betti == list(expected)


def test_check_prime_is_exact_and_fast():
    # timed on the Miller-Rabin test itself: check_prime remembers its primes
    start = time.perf_counter()
    assert algebra._is_prime(2 ** 61 - 1) and algebra._is_prime(BIG_P)
    assert time.perf_counter() - start < 1.0
    assert check_prime(2 ** 61 - 1) == 2 ** 61 - 1
    assert check_prime(BIG_P) == BIG_P
    for n in (-3, 0, 1, 4, 561, 2047, 3215031751, (2 ** 31 - 1) * (2 ** 31 + 11)):
        with pytest.raises(ValueError, match="must be prime"):
            check_prime(n)
    trial = [n for n in range(2, 3000) if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(3000) if _accepted(n)] == trial
    # primes above 2**63 are accepted; the least strong pseudoprime to the
    # bases 2..37 is caught by base 41
    assert check_prime(2 ** 63 + 29) == 2 ** 63 + 29
    assert check_prime(2 ** 64 + 13) == 2 ** 64 + 13
    with pytest.raises(ValueError, match="must be prime"):
        check_prime(318665857834031151167461)
    # the least strong pseudoprime to the bases 2..41 is the bound itself
    for n in (MAX_PRIME, MAX_PRIME + 2):
        with pytest.raises(ValueError, match=f"below {MAX_PRIME}"):
            check_prime(n)


def test_check_prime_rejects_a_characteristic_that_is_not_an_int(triangle):
    """A float or numpy integer equal to a prime is refused up front, not by
    a `pow` deep inside elimination, and not from the cached int's entry."""
    assert check_prime(2) == 2 and check_prime(3) == 3
    for p in (2.0, 3.0, np.int64(3)):
        with pytest.raises(ValueError, match="must be an integer, got"):
            check_prime(p)
    with pytest.raises(ValueError, match="must be prime, got True"):
        check_prime(True)
    top = frozenset({(0, 1, 2)})
    with pytest.raises(ValueError, match="must be an integer, got 2.0"):
        relative_homology(triangle, triangle.closure(top), triangle.mouth(top), 2.0)


def test_a_prime_is_tested_once_and_a_non_prime_on_every_call(monkeypatch):
    """Tracking a fixture at a large prime runs Miller-Rabin once per
    characteristic, though homology and criticality check it again and
    again; a non-prime is tested, and rejected, each time it is given."""
    calls, is_prime = Counter(), algebra._is_prime

    def counted(n):
        calls[n] += 1
        return is_prime(n)

    monkeypatch.setattr(algebra, "_is_prime", counted)
    check_prime.cache_clear()
    scene = str(FIXTURES / "merging_saddles.json")
    for p in (2 ** 61 - 1, 3, 2 ** 61 - 1, 3):
        assert main(["track", scene, "--field-char", str(p)]) == 0
    assert calls == {2 ** 61 - 1: 1, 3: 1}
    fld = mv.load_scene(scene).fields[0]
    for k in range(1, 4):
        with pytest.raises(ValueError, match="must be prime, got 2305843009213693953"):
            check_prime(2 ** 61 + 1)
        with pytest.raises(ValueError, match="must be prime, got 4"):
            fld.is_critical(fld.ids()[0], 4)
        assert calls[2 ** 61 + 1] == calls[4] == k


def _accepted(n):
    try:
        return check_prime(n) == n
    except ValueError:
        return False
