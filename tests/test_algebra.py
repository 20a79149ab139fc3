import random
import time

import numpy as np
import pytest

import mvtrack as mv
from mvtrack.algebra import (HomologyBasis, check_prime, cone_pair, induced_map,
                             nullspace, rank, reduced_betti, relative_homology)

from helpers import (boundary_matrix, closed_subsets, dense_induced_rank,
                     dense_reduced_betti, dense_relative_betti, random_complex, solve)


def test_rank_basics():
    assert rank(np.zeros((3, 4), dtype=np.int64)) == 0
    assert rank(np.eye(5, dtype=np.int64)) == 5
    assert rank(np.array([[1, 1], [1, 4]]), p=3) == 1
    assert rank(np.array([[1, 1], [1, 4]]), p=5) == 2


def test_rank_of_triangle_boundary(triangle):
    edges = [(0, 1), (0, 2), (1, 2)]
    mat = boundary_matrix([(0, 1, 2)], edges, 2)
    assert mat.shape == (3, 1)
    assert rank(mat, 2) == 1


def test_nullspace_and_solve():
    mat = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.int64)
    basis = nullspace(mat, 2)
    assert basis.shape[1] == 1
    assert not ((mat @ basis) % 2).any()
    assert (nullspace(np.zeros((0, 4), dtype=np.int64), 3) == np.eye(4)).all()
    assert nullspace(np.zeros((3, 0), dtype=np.int64), 3).shape == (0, 0)
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


RP2 = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
       (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


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
    boundary_only = mv.Complex(triangle.simplices - {(0, 1, 2)})
    hb_small = HomologyBasis(boundary_only, 2)
    assert hb_small.betti == [0, 1]
    hb_big = HomologyBasis(triangle, 2)
    assert hb_big.betti == [0, 0, 0]
    mat = induced_map(hb_small, hb_big, 1)
    assert mat.shape == (0, 1)


def _nested_cone_pairs(rng, n_cases, max_size=14):
    """Random closed pairs (P, E) <= (P2, E2) over random complexes, then the
    punctured projective plane (torsion) inside its cone: yields cx, P, E and
    the complexes of both pairs."""
    for _ in range(n_cases):
        cx = random_complex(rng, n_vertices=5, n_maximal=3, max_dim=2, max_size=max_size)
        closed = closed_subsets(cx)
        pset = rng.choice(closed)
        eset = rng.choice([e for e in closed if e <= pset])
        pset2 = rng.choice([q for q in closed if pset <= q])
        eset2 = rng.choice([e for e in closed if eset <= e <= pset2])
        apex = max(cx.vertices) + 1
        yield (cx, pset, eset,
               cone_pair(cx, pset, eset, apex), cone_pair(cx, pset2, eset2, apex))
    rp2 = mv.Complex.from_maximal(RP2)
    punctured = rp2.simplices - {(1,)}
    pset, eset = rp2.closure(punctured), rp2.mouth(punctured)
    yield rp2, pset, eset, rp2, cone_pair(rp2, pset, eset)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sparse_kernel_matches_dense_oracle(p):
    rng = random.Random(40 + p)
    for cx, pset, eset, small, big in _nested_cone_pairs(rng, 25):
        assert relative_homology(cx, pset, eset, p) == dense_relative_betti(cx, pset, eset, p)
        for cone in (small, big):
            expected = dense_reduced_betti(cone, p)
            assert reduced_betti(cone, p) == expected
            assert HomologyBasis(cone, p).betti == list(expected)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_induced_map_rank_matches_dense_oracle(p):
    rng = random.Random(50 + p)
    for _, _, _, small, big in _nested_cone_pairs(rng, 25):
        hb_small, hb_big = HomologyBasis(small, p), HomologyBasis(big, p)
        for k in range(big.dim + 1):
            mat = induced_map(hb_small, hb_big, k)
            assert rank(mat, p) == dense_induced_rank(small, big, k, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coordinates_of_representatives_and_non_cycles(p):
    rng = random.Random(60 + p)
    for _, _, _, _, cone in _nested_cone_pairs(rng, 20):
        hb = HomologyBasis(cone, p)
        for k, level in enumerate(hb.by_dim):
            reps = hb.representative_cycles(k)
            assert reps.shape == (len(level), hb.betti[k])
            if k + 1 < len(hb.by_dim) and hb.by_dim[k + 1]:
                bnd = boundary_matrix(hb.by_dim[k + 1][:1], level, p)[:, 0]
            else:
                bnd = np.zeros(len(level), dtype=np.int64)
            for j in range(hb.betti[k]):
                unit = np.eye(hb.betti[k], dtype=np.int64)[j]
                assert (hb.coordinates(k, reps[:, j]) == unit).all()
                # adding a boundary does not change the class
                shifted = (2 * reps[:, j] + bnd) % p
                assert (hb.coordinates(k, shifted) == (2 * unit) % p).all()
            # a single simplex has a nonzero (augmented) boundary
            single = np.zeros(len(level), dtype=np.int64)
            single[0] = 1
            with pytest.raises(ValueError):
                hb.coordinates(k, single)


# Above 2**32 the old dense int64 elimination overflowed without error.
BIG_P = 2 ** 32 + 15


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
        assert rank(np.array(prod, dtype=np.int64), BIG_P) == 3


def test_homology_is_exact_at_a_large_prime():
    cx = mv.Complex.from_maximal(RP2)
    assert relative_homology(cx, cx.simplices, frozenset(), BIG_P) == (1, 0, 0)
    assert HomologyBasis(cx, BIG_P).betti == [0, 0, 0]
    rng = random.Random(33)
    for cx, pset, eset, _, big in _nested_cone_pairs(rng, 10):
        # no torsion on complexes this small, so rational Betti numbers
        assert relative_homology(cx, pset, eset, BIG_P) == relative_homology(cx, pset, eset, 3)
        assert HomologyBasis(big, BIG_P).betti == list(reduced_betti(big, 3))


def test_check_prime_is_exact_and_fast():
    start = time.perf_counter()
    assert check_prime(2 ** 61 - 1) == 2 ** 61 - 1
    assert check_prime(BIG_P) == BIG_P
    assert time.perf_counter() - start < 1.0
    for n in (-3, 0, 1, 4, 561, 2047, 3215031751, (2 ** 31 - 1) * (2 ** 31 + 11)):
        with pytest.raises(ValueError, match="must be prime"):
            check_prime(n)
    trial = [n for n in range(2, 3000) if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(3000) if _accepted(n)] == trial
    with pytest.raises(ValueError, match="below 2\\*\\*63"):
        check_prime(9223372036854775837)


def _accepted(n):
    try:
        return check_prime(n) == n
    except ValueError:
        return False
