import random

import pytest

import mvtrack as mv
from mvtrack.dynamics import (IndexPair, canonical_index_pair, invariant_part,
                              is_invariant, is_isolated_invariant_set, isolates, push_forward, validate_index_pair,
                              validate_index_pair_in_n)
from mvtrack.fields import MultivectorField, intersect_fields

from helpers import (brute_invariant_part, closed_subsets, random_complex,
                     random_field, random_isolated_set, random_subset)


def test_index_pair_type():
    pair = IndexPair(frozenset({(0,), (1,)}), frozenset({(0,)}))
    assert pair.body == {(1,)}
    with pytest.raises(ValueError):
        IndexPair(frozenset({(0,)}), frozenset({(1,)}))


def test_invariant_part_examples(triangle):
    singles = MultivectorField.singleton_field(triangle)
    assert invariant_part(singles, triangle.simplices) == triangle.simplices
    assert invariant_part(singles, frozenset()) == frozenset()
    arrow = MultivectorField.from_parts(triangle, [[(0,), (0, 1)]],
                                        complete_singletons=True)
    assert invariant_part(arrow, frozenset({(0,), (0, 1)})) == frozenset()


def test_invariant_part_is_idempotent():
    rng = random.Random(9)
    for _ in range(40):
        cx = random_complex(rng, max_size=14)
        fld = random_field(rng, cx)
        subset = random_subset(rng, cx.simplices)
        inv = invariant_part(fld, subset)
        assert invariant_part(fld, inv) == inv


def test_invariant_part_against_definition_oracle():
    rng = random.Random(10)
    for _ in range(60):
        cx = random_complex(rng, n_vertices=5, n_maximal=3, max_dim=2, max_size=12)
        fld = random_field(rng, cx, merges=rng.randint(0, 4))
        subset = random_subset(rng, cx.simplices, max_size=10)
        assert invariant_part(fld, subset) == brute_invariant_part(fld, subset)


def test_is_invariant(triangle):
    singles = MultivectorField.singleton_field(triangle)
    assert is_invariant(singles, frozenset())
    assert is_invariant(singles, frozenset({(0, 1, 2)}))
    arrow = MultivectorField.from_parts(triangle, [[(0,), (0, 1)]],
                                        complete_singletons=True)
    assert not is_invariant(arrow, frozenset({(0,), (0, 1)}))


def test_is_v_compatible(triangle):
    fld = MultivectorField.from_parts(triangle, [[(0,), (0, 1)]],
                                      complete_singletons=True)
    assert fld.is_compatible(frozenset())
    assert fld.is_compatible(frozenset({(0,), (0, 1)}))
    assert not fld.is_compatible(frozenset({(0,)}))


def test_isolated_invariant_set(merging_saddles):
    fld = merging_saddles.fields[0]
    assert is_isolated_invariant_set(fld, merging_saddles.seed)
    # invariant and convex, but only half of a critical disconnected multivector
    cx = mv.Complex.from_maximal([[0, 1], [2, 3]])
    two_edges = MultivectorField.from_parts(cx, [[(0, 1), (2, 3)]],
                                            complete_singletons=True)
    half = frozenset({(0, 1)})
    assert is_invariant(two_edges, half) and cx.is_convex(half)
    assert not is_isolated_invariant_set(two_edges, half)


def _return_path_complex():
    """An edge whose closure isolates it although the full complex does not:
    outside the closure there is a path climbing back onto a coface."""
    cx = mv.Complex.from_maximal([[1, 2, 3], [2, 3, 4], [2, 5], [4, 5]])
    fld = MultivectorField.from_parts(
        cx,
        [[(4,), (2, 4), (3, 4), (2, 3, 4)], [(2,), (2, 5)], [(5,), (4, 5)]],
        complete_singletons=True)
    subset = frozenset({(2, 3)})
    return cx, fld, subset


def test_isolates_examples():
    cx, fld, subset = _return_path_complex()
    assert mv.validate_field(fld)
    assert is_isolated_invariant_set(fld, subset)
    assert isolates(fld, cx.closure(subset), subset)
    assert not isolates(fld, cx.simplices, subset)
    assert isolates(fld, cx.simplices, frozenset())


def test_isolates_needs_closed_neighborhood(triangle):
    singles = MultivectorField.singleton_field(triangle)
    assert not isolates(singles, frozenset({(0, 1)}), frozenset({(0, 1)}))


def test_push_forward(triangle):
    singles = MultivectorField.singleton_field(triangle)
    every = triangle.simplices
    assert push_forward(singles, every, every) == every
    assert push_forward(singles, frozenset(), every) == frozenset()
    assert push_forward(singles, frozenset({(0, 1)}), triangle.closure({(0, 1)})) \
        == triangle.closure({(0, 1)})
    with pytest.raises(ValueError):
        push_forward(singles, frozenset({(0, 1)}), frozenset({(0,)}))


def test_push_forward_monotone_idempotent():
    rng = random.Random(12)
    for _ in range(30):
        cx = random_complex(rng, max_size=14)
        fld = random_field(rng, cx)
        nbhd = cx.closure(random_subset(rng, cx.simplices))
        small = random_subset(rng, nbhd)
        big = small | random_subset(rng, nbhd)
        pf_small = push_forward(fld, small, nbhd)
        pf_big = push_forward(fld, big, nbhd)
        assert small <= pf_small <= pf_big
        assert push_forward(fld, pf_small, nbhd) == pf_small
        assert cx.is_closed(pf_small)


def test_validate_index_pair_examples(merging_saddles):
    fld = merging_saddles.fields[0]
    cx = merging_saddles.cx
    seed = merging_saddles.seed
    assert validate_index_pair(fld, cx.closure(seed), cx.mouth(seed), seed)
    whole = invariant_part(fld, cx.simplices)
    assert validate_index_pair(fld, cx.simplices, frozenset(), whole)
    report = validate_index_pair(fld, cx.closure(seed), frozenset(), seed)
    assert not report and report.problems
    # N = P: a P that is not closed is one failed condition, reported once
    report = validate_index_pair(fld, seed, frozenset(), seed)
    assert [m for m in report.problems if "not closed" in m] == ["P is not closed"]


def test_canonical_index_pair(triangle, merging_saddles):
    fld = merging_saddles.fields[0]
    cx = merging_saddles.cx
    pair = canonical_index_pair(fld, merging_saddles.seed)
    assert mv.relative_homology(cx, pair.P, pair.E) == (0, 1, 0)
    empty = canonical_index_pair(fld, frozenset())
    assert empty.P == frozenset() and empty.E == frozenset()
    singles = MultivectorField.singleton_field(triangle)
    with pytest.raises(mv.PreconditionError):
        canonical_index_pair(singles, frozenset({(0,), (0, 1, 2)}))


def test_canonical_index_pair_random():
    rng = random.Random(13)
    for _ in range(30):
        cx = random_complex(rng, max_size=14)
        fld = random_field(rng, cx)
        subset = random_isolated_set(rng, fld)
        if subset is None:
            continue
        pair = canonical_index_pair(fld, subset)
        assert validate_index_pair(fld, pair.P, pair.E, subset)


def test_index_pair_in_n(merging_saddles):
    fld = merging_saddles.fields[0]
    cx = merging_saddles.cx
    seed = merging_saddles.seed
    pair = canonical_index_pair(fld, seed)
    # any index pair is an index pair inside its own first component
    assert validate_index_pair_in_n(fld, pair.P, pair.E, pair.P, seed)


def test_push_forward_pair_in_n_and_intersection(repeller_disk):
    cx = repeller_disk.cx
    fld = repeller_disk.fields[0]
    center = repeller_disk.seed
    every = cx.simplices
    assert isolates(fld, every, center)
    pf_pair = IndexPair(push_forward(fld, cx.closure(center), every),
                        push_forward(fld, cx.mouth(center), every))
    assert validate_index_pair_in_n(fld, pf_pair.P, pf_pair.E, every, center)
    other = IndexPair(every, every - center)
    assert validate_index_pair_in_n(fld, other.P, other.E, every, center)
    meet = IndexPair(pf_pair.P & other.P, pf_pair.E & other.E)
    mixed = intersect_fields(fld, fld)
    s_meet = invariant_part(mixed, meet.body)
    assert validate_index_pair_in_n(mixed, meet.P, meet.E, every, s_meet)
