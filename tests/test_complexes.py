import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import mvtrack as mv
from mvtrack.complexes import Complex, proper_faces, simplex

from helpers import random_complex, random_subset


def test_simplex_normalizes_and_validates():
    assert simplex([3, 1, 2]) == (1, 2, 3)
    with pytest.raises(ValueError):
        simplex([])
    with pytest.raises(ValueError):
        simplex([1, 1, 2])


def test_complex_requires_closure():
    with pytest.raises(ValueError):
        Complex([(1, 2)])
    cx = Complex([(1,), (2,), (1, 2)])
    assert len(cx) == 3 and cx.dim == 1


def test_from_maximal_completes_closure(triangle):
    assert len(triangle) == 7
    assert triangle.vertices == (0, 1, 2)
    assert triangle.cofacets((0, 1)) == ((0, 1, 2),)


def test_closure_examples(triangle):
    assert triangle.closure({(0,)}) == {(0,)}
    assert triangle.closure({(0, 1, 2)}) == triangle.simplices
    assert triangle.closure(frozenset()) == frozenset()


def test_mouth_examples(triangle):
    assert triangle.mouth({(0,)}) == frozenset()
    assert triangle.mouth({(0, 1, 2)}) == triangle.simplices - {(0, 1, 2)}


def test_mouth_of_saddle_chain_matches_definition(merging_saddles):
    cx, labels = merging_saddles.cx, merging_saddles.labels
    subset = merging_saddles.seed
    by_definition = frozenset(
        face for s in subset
        for k in range(1, len(s) + 1)
        for face in itertools.combinations(s, k)) - subset
    assert cx.mouth(subset) == by_definition
    as_labels = {"".join(sorted(merging_saddles.label_of(v) for v in s))
                 for s in cx.mouth(subset)}
    assert as_labels == {"C", "D", "F", "G", "H", "CD", "FG", "GH"}


def test_is_closed(triangle):
    assert triangle.is_closed(frozenset())
    assert not triangle.is_closed({(0, 1)})
    assert triangle.is_closed(triangle.closure({(0, 1)}))


def test_is_convex_examples(triangle):
    assert triangle.is_convex({(0, 1, 2)})
    assert triangle.is_convex(frozenset())
    # vertex and triangle without the sandwiched edges
    assert not triangle.is_convex({(0,), (0, 1, 2)})
    assert triangle.is_convex({(0,), (0, 1), (0, 2), (0, 1, 2)})


def test_star_is_the_set_of_cofaces():
    rng = random.Random(11)
    for _ in range(60):
        cx = random_complex(rng, max_size=30)
        subset = random_subset(rng, cx.simplices, max_size=4)
        by_definition = {tau for tau in cx.simplices
                         if any(set(a) <= set(tau) for a in subset)}
        assert cx.star(subset) == by_definition


def test_membership_enforced(triangle):
    with pytest.raises(ValueError):
        triangle.closure({(5,)})


COMPLEXES = [
    Complex.from_maximal([[0, 1, 2]]),
    Complex.from_maximal([[0, 1, 2], [1, 2, 3], [3, 4]]),
    Complex.from_maximal([[0, 1], [1, 2], [0, 2]]),
]


@st.composite
def complex_and_subset(draw):
    cx = draw(st.sampled_from(COMPLEXES))
    members = draw(st.sets(st.sampled_from(sorted(cx.simplices))))
    return cx, frozenset(members)


@settings(max_examples=80, deadline=None)
@given(complex_and_subset())
def test_closure_is_extensive_idempotent_monotone(data):
    cx, subset = data
    closed = cx.closure(subset)
    assert subset <= closed
    assert cx.closure(closed) == closed
    for extra in [frozenset(), subset]:
        assert cx.closure(subset - extra) <= closed
    assert cx.is_closed(closed)


@settings(max_examples=80, deadline=None)
@given(complex_and_subset())
def test_mouth_properties(data):
    cx, subset = data
    mouth = cx.mouth(subset)
    assert not (mouth & subset)
    assert cx.closure(subset) == subset | mouth
    if cx.is_convex(subset):
        assert cx.is_closed(mouth)


_CLOSED_CACHE = {}


def _closed_family(cx):
    if cx not in _CLOSED_CACHE:
        simplices = sorted(cx.simplices)
        _CLOSED_CACHE[cx] = [
            candidate for mask in range(1 << len(simplices))
            for candidate in [frozenset(s for i, s in enumerate(simplices)
                                        if mask >> i & 1)]
            if cx.is_closed(candidate)]
    return _CLOSED_CACHE[cx]


@settings(max_examples=60, deadline=None)
@given(complex_and_subset())
def test_convex_iff_difference_of_closed_sets(data):
    cx, subset = data
    closed = _closed_family(cx)
    brute = any(subset <= c and subset == c - d for c in closed for d in closed)
    assert cx.is_convex(subset) == brute


def test_proper_faces_of_triangle():
    assert len(proper_faces((0, 1, 2))) == 6
