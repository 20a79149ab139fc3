import itertools
import json
import random
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import mvtrack as mv
from mvtrack import complexes
from mvtrack.complexes import Complex, facets, proper_faces, simplex
from mvtrack.io import SchemaError, load_scene, scene_from_dict
from mvtrack.zigzag import pair_zigzag_barcode

from helpers import (EagerComplex, all_faces, cone_pair, grid_complex, mouth_is_convex,
                     per_simplex_closure, random_complex, random_subset, star, vertices)

FIXTURES = Path(__file__).parent.parent / "fixtures"


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
    assert vertices(triangle) == (0, 1, 2)
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


def test_a_closure_is_tagged_closed_and_not_scanned_again(monkeypatch):
    """`closure` returns a set tagged closed, `check_subset` keeps it as it
    is, and `is_closed` answers it after the membership check without a
    facet scan.  Set operations return plain frozensets, and a caller's plain set,
    closed or not, is scanned as before."""
    cx = Complex.from_maximal([[0, 1, 2], [2, 3]])
    closed = cx.closure({(0, 1, 2)})
    assert isinstance(closed, complexes._Closed) and closed == all_faces([(0, 1, 2)])
    assert cx.check_subset(closed) is closed
    for derived in (closed - {(0, 1, 2)}, closed | {(3,)}, closed & closed, frozenset(closed)):
        assert type(derived) is frozenset
    scans = []
    facets_of = complexes._facets_of
    monkeypatch.setattr(complexes, "_facets_of", lambda members: scans.append(members)
                        or facets_of(members))
    assert cx.is_closed(closed) and not scans
    assert cx.is_closed(frozenset(closed)) and len(scans) == 1
    assert not cx.is_closed(closed - {(0, 1)}) and len(scans) == 2
    assert not cx.is_closed([(2, 3)]) and len(scans) == 3
    with pytest.raises(ValueError, match="not in complex"):
        Complex.from_maximal([[0, 1]]).is_closed(closed)


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
        assert star(cx, subset) == by_definition


def test_membership_enforced(triangle):
    with pytest.raises(ValueError):
        triangle.closure({(5,)})


COMPLEXES = [
    Complex.from_maximal([[0, 1, 2]]),
    Complex.from_maximal([[0, 1, 2], [1, 2, 3], [3, 4]]),
    Complex.from_maximal([[0, 1], [1, 2], [0, 2]]),
    Complex.from_maximal([[0, 1, 2, 3]]),
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


def test_is_convex_matches_the_mouth_oracle_at_dimension_3():
    """Subsets of random complexes of dimension up to 3: random ones, and a
    member tau with a face of codimension 2 or 3 while some or all simplices
    between them are dropped.  Both verdicts must occur."""
    verdicts = Counter()

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def check(rng):
        cx = random_complex(rng, max_dim=3)
        tall = [s for s in cx.simplices if len(s) > 2]
        for _ in range(8):
            subset = set(random_subset(rng, cx.simplices))
            if tall and rng.random() < 0.6:
                tau = rng.choice(tall)
                g = tuple(sorted(rng.sample(tau, rng.randint(1, len(tau) - 2))))
                between = [s for s in proper_faces(tau) if set(g) < set(s)]
                subset |= {g, tau}
                subset -= set(rng.sample(between, rng.randint(1, len(between))))
            verdict = cx.is_convex(subset)
            assert verdict == mouth_is_convex(cx, subset)
            verdicts[verdict] += 1

    check()
    assert verdicts[True] >= 100 and verdicts[False] >= 100


def test_proper_faces_of_triangle():
    assert len(proper_faces((0, 1, 2))) == 6


# ---------------------------------------------- trusted construction oracle

MAXIMAL_LISTS = st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
                         max_size=6)


def _assert_tables_match(cx, oracle, rng):
    """Every table of `cx` equals the eager oracle's, read in a random order
    after a set-level query has filled part of the closure table."""
    assert cx.simplices == oracle.simplices and cx.dim == oracle.dim
    order = list(oracle.sorted)
    rng.shuffle(order)
    half = order[:len(order) // 2]
    assert cx.closure(half) == frozenset().union(*(oracle.closure_of[s] for s in half))
    for s in order + order:
        assert cx.closure_of(s) == oracle.closure_of[s]
        assert cx.cofacets(s) == oracle.cofacets[s]
    assert cx.sorted_simplices() == oracle.sorted
    assert cx.sorted_simplices() == oracle.sorted


@settings(max_examples=150, deadline=None)
@given(MAXIMAL_LISTS, st.randoms(use_true_random=False))
def test_from_maximal_matches_the_eager_construction(maximal, rng):
    faces = all_faces(maximal)
    oracle = EagerComplex(faces)
    for cx in (Complex.from_maximal(maximal), Complex(faces)):
        _assert_tables_match(cx, oracle, rng)


def _apex(rng, vertices, where):
    """A vertex id outside `vertices`: above them, below them, or between."""
    if where == "below":
        return min(vertices, default=0) - rng.randint(1, 3)
    gaps = [v for v in range(min(vertices, default=0), max(vertices, default=0))
            if v not in vertices]
    if where == "between" and gaps:
        return rng.choice(gaps)
    return max(vertices, default=-1) + rng.randint(1, 3)


@settings(max_examples=150, deadline=None)
@given(MAXIMAL_LISTS, st.randoms(use_true_random=False),
       st.sampled_from(["above", "below", "between"]))
def test_cone_pair_equals_the_checked_cone(maximal, rng, where):
    cx = Complex.from_maximal(maximal)
    pset = cx.closure(random_subset(rng, cx.simplices))
    eset = cx.closure(random_subset(rng, pset))
    apex = _apex(rng, vertices(cx), where)
    coned = pset | {(apex,)} | {tuple(sorted(s + (apex,))) for s in eset}
    cone = cone_pair(cx, pset, eset, apex=apex)
    checked = Complex(coned)
    assert cone == checked and cone.dim == checked.dim
    _assert_tables_match(cone, EagerComplex(coned), rng)


def test_face_tables_reject_non_members():
    cx = Complex.from_maximal([[0, 1, 2]])
    outside = [(3,), (0, 3), (1, 0), (0, 1, 2, 3)]
    for filled in (False, True):
        if filled:
            cx.closure(cx.simplices)
            cx.cofacets((0,))
        for sigma in outside:
            for query in (cx.closure_of, cx.cofacets):
                with pytest.raises(KeyError):
                    query(sigma)


def test_checked_constructor_keeps_its_messages():
    for simplices, message in [
            ([(1, 1)], "repeated vertex 1 in simplex (1, 1)"),
            ([()], "a simplex needs at least one vertex"),
            ([(0,), (0, 1)], "not closed under faces: (1,) missing (face of (0, 1))")]:
        with pytest.raises(ValueError) as exc:
            Complex(simplices)
        assert str(exc.value) == message


def test_check_subset_names_the_first_non_member():
    cx = Complex.from_maximal([[0, 1, 2]])
    for subset in ([(0,), (5,)], [(0, 1), (0, 5), (7,), (1, 0)], [(2, 9)]):
        expected = next(s for s in frozenset(subset) if s not in cx.simplices)
        with pytest.raises(ValueError) as exc:
            cx.check_subset(subset)
        assert str(exc.value) == f"simplex {expected} not in complex"
    assert cx.check_subset([(0,), (0, 1)]) == {(0,), (0, 1)}


@settings(max_examples=100, deadline=None)
@given(MAXIMAL_LISTS, st.randoms(use_true_random=False))
def test_is_closed_matches_the_facet_definition(maximal, rng):
    cx = Complex.from_maximal(maximal)
    for _ in range(8):
        subset = random_subset(rng, cx.simplices)
        if rng.random() < 0.5:  # closures, and closures missing one face
            subset = set(cx.closure(subset))
            if subset and rng.random() < 0.5:
                subset.discard(rng.choice(sorted(subset)))
        by_definition = all(f in subset for s in subset for f in facets(s))
        assert cx.is_closed(subset) == by_definition


# ------------------------------------------------------------- work counts

@pytest.fixture
def face_calls(monkeypatch):
    """Calls of each face enumerator, under every name an mvtrack module binds it to."""
    calls = Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "mvtrack" or name.startswith("mvtrack.")]
    for name in ("facets", "proper_faces", "simplex"):
        original = getattr(complexes, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_barcodes_enumerate_no_faces(nine_fields, face_calls):
    """A barcode reads each pair's simplex sets and the complex's dimension:
    its homology bases normalize nothing and fill no table.  The ambient
    complex fills each closure at most once, so a second barcode enumerates
    no face at all."""
    zz = mv.run_protocol(nine_fields.fields, nine_fields.seed).zigzag
    face_calls.clear()
    first = pair_zigzag_barcode(zz)
    assert face_calls["facets"] == face_calls["simplex"] == 0
    assert face_calls["proper_faces"] <= len(zz.cx)
    face_calls.clear()
    assert pair_zigzag_barcode(zz).bars == first.bars
    assert sum(face_calls.values()) == 0


@pytest.mark.parametrize("name", ["merging_saddles", "saddle_collision_nine"])
def test_loading_builds_the_complex_once(name, face_calls):
    """Each maximal simplex is normalized once and its faces never; each
    closure is filled at most once, and the cofacet table at most once."""
    path = FIXTURES / f"{name}.json"
    maximal = len(json.loads(path.read_text(encoding="utf-8"))["maximal_simplices"])
    scene = load_scene(path)
    assert face_calls["simplex"] <= maximal
    assert face_calls["proper_faces"] <= maximal + len(scene.cx)
    assert face_calls["facets"] <= len(scene.cx)


def test_the_face_bound_admits_a_large_grid():
    """MAX_FACES bounds the distinct simplices built: the 128 x 128 grid of
    the grid-index scene lists 32,768 triangles, 7 faces each with repeats,
    and loads whole, 98,817 simplices."""
    assert 2 * 128 * 128 * 7 <= complexes.MAX_FACES
    assert len(grid_complex(128)) == 98_817


def test_the_face_bound_counts_each_simplex_once(monkeypatch):
    """Every simplex of a 3 x 3 grid listed, 241 faces counted with repeats
    but 67 distinct, loads under a bound of 100, by `from_maximal` and by
    the scene loader; every simplex of a 4 x 4 grid, 113 distinct, is
    refused by both with the bound named."""
    small, big = ([list(s) for s in sorted(grid_complex(n).simplices)] for n in (3, 4))
    monkeypatch.setattr(complexes, "MAX_FACES", 100)
    assert sum(2 ** len(s) - 1 for s in small) == 241 and len(small) == 67 and len(big) == 113
    assert Complex.from_maximal(small).simplices == set(map(tuple, small))
    assert len(scene_from_dict({"maximal_simplices": small, "fields": [[]]}).cx) == 67
    refused = "the listed simplices have more than MAX_FACES = 100 faces"
    with pytest.raises(ValueError, match=refused):
        Complex.from_maximal(big)
    with pytest.raises(SchemaError, match=f"^'maximal_simplices': {refused}$"):
        scene_from_dict({"maximal_simplices": big, "fields": [[]]})


@st.composite
def listings_with_faces(draw):
    """Simplices on up to 7 vertices, each listed once or more, with faces
    of listed simplices listed among them (before or after)."""
    top = draw(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=7, unique=True),
                        min_size=1, max_size=6))
    listing = []
    for s in top:
        listing += [s] * draw(st.integers(1, 2))
        faces = [list(f) for k in range(1, len(s)) for f in itertools.combinations(s, k)]
        listing += draw(st.lists(st.sampled_from(faces), max_size=3)) if faces else []
    return draw(st.permutations(listing))


@settings(max_examples=300, deadline=None)
@given(listings_with_faces(), st.integers(1, 140))
def test_the_level_build_matches_the_per_simplex_build(listing, bound):
    """Under any bound, the level build gives the per-simplex oracle's simplex
    set, or refuses with its message after taking as many listed simplices."""
    outcomes = []
    for build in (Complex.from_maximal, per_simplex_closure):
        taken = []
        with mock.patch.object(complexes, "MAX_FACES", bound):
            try:
                got = build(taken.append(s) or s for s in listing)
            except ValueError as exc:
                got = str(exc)
        outcomes.append((getattr(got, "simplices", got), len(taken)))
    assert outcomes[0] == outcomes[1]
