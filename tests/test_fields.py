import random

import pytest

import mvtrack as mv
from mvtrack.fields import (MultivectorField, NotAtomicError, classify_rearrangement,
                            intersect_fields, refinement_path, rearrangement_path,
                            validate_field)

from helpers import random_complex, random_field


def test_partition_is_enforced(triangle):
    with pytest.raises(ValueError):
        MultivectorField(triangle, [[(0,)]])
    with pytest.raises(ValueError):
        MultivectorField.from_parts(triangle, [[(0,)], [(0,), (0, 1)]],
                                    complete_singletons=True)


def test_singleton_field_is_valid(triangle):
    fld = MultivectorField.singleton_field(triangle)
    assert validate_field(fld)
    assert len(fld) == len(triangle)


def test_whole_complex_as_one_multivector(triangle):
    fld = MultivectorField(triangle, [triangle.simplices])
    assert validate_field(fld)


def test_invalid_part_is_named(triangle):
    fld = MultivectorField.from_parts(triangle, [[(0,), (0, 1, 2)]],
                                      complete_singletons=True)
    report = validate_field(fld)
    assert not report
    assert "not convex" in report.problems[0]
    assert "(0, 1, 2)" in report.problems[0]


def test_disconnected_multivectors_are_accepted():
    cx = mv.Complex.from_maximal([[0, 1], [2, 3]])
    fld = MultivectorField.from_parts(cx, [[(0, 1), (2, 3)]], complete_singletons=True)
    assert validate_field(fld)


def test_fmap_examples(triangle):
    singles = MultivectorField.singleton_field(triangle)
    assert singles.fmap((0, 1, 2)) == triangle.simplices
    paired = MultivectorField.from_parts(triangle, [[(0, 1), (0, 1, 2)]],
                                         complete_singletons=True)
    assert paired.fmap((0, 1)) == triangle.closure({(0, 1)}) | {(0, 1, 2)}


def test_fmap_grows_under_coarsening():
    rng = random.Random(2)
    for _ in range(25):
        cx = random_complex(rng, max_size=14)
        fld = random_field(rng, cx)
        ids = list(fld.ids())
        if len(ids) < 2:
            continue
        merged = None
        for _ in range(20):
            a, b = rng.sample(ids, 2)
            if cx.is_convex(fld.part(a) | fld.part(b)):
                merged = fld.merge(a, b)
                break
        if merged is None:
            continue
        for s in cx.simplices:
            assert fld.fmap(s) <= merged.fmap(s)


def test_is_critical(triangle):
    singles = MultivectorField.singleton_field(triangle)
    for s in triangle.simplices:
        assert singles.is_critical(singles.mv_id(s))
    arrow = MultivectorField.from_parts(triangle, [[(0,), (0, 1)]],
                                        complete_singletons=True)
    assert not arrow.is_critical(arrow.mv_id((0,)))


def test_saddle_multivector_is_critical(merging_saddles):
    fld = merging_saddles.fields[0]
    ident = fld.mv_id(min(merging_saddles.seed))
    assert fld.part(ident) == merging_saddles.seed
    assert fld.is_critical(ident)


def test_classify_rearrangement(triangle):
    fld = MultivectorField.singleton_field(triangle)
    with pytest.raises(NotAtomicError):
        classify_rearrangement(fld, fld)
    merged = fld.merge((0,), (0, 1))
    move = classify_rearrangement(fld, merged)
    assert move.kind == "coarsening" and move.whole == {(0,), (0, 1)}
    back = classify_rearrangement(merged, fld)
    assert back.kind == "refinement" and back.whole == {(0,), (0, 1)}
    # swapping members between two multivectors is not atomic
    a = MultivectorField.from_parts(triangle, [[(0,), (0, 1)], [(1,), (1, 2)]],
                                    complete_singletons=True)
    b = MultivectorField.from_parts(triangle, [[(0,)], [(0, 1), (1,), (1, 2)]],
                                    complete_singletons=True)
    with pytest.raises(NotAtomicError):
        classify_rearrangement(a, b)


def test_refinement_path_basics(triangle):
    singles = MultivectorField.singleton_field(triangle)
    assert refinement_path(singles) == [singles]
    two = singles.merge((0,), (0, 1))
    path = refinement_path(two)
    assert len(path) == 2 and path[-1] == singles


def test_refinement_path_random():
    rng = random.Random(3)
    for _ in range(15):
        cx = random_complex(rng, max_size=14)
        fld = random_field(rng, cx)
        path = refinement_path(fld)
        assert len(path) == len(cx) - len(fld) + 1
        for a, b in zip(path, path[1:]):
            assert classify_rearrangement(a, b).kind == "refinement"
        assert all(validate_field(f) for f in path)


def test_rearrangement_path_trivial(triangle):
    singles = MultivectorField.singleton_field(triangle)
    assert rearrangement_path(singles, singles) == [singles]
    fld = singles.merge((0,), (0, 1))
    path = rearrangement_path(fld, fld)
    assert path[0] == fld and path[-1] == fld and len(path) == 3


def test_intersect_fields(triangle):
    singles = MultivectorField.singleton_field(triangle)
    fld = singles.merge((0,), (0, 1)).merge((1,), (1, 2))
    assert intersect_fields(fld, fld) == fld
    assert intersect_fields(fld, singles) == singles
    refined = fld.split(fld.mv_id((0,)), frozenset({(0, 1)}))
    assert intersect_fields(fld, refined) == refined
    rng = random.Random(17)
    for _ in range(40):
        cx = random_complex(rng, max_size=20)
        a, b = random_field(rng, cx), random_field(rng, cx)
        pairwise = {pa & pb for pa in a.parts() for pb in b.parts()} - {frozenset()}
        assert set(intersect_fields(a, b).parts()) == pairwise
