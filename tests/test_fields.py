import gc
import itertools
import pickle
import random

import pytest

import mvtrack as mv
from mvtrack import io as mvio
from mvtrack.dynamics import PreconditionError
from mvtrack.fields import (MultivectorField, NotAtomicError, classify_rearrangement,
                            intersect_fields, refinement_path, rearrangement_path,
                            validate_field)
from mvtrack.io import Scene, SchemaError, scene_from_dict, scene_to_dict

from helpers import (diff_rearrangement, full_convexity_report, grid_complex, kahn_gradient_field,
                     random_coarsening, random_complex, random_field, random_gradient_field,
                     random_refinement)


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
    members = [(0, 1), (0, 1, 2), (0,), (1,)]
    assert sorted(map(sorted, paired.parts_meeting(members))) == sorted(
        sorted(part) for part in {paired.part_of(s) for s in members})


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


def _forced_merge(rng, fld):
    """A merge whose union is not convex, or None if every merge is convex."""
    pairs = [(a, b) for a, b in itertools.combinations(fld.ids(), 2)
             if not fld.cx.is_convex(fld.part(a) | fld.part(b))]
    return fld.merge(*rng.choice(pairs)) if pairs else None


def _forced_split(rng, fld):
    """A split into a random subset and the rest, convex or not."""
    targets = [i for i in fld.ids() if len(fld.part(i)) > 1]
    if not targets:
        return None
    ident = rng.choice(targets)
    part = sorted(fld.part(ident))
    return fld.split(ident, frozenset(rng.sample(part, rng.randint(1, len(part) - 1))))


def _random_atomic_sequence(rng, fld, steps):
    moves = [random_refinement, random_coarsening, random_coarsening, _forced_merge, _forced_split]
    fields = [fld]
    for _ in range(steps):
        nxt = rng.choice(moves)(rng, fields[-1])
        if nxt is not None:
            fields.append(nxt)
    return fields


def _random_start(rng, trial):
    cx = grid_complex(2) if trial % 4 == 0 else random_complex(rng, max_size=18)
    return MultivectorField(cx, [cx.simplices]) if trial % 3 == 0 else random_field(rng, cx)


def _outcome(classify, field, other):
    try:
        return classify(field, other)
    except NotAtomicError as exc:
        return str(exc)


def test_classify_rearrangement_matches_the_part_diff():
    """Fields made by split and merge, which record their steps, and the same
    fields rebuilt from their parts, which record none, classify as the part
    diff does, in both directions and for pairs two steps apart; asking again
    gives the same answer."""
    rng = random.Random(41)
    for trial in range(60):
        made = _random_atomic_sequence(rng, _random_start(rng, trial), 8)
        rebuilt = [MultivectorField(fld.cx, fld.parts()) for fld in made]
        for fields in (made, rebuilt) * 2:
            for i, j in itertools.permutations(range(len(fields)), 2):
                if abs(i - j) <= 2:
                    a, b = fields[i], fields[j]
                    expected = _outcome(diff_rearrangement, a, b)
                    assert _outcome(classify_rearrangement, a, b) == expected
        assert all(fld._step is not None for fld in made[1:] + rebuilt[1:])


def _listing(rng, fld):
    """fld's parts as a scene might list them: shuffled, some singletons left
    out, an empty part here and there."""
    parts = [part for part in fld.parts() if len(part) > 1 or rng.random() < 0.5]
    parts += [frozenset()] * rng.randrange(2)
    rng.shuffle(parts)
    return parts


def _tampered(rng, parts, cx):
    """One fault or far step in a listing: a part listed twice, a simplex in
    two parts, a non-member, or a part merged with another."""
    parts = list(parts)
    fault = rng.randrange(4)
    if fault == 0 and parts:
        parts.append(rng.choice(parts))
    elif fault == 1 and len(parts) > 1:
        a, b = rng.sample(range(len(parts)), 2)
        parts[a] = parts[a] | {min(parts[b] or cx.simplices)}
    elif fault == 2:
        parts.append(frozenset({(10 ** 6,)}))
    elif len(parts) > 1:
        a, b = rng.sample(range(len(parts)), 2)
        parts[a], parts[b] = parts[a] | parts[b], frozenset()
    return parts


def test_successor_is_the_field_its_parts_make():
    """successor(parts) is None, or the field from_parts makes of the same
    parts, recording the step the part diff finds; a listing of the next
    field of an atomic sequence always gives that field."""
    rng = random.Random(53)
    built = 0
    for trial in range(60):
        fields = _random_atomic_sequence(rng, _random_start(rng, trial), 6)
        for a, b in itertools.pairwise(fields):
            listed = _listing(rng, b)
            got = a.successor(listed)
            assert got == b and got._step[0]() is a
            assert got._step[1] == diff_rearrangement(a, b)
            others = (_tampered(rng, listed, a.cx), _listing(rng, a), _listing(rng, fields[0]))
            for parts in others:
                got = a.successor(parts)
                if got is not None:
                    built += 1
                    assert got == MultivectorField.from_parts(a.cx, parts,
                                                              complete_singletons=True)
                    assert got._step[1] == diff_rearrangement(a, got)
    assert built > 20


def test_a_non_convex_field_fails_the_protocol_precondition(triangle):
    """A field's report comes from its own parts however it was made, so
    `run_protocol` names the non-convex multivector of field 1."""
    singles = MultivectorField.singleton_field(triangle)
    assert validate_field(singles)
    def listed():
        return MultivectorField.from_parts(triangle, [[(0,), (0, 1, 2)]],
                                           complete_singletons=True)
    classified = listed()
    classify_rearrangement(singles, classified)
    merged = singles.merge((0,), (0, 1, 2))
    for bad in (listed(), classified, merged):
        with pytest.raises(PreconditionError) as exc:
            mv.run_protocol([bad, singles], frozenset({(1, 2)}))
        assert str(exc.value) == "field 1: multivector [(0,), (0, 1, 2)] is not convex"
        assert validate_field(bad) == full_convexity_report(bad)


@pytest.mark.parametrize("parent_state", ["never validated", "failed", "collected"])
def test_a_child_is_checked_in_full_unless_its_parent_passed(triangle, monkeypatch,
                                                             parent_state):
    """A child is checked by the parts its step added only when its parent is
    alive and passed; otherwise every part is checked, so a fault the step
    did not touch is still found."""
    checked = []
    original = mv.Complex.is_convex

    def counted(cx, subset):
        checked.append(frozenset(subset))
        return original(cx, subset)

    monkeypatch.setattr(mv.Complex, "is_convex", counted)
    good = MultivectorField.singleton_field(triangle)
    assert validate_field(good)
    checked.clear()
    assert validate_field(good.merge((1,), (1, 2))) and len(checked) == 1

    parent = MultivectorField.from_parts(triangle, [[(0,), (0, 1, 2)]],
                                         complete_singletons=True)
    if parent_state == "failed":
        assert not validate_field(parent)
    child = parent.merge((1,), (1, 2))
    if parent_state == "collected":
        del parent
        gc.collect()
        assert child._step[0]() is None
    checked.clear()
    report = validate_field(child)
    assert not report and report == full_convexity_report(child)
    assert sorted(checked, key=sorted) == sorted(child.parts(), key=sorted)
    assert (child._step is None) == (parent_state == "collected")


def test_a_field_made_by_a_step_pickles_without_its_record(triangle):
    """The step record holds a weak reference, which cannot be pickled; a
    pickled field leaves the record out and keeps everything else."""
    parent = MultivectorField.singleton_field(triangle)
    child = parent.merge((0,), (0, 1))
    assert validate_field(child)
    copy = pickle.loads(pickle.dumps(child))
    assert copy == child and copy._step is None and copy._report == child._report
    assert classify_rearrangement(parent, copy) == classify_rearrangement(parent, child)


def test_stored_reports_match_the_full_check_on_atomic_sequences():
    """validate_field on each field of an atomic sequence, and the loader on
    the same sequence, report exactly what checking every multivector
    reports, in order."""
    rng = random.Random(29)
    failures = 0
    for trial in range(60):
        fields = _random_atomic_sequence(rng, _random_start(rng, trial), 8)
        cx = fields[0].cx
        for fld in fields:
            report = validate_field(fld)
            assert report == full_convexity_report(fld)
            assert validate_field(fld) is report
            if not report:
                fields = fields[:fields.index(fld) + 1]
                break
        doc = scene_to_dict(Scene(cx, fields, frozenset()))
        if report:
            loaded = scene_from_dict(doc).fields
            assert [validate_field(f) for f in loaded] == [full_convexity_report(f) for f in fields]
        else:
            failures += 1
            with pytest.raises(SchemaError) as exc:
                scene_from_dict(doc)
            assert str(exc.value) == f"field {len(fields)}: " + "; ".join(report.problems)
    assert failures >= 15


def _ops_doc(rng, cx, fields):
    """The sequence as an ops-form scene: a split names either half, a merge
    one random member of each half, in either order."""
    ops = []
    for before, after in zip(fields, fields[1:]):
        step = classify_rearrangement(before, after)
        halves = rng.sample(step.parts, 2)
        if step.kind == "refinement":
            ops.append({"op": "split", "off": [list(s) for s in sorted(halves[0])]})
        else:
            ops.append({"op": "merge", "mvs": [list(rng.choice(sorted(h))) for h in halves]})
    initial = [[list(s) for s in sorted(part)] for part in fields[0].parts() if len(part) > 1]
    return {"maximal_simplices": [list(s) for s in cx.sorted_simplices()],
            "fields": {"initial": initial, "ops": ops}, "seed": []}


def test_ops_form_steps_are_the_classified_steps(monkeypatch):
    """The loader takes each ops-form step from its op.  The step each field
    records when it is validated equals the part diff of the two fields, and
    the fields and the first fault named match the list-form load of the same
    sequence."""
    rng = random.Random(37)
    seen = []
    original = mvio.validate_field

    def recording(fld):
        seen.append(fld._step and fld._step[1])
        return original(fld)

    monkeypatch.setattr(mvio, "validate_field", recording)
    failures = 0
    for trial in range(60):
        fields = _random_atomic_sequence(rng, _random_start(rng, trial), 8)
        cx = fields[0].cx
        steps = [None] + [diff_rearrangement(a, b) for a, b in zip(fields, fields[1:])]
        listed = scene_to_dict(Scene(cx, fields, frozenset()))
        seen.clear()
        try:
            assert scene_from_dict(_ops_doc(rng, cx, fields)).fields == fields
            fault = None
        except SchemaError as exc:
            fault = str(exc)
        assert seen and seen == steps[:len(seen)]
        if fault is not None:
            failures += 1
            assert fault.startswith(f"field {len(seen)}: ")
            with pytest.raises(SchemaError) as by_list:
                scene_from_dict(listed)
            assert str(by_list.value) == fault
    assert failures >= 15


def test_split_and_merge_match_fields_built_from_scratch():
    """A derived field has the tables of one built from its parts, and every
    criticality entry it carries over is still right."""
    rng = random.Random(31)
    checked = 0
    for trial in range(40):
        cx = grid_complex(2) if trial % 2 else random_complex(rng, max_size=18)
        parent = random_gradient_field(rng, cx) if trial % 2 else random_field(rng, cx)
        for p in (2, 3):
            for ident in parent.ids():
                parent.is_critical(ident, p)
        for move in (_forced_split, _forced_merge, random_refinement, random_coarsening):
            child = move(rng, parent)
            if child is None:
                continue
            fresh = MultivectorField(cx, child.parts())
            assert child._assign == fresh._assign
            assert child._parts == fresh._parts
            assert child.ids() == fresh.ids() == tuple(sorted(fresh._parts))
            assert child.parts() == fresh.parts() and child == fresh
            changed = {i for i in parent.ids() if child._parts.get(i) != parent.part(i)}
            assert {i for i, _ in child._criticality} == set(parent.ids()) - changed
            for (ident, p), crit in child._criticality.items():
                assert crit == fresh.is_critical(ident, p)
            checked += 1
    assert checked >= 100


def test_random_gradient_field_matches_the_kahn_generator():
    """The generator that keeps one Hasse graph and tests each candidate by
    one search builds the field the former one built with a Kahn pass per
    candidate, from the same random state."""
    gradient = 0
    for seed in range(60):
        cx = grid_complex(1 + seed % 4) if seed % 3 else random_complex(random.Random(seed))
        fld = random_gradient_field(random.Random(seed), cx)
        assert fld == kahn_gradient_field(random.Random(seed), cx)
        gradient += any(len(part) == 2 for part in fld.parts())
    assert gradient >= 50
