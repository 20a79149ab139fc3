import gc
import itertools
import pickle
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import mvtrack as mv
from mvtrack import fields as mvfields, io as mvio
from mvtrack.algebra import MAX_PRIME
from mvtrack.dynamics import PreconditionError
from mvtrack.fields import (MultivectorField, NotAtomicError, classify_rearrangement,
                            intersect_fields, refinement_path, rearrangement_path,
                            validate_field)
from mvtrack.io import Scene, SchemaError, scene_from_dict, scene_to_dict

from helpers import (BIG_P, RP2, all_faces, dense_relative_betti, diff_rearrangement,
                     full_convexity_report, grid_complex, grid_scene, kahn_gradient_field,
                     mouth_is_convex, oracle_prime, random_coarsening, random_complex,
                     random_field, random_gradient_field, random_refinement, singleton_field)

FIXTURES = Path(__file__).parent.parent / "fixtures"


def test_partition_is_enforced(triangle):
    with pytest.raises(ValueError):
        MultivectorField(triangle, [[(0,)]])
    with pytest.raises(ValueError):
        MultivectorField.from_parts(triangle, [[(0,)], [(0,), (0, 1)]],
                                    complete_singletons=True)


def test_singleton_field_is_valid(triangle):
    fld = singleton_field(triangle)
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
    singles = singleton_field(triangle)
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
    singles = singleton_field(triangle)
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


def _shape(subset):
    """'single', 'incomparable', or 'codim k' for a simplex and a face of it."""
    if len(subset) == 1:
        return "single"
    small, big = sorted(subset, key=len)
    return f"codim {len(big) - len(small)}" if set(small) < set(big) else "incomparable"


def _closed_difference_is_convex(subset):
    """A = C \\ D for closed C and D iff cl(A) \\ A is closed (intersect C
    and D with cl(A)); faces by vertex subsets, not by the library."""
    mouth = all_faces(subset) - subset
    return all(all_faces([rho]) <= mouth for rho in mouth)


@pytest.mark.parametrize("p", [2, 3, 5, BIG_P])
def test_one_and_two_simplex_multivectors_are_decided_by_shape(p):
    """Every set of one or two simplices of random complexes up to dimension 3
    and of the projective plane: `is_convex` against the mouth and the
    closed-difference oracles, and, as the one non-singleton multivector of
    a field, `is_critical` against the dense relative Betti numbers of
    (closure, mouth).  A face pair of codimension >= 2 is not convex and
    raises as a pair whose E is not closed; a non-prime p raises for every
    shape."""
    rng = random.Random(11)
    complexes = [cx for cx in (random_complex(rng, n_vertices=6, n_maximal=3, max_dim=3)
                               for _ in range(40)) if cx.dim >= 2][:12]
    seen = Counter()
    for cx in complexes + [mv.Complex.from_maximal(RP2)]:
        for k in (1, 2):
            for subset in map(frozenset, itertools.combinations(sorted(cx.simplices), k)):
                seen[_shape(subset)] += 1
                convex = cx.is_convex(subset)
                assert convex == mouth_is_convex(cx, subset) \
                    == _closed_difference_is_convex(subset), sorted(subset)
                fld = MultivectorField.from_parts(cx, [subset], complete_singletons=True)
                ident = min(subset)
                if convex:
                    closure = cx.closure(subset)
                    betti = dense_relative_betti(cx, closure, closure - subset, oracle_prime(p))
                    assert fld.is_critical(ident, p) == any(betti), sorted(subset)
                else:
                    with pytest.raises(ValueError, match="^E is not closed$"):
                        fld.is_critical(ident, p)
                with pytest.raises(ValueError, match="must be prime, got 4$"):
                    fld.is_critical(ident, 4)
                with pytest.raises(ValueError, match=f"must be below {MAX_PRIME}"):
                    fld.is_critical(ident, MAX_PRIME)
    assert min(seen[kind] for kind in
               ("single", "incomparable", "codim 1", "codim 2", "codim 3")) >= 10, seen


def test_only_multivectors_of_three_or_more_simplices_reduce_homology(monkeypatch):
    """Loading random grid scenes and tracking their seeds and the invariant
    part of the whole complex asks for the criticality of many multivectors
    of one or two simplices, and reduces homology for none of them."""
    rng = random.Random(23)
    scenes = [scene for scene in (grid_scene(rng, n=4, steps=6) for _ in range(8)) if scene]
    assert len(scenes) >= 4
    asked, reduced = Counter(), Counter()
    is_critical, relative_homology = MultivectorField.is_critical, mvfields.relative_homology

    def counted_is_critical(fld, ident, p=2):
        asked[min(len(fld.part(ident)), 3)] += 1
        return is_critical(fld, ident, p)

    def counted_relative_homology(cx, pset, eset, p=2):
        reduced[min(len(pset - eset), 3)] += 1
        return relative_homology(cx, pset, eset, p)

    monkeypatch.setattr(MultivectorField, "is_critical", counted_is_critical)
    monkeypatch.setattr(mvfields, "relative_homology", counted_relative_homology)
    for fields, seed in scenes:
        loaded = scene_from_dict(scene_to_dict(Scene(fields[0].cx, fields, seed)))
        first = loaded.fields[0]
        for start in (loaded.seed, mv.invariant_part(first, first.cx.simplices)):
            mv.run_protocol(loaded.fields, start)
    assert asked[1] >= 10 and asked[2] >= 10, asked
    assert set(reduced) <= {3}, reduced


def test_classify_rearrangement(triangle):
    fld = singleton_field(triangle)
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
    singles = singleton_field(triangle)
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
    singles = singleton_field(triangle)
    assert rearrangement_path(singles, singles) == [singles]
    fld = singles.merge((0,), (0, 1))
    path = rearrangement_path(fld, fld)
    assert path[0] == fld and path[-1] == fld and len(path) == 3


def test_intersect_fields(triangle):
    singles = singleton_field(triangle)
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



def test_intersect_fields_of_an_atomic_step_is_the_finer_field():
    """The common refinement of the two fields of an atomic step is the
    finer one, so case f of the tracking protocol checks its meet under the
    field before the merge and builds no common refinement."""
    steps = []
    for name in ("merging_saddles", "repeller_disk", "saddle_collision_nine",
                 "unresolved_step"):
        fields = mvio.load_scene(FIXTURES / f"{name}.json").fields
        steps += zip(fields, fields[1:])
    rng = random.Random(19)
    while len(steps) < 60:
        scene = grid_scene(rng, n=4, steps=6)
        if scene is not None:
            steps += zip(scene[0], scene[0][1:])
    kinds = set()
    for a, b in steps:
        kind = classify_rearrangement(a, b).kind
        kinds.add(kind)
        finer = b if kind == "refinement" else a
        assert intersect_fields(a, b) == finer == intersect_fields(b, a)
    assert kinds == {"refinement", "coarsening"}


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
        assert all(fld._step is not None for fld in made[1:])
        assert all(fld._step is None for fld in rebuilt)


def test_classify_rearrangement_records_nothing():
    """Classifying is a query: on fields rebuilt from their parts, and on a
    field made by a split or merge, it leaves both step records as they were,
    whether or not the pair is one step apart."""
    rng = random.Random(43)
    steps = 0
    for trial in range(30):
        made = _random_atomic_sequence(rng, _random_start(rng, trial), 6)
        rebuilt = [MultivectorField(fld.cx, fld.parts()) for fld in made]
        for a, b in itertools.permutations(rebuilt + made[-1:], 2):
            before = a._step, b._step
            steps += not isinstance(_outcome(classify_rearrangement, a, b), str)
            assert a._step is before[0] and b._step is before[1]
    assert steps >= 100, steps


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
    singles = singleton_field(triangle)
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
    good = singleton_field(triangle)
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
    parent = singleton_field(triangle)
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


def _critical(fld, ident, p):
    """`is_critical`, or the message it raises for a part that is not convex."""
    try:
        return fld.is_critical(ident, p)
    except ValueError as exc:
        return str(exc)


def test_split_and_merge_match_fields_built_from_scratch():
    """A derived field reads as one built from its parts does, and every
    multivector is as critical as in that field, at p = 2 and 3, the split
    half that keeps the whole's id included, whatever the parent was asked."""
    rng = random.Random(31)
    checked, kept, flipped = 0, 0, 0
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
            _assert_reads_as(child, fresh)
            for ident in child.ids():
                for p in (2, 3):
                    assert _critical(child, ident, p) == _critical(fresh, ident, p)
            step = classify_rearrangement(parent, child)
            if step.kind == "refinement":
                ident = min(step.whole)
                kept += 1
                flipped += any(_critical(child, ident, p) != parent.is_critical(ident, p)
                               for p in (2, 3))
            checked += 1
    assert checked >= 100 and kept >= 40 and flipped >= 20, (checked, kept, flipped)


def _unknown(fld, ident):
    """Whether `fld.part(ident)` raises KeyError."""
    try:
        fld.part(ident)
    except KeyError:
        return True
    return False


def _assert_reads_as(fld, fresh):
    """`fld` answers every lookup as `fresh`, a field built from parts, does:
    ids and parts of every simplex, the part of every id, a KeyError for every
    other simplex, the ids, the parts, length, equality and hash."""
    simplices = sorted(fresh.cx.simplices)
    assert [fld.mv_id(s) for s in simplices] == [fresh.mv_id(s) for s in simplices]
    assert [fld.part_of(s) for s in simplices] == [fresh.part_of(s) for s in simplices]
    ids = fresh.ids()
    assert fld.ids() == ids and [fld.part(i) for i in ids] == [fresh.part(i) for i in ids]
    assert all(_unknown(fld, s) for s in fresh.cx.simplices.difference(ids))
    assert fld.parts() == fresh.parts() and len(fld) == len(fresh)
    assert sorted(fld.parts_meeting(simplices), key=min) == list(fresh.parts())
    assert fld == fresh and fresh == fld and hash(fld) == hash(fresh)


def test_a_long_rearrangement_path_reads_as_fields_built_from_parts():
    """Every field of a rearrangement path of over 200 steps on a random grid
    field, across several folds of its overlay into flat tables, reads as
    the field its parts build, and is the step from the field before it that
    the fields built from parts differ by: recorded on the way down, found
    by diffing the part sets on the way up."""
    rng = random.Random(37)
    cx = grid_complex(8)
    path = rearrangement_path(random_field(rng, cx), random_field(rng, cx))
    folded = [not fld._moved for fld in path[1:]]
    assert len(path) > 200 and 3 <= sum(folded) < len(folded) // 4, (len(path), sum(folded))
    fresh = [MultivectorField.from_parts(cx, fld.parts()) for fld in path]
    for fld, built in zip(path, fresh):
        _assert_reads_as(fld, built)
    for k in range(1, len(path)):
        assert classify_rearrangement(path[k - 1], path[k]) == diff_rearrangement(*fresh[k - 1:k + 1])


def _overlay_lineage(rng, n=4):
    """A flat field on an n x n grid, its child by a split and its grandchild by
    a merge, each storing an overlay."""
    cx = grid_complex(n)
    flat = MultivectorField.from_parts(cx, random_field(rng, cx).parts())
    child = random_refinement(rng, flat)
    grandchild = random_coarsening(rng, child)
    assert not flat._moved and child._moved and grandchild._moved
    return flat, child, grandchild


def test_an_overlay_field_pickles_to_an_equal_field_without_its_record():
    """A child and a grandchild that store overlays pickle with their shared
    tables and overlays, and load as equal fields that read the same."""
    rng = random.Random(41)
    for _ in range(10):
        for fld in _overlay_lineage(rng)[1:]:
            copy = pickle.loads(pickle.dumps(fld))
            assert fld._step is not None and copy._step is None
            _assert_reads_as(copy, MultivectorField.from_parts(fld.cx, fld.parts()))
            assert copy == fld


def test_a_field_whose_ancestors_were_collected_answers_every_lookup():
    """A derived field holds the tables it reads, not its parent, so it reads
    the same once its parent and grandparent are gone."""
    rng = random.Random(43)
    kept = []
    for _ in range(10):
        grandchild = _overlay_lineage(rng)[-1]
        kept.append((grandchild, MultivectorField.from_parts(grandchild.cx, grandchild.parts())))
    gc.collect()
    for grandchild, fresh in kept:
        assert grandchild._step[0]() is None
        _assert_reads_as(grandchild, fresh)


def test_derived_fields_retain_less_than_three_flat_fields():
    """Forty fields, each one split from the one before, retain less under
    tracemalloc than three flat fields of the same complex (a copy of the
    tables per field would retain forty): each keeps an overlay of what
    changed since the flat field it shares."""
    cx = grid_complex(24)
    flat = random_gradient_field(random.Random(47), cx)
    pairs = [part for part in flat.parts() if len(part) == 2]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fields = [MultivectorField.from_parts(cx, flat.parts())]
        one_flat = tracemalloc.get_traced_memory()[0] - start
        for pair in pairs[:40]:
            fields.append(fields[-1].split(min(pair), {max(pair)}))
        gc.collect()
        derived = tracemalloc.get_traced_memory()[0] - start - one_flat
    finally:
        tracemalloc.stop()
    assert len(fields) == 41 and derived < 3 * one_flat, (derived, one_flat)


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
