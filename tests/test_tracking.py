import random

import pytest

import mvtrack as mv
from mvtrack.dynamics import IndexPair, canonical_index_pair, invariant_part
from mvtrack.fields import MultivectorField
from mvtrack.tracking import (NotAdjacentError, adjacency_zigzag, connect_pair_to_canonical,
                              continuation_to_zigzag, hull, naive_intersection_zigzag,
                              run_protocol, track_step)

from helpers import (brute_hull, random_complex, random_field, random_isolated_set,
                     random_subset)


def test_hull_fixed_points(triangle):
    fld = MultivectorField.from_parts(triangle, [[(0, 1), (0, 1, 2)]],
                                      complete_singletons=True)
    part = frozenset({(0, 1), (0, 1, 2)})
    assert hull(fld, part) == part
    assert hull(fld, frozenset({(0, 1)})) == part
    assert hull(fld, frozenset()) == frozenset()


def test_hull_matches_brute_force():
    rng = random.Random(21)
    for _ in range(40):
        cx = random_complex(rng, n_vertices=5, n_maximal=2, max_dim=2, max_size=10)
        fld = random_field(rng, cx)
        seed = random_subset(rng, cx.simplices, max_size=6)
        assert hull(fld, seed) == brute_hull(fld, seed)


def test_track_step_cases(merging_saddles):
    v1, v2, v3 = merging_saddles.fields
    seed = merging_saddles.seed
    step = track_step(v1, v2, seed, step_index=1)
    assert step.case == "a" and step.kind == "refinement"
    assert step.connecting_pair == canonical_index_pair(v1, seed)
    step2 = track_step(v2, v3, step.result, step_index=2)
    assert step2.case == "f" and "continuation broken" in step2.notes
    assert step2.adjacency_set == merging_saddles.cx.closure(step2.result)


def test_track_step_coarsening_cases(nine_fields):
    fields = nine_fields.fields
    seed = nine_fields.seed
    step = track_step(fields[0], fields[1], seed)
    assert step.case == "d"
    assert step.hull_set == step.result
    current = step.result
    for i, expected in [(1, "a"), (2, "a"), (3, "c"), (4, "c")]:
        step = track_step(fields[i], fields[i + 1], current, step_index=i + 1)
        assert step.case == expected
        current = step.result


def test_track_step_case_b(triangle):
    # merged multivector inside the tracked set
    cx = triangle
    singles = MultivectorField.singleton_field(cx)
    seed = cx.simplices
    merged = singles.merge((0,), (0, 1))
    step = track_step(singles, merged, seed)
    assert step.case == "b"
    assert step.result == invariant_part(merged, seed)


def test_track_step_preconditions(triangle):
    singles = MultivectorField.singleton_field(triangle)
    merged = singles.merge((0,), (0, 1))
    with pytest.raises(mv.PreconditionError):
        track_step(singles, merged, frozenset())
    with pytest.raises(mv.PreconditionError):
        track_step(singles, merged, frozenset({(0,), (0, 1, 2)}))
    with pytest.raises(mv.NotAtomicError):
        track_step(singles, singles, frozenset({(0, 1, 2)}))


GMAX = [(0, 1, 5), (0, 4)]
GPARTS = [[(0,), (0, 1), (0, 4)], [(0, 1, 5), (4,)], [(1,), (5,)]]
GSEED = [(0,), (0, 1), (0, 4), (0, 5), (1,), (5,)]


def _case_g_instance():
    cx = mv.Complex.from_maximal(GMAX)
    fld = MultivectorField.from_parts(cx, GPARTS, complete_singletons=True)
    nxt = fld.merge(fld.mv_id((0, 1, 5)), fld.mv_id((0, 5)))
    return cx, fld, nxt, frozenset(GSEED)


def test_track_step_case_g():
    cx, fld, nxt, seed = _case_g_instance()
    assert mv.is_isolated_invariant_set(fld, seed)
    step = track_step(fld, nxt, seed)
    assert step.case == "g" and not step.resolved
    assert step.result is None and not step.appended_pairs
    heur = track_step(fld, nxt, seed, heuristic_g=True)
    assert heur.case == "g" and heur.resolved
    assert len(heur.appended_pairs) == 2
    assert all(tag.heuristic for tag in heur.appended_tags)
    assert any("not an index pair" in note for note in heur.notes)


def test_continuation_to_zigzag_single(merging_saddles):
    v1 = merging_saddles.fields[0]
    seed = merging_saddles.seed
    pair = canonical_index_pair(v1, seed)
    zz = continuation_to_zigzag([pair], [seed, seed], [v1, v1])
    assert len(zz) == 1 and zz.pairs[0] == pair


def test_continuation_to_zigzag_chain(nine_fields):
    fields = nine_fields.fields[:4]
    sets = [nine_fields.seed]
    pairs = []
    for i in range(3):
        step = track_step(fields[i], fields[i + 1], sets[-1], step_index=i + 1)
        assert step.case in "abcd"
        pairs.append(step.connecting_pair)
        sets.append(step.result)
    zz = continuation_to_zigzag(pairs, sets, fields)
    assert len(zz) == 1 + 6 * (len(pairs) - 1)
    barcode = mv.pair_zigzag_barcode(zz)
    assert barcode.is_full()
    first = mv.relative_homology(fields[0].cx, pairs[0].P, pairs[0].E)
    for k, count in enumerate(first):
        assert len(barcode.bars_in_dim(k)) == count


def test_adjacency_zigzag(merging_saddles):
    v1, v2, v3 = merging_saddles.fields
    seed = merging_saddles.seed
    step1 = track_step(v1, v2, seed)
    step2 = track_step(v2, v3, step1.result)
    zz = adjacency_zigzag(v2, v3, step1.result, step2.result)
    assert len(zz) == 5
    barcode = mv.pair_zigzag_barcode(zz)
    dim1 = sorted((b.birth, b.death) for b in barcode.bars_in_dim(1))
    assert dim1[0] == (1, 5) and dim1[1][1] == 5 and len(dim1) == 2

    # identical sets and fields: everything constant, full barcode
    same = adjacency_zigzag(v1, v1, seed, seed)
    assert mv.pair_zigzag_barcode(same).is_full()

    cx, fld, nxt, gseed = _case_g_instance()
    bad = track_step(fld, nxt, gseed, heuristic_g=True)
    with pytest.raises(NotAdjacentError):
        adjacency_zigzag(fld, nxt, gseed, bad.result)


def test_connect_pair_to_canonical(merging_saddles):
    v1 = merging_saddles.fields[0]
    cx = merging_saddles.cx
    seed = merging_saddles.seed
    canonical = canonical_index_pair(v1, seed)
    zz = connect_pair_to_canonical(v1, seed, canonical)
    assert all(pair == canonical for pair in zz.pairs)
    bigger = IndexPair(cx.simplices, frozenset(cx.simplices
                                               - invariant_part(v1, cx.simplices)))
    with pytest.raises(mv.PreconditionError):
        connect_pair_to_canonical(v1, seed, bigger)


def test_connect_push_forward_pair(repeller_disk):
    fld = repeller_disk.fields[0]
    cx = repeller_disk.cx
    center = repeller_disk.seed
    pair = IndexPair(cx.simplices, frozenset(cx.simplices - center))
    zz = connect_pair_to_canonical(fld, center, pair)
    assert zz.pairs[-1] == canonical_index_pair(fld, center)
    assert mv.pair_zigzag_barcode(zz).is_full()


def test_naive_intersection_zigzag(merging_saddles):
    cx = merging_saddles.cx
    v2, v3 = merging_saddles.fields[1], merging_saddles.fields[2]
    seed = merging_saddles.seed
    step1 = track_step(merging_saddles.fields[0], v2, seed)
    step2 = track_step(v2, v3, step1.result)
    zz = naive_intersection_zigzag(cx, step1.result, step2.result)
    assert len(zz) == 3
    assert zz.tags[1].heuristic
    middle = zz.pairs[1]
    s_mid = invariant_part(v2, middle.body)
    assert not mv.validate_index_pair(v2, middle.P, middle.E, s_mid)
    assert not mv.pair_zigzag_barcode(zz).is_full()

    constant = naive_intersection_zigzag(cx, seed, seed)
    assert mv.pair_zigzag_barcode(constant).is_full()

    # disjoint closures: the middle pair is empty and every bar dies
    strip = mv.Complex.from_maximal([[0, 1], [2, 3]])
    left, right = frozenset({(0, 1)}), frozenset({(2, 3)})
    zz = naive_intersection_zigzag(strip, left, right)
    barcode = mv.pair_zigzag_barcode(zz)
    assert barcode.betti_per_position[1] == (0, 0)
    assert all(b.birth == b.death for b in barcode.bars)


def test_run_protocol_traces(merging_saddles, nine_fields):
    trace = run_protocol(merging_saddles.fields, merging_saddles.seed)
    assert [s.case for s in trace.steps] == ["a", "f"]
    assert trace.stopped == "completed"
    for step, nxt in zip(trace.steps, trace.steps[1:]):
        assert step.result == nxt.current
    trace9 = run_protocol(nine_fields.fields, nine_fields.seed)
    assert [s.case for s in trace9.steps] == list("daaccafa")


def test_run_protocol_constant_fields_full_barcode(merging_saddles):
    v1 = merging_saddles.fields[0]
    # a constant sequence is not atomic; perturb away from the tracked set
    w = v1.merge(v1.mv_id((0,)), v1.mv_id((0, 1)))
    trace = run_protocol([v1, w, v1], merging_saddles.seed)
    assert [s.case for s in trace.steps] == ["c", "a"]
    assert all(s.result == merging_saddles.seed for s in trace.steps)
    assert trace.barcode.is_full()
    assert len(trace.barcode.bars) == 1 and trace.barcode.bars[0].dim == 1


def test_run_protocol_odd_characteristic(merging_saddles):
    trace = run_protocol(merging_saddles.fields, merging_saddles.seed, p=3)
    assert [s.case for s in trace.steps] == ["a", "f"]
    assert sorted(trace.barcode.step_bars()) == [(1, 1, 3), (1, 3, 3)]


def test_run_protocol_empties():
    cx = mv.Complex.from_maximal([[1, 2]])
    v1 = MultivectorField.singleton_field(cx)
    v2 = v1.merge((1,), (1, 2))
    trace = run_protocol([v1, v2], frozenset({(1, 2)}))
    assert trace.stopped == "emptied"
    assert trace.steps[-1].result == frozenset()
    assert all(b.death <= 2 for b in trace.barcode.bars)


def test_run_protocol_unresolved():
    cx, fld, nxt, seed = _case_g_instance()
    trace = run_protocol([fld, nxt], seed)
    assert trace.stopped == "unresolved"
    resolved = run_protocol([fld, nxt], seed, heuristic_g=True)
    assert resolved.stopped == "completed"
    assert any(tag.heuristic for tag in resolved.zigzag.tags)


def test_subset_or_superset_after_continuation():
    rng = random.Random(31)
    checked = 0
    while checked < 40:
        cx = random_complex(rng, max_size=16)
        fld = random_field(rng, cx)
        if not mv.validate_field(fld):
            continue
        seed = random_isolated_set(rng, fld)
        if seed is None:
            continue
        nxt = rng.choice([f for f in [
            _random_refinement_or_none(rng, fld),
            _random_coarsening_or_none(rng, fld)] if f is not None] or [None])
        if nxt is None:
            continue
        step = track_step(fld, nxt, seed)
        if step.case in "abcd":
            assert step.result <= seed or seed <= step.result
            checked += 1


def _random_refinement_or_none(rng, fld):
    from helpers import random_refinement
    return random_refinement(rng, fld)


def _random_coarsening_or_none(rng, fld):
    from helpers import random_coarsening
    return random_coarsening(rng, fld)
