import itertools
import random
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

import mvtrack as mv
from mvtrack import complexes, dynamics, tracking
from mvtrack.complexes import Complex, proper_faces, simplex
from mvtrack.dynamics import (IndexPair, canonical_index_pair, invariant_part, isolates,
                              push_forward)
from mvtrack.fields import MultivectorField, classify_rearrangement, intersect_fields
from mvtrack.tracking import ZigzagAssemblyError, hull, run_protocol, track_step
from mvtrack.zigzag import BACKWARD, FORWARD, PairTag, PairZigzag

from helpers import (all_faces, alternating_hull, bars_in_dim, brute_hull, dense_relative_betti,
                     fixpoint_hull, grid_complex, grid_scene, is_full, random_coarsening,
                     random_complex, random_convex_compatible, random_field, random_gradient_field,
                     random_isolated_set, random_refinement, random_subset, reference_protocol,
                     scc_invariant_part, set_changing_steps, singleton_field, small_runs,
                     vertices)

FIXTURES = Path(__file__).parent.parent / "fixtures"
SCENES = ("merging_saddles", "repeller_disk", "saddle_collision_nine", "unresolved_step")


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
        assert hull(fld, seed) == brute_hull(fld, seed) == fixpoint_hull(fld, seed) \
            == alternating_hull(fld, seed)


def test_track_step_cases(merging_saddles):
    v1, v2, v3 = merging_saddles.fields
    seed = merging_saddles.seed
    step = track_step(v1, v2, seed, step_index=1)
    assert step.case == "a" and step.rearrangement.kind == "refinement"
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
    singles = singleton_field(cx)
    seed = cx.simplices
    merged = singles.merge((0,), (0, 1))
    step = track_step(singles, merged, seed)
    assert step.case == "b"
    assert step.result == invariant_part(merged, seed)


def test_track_step_preconditions(triangle):
    singles = singleton_field(triangle)
    merged = singles.merge((0,), (0, 1))
    with pytest.raises(mv.PreconditionError, match="^tracking needs a nonempty seed$"):
        track_step(singles, merged, frozenset())
    with pytest.raises(mv.PreconditionError,
                       match="^tracked set is not an isolated invariant set$"):
        track_step(singles, merged, frozenset({(0,), (0, 1, 2)}))
    with pytest.raises(mv.PreconditionError, match="^need at least one field$"):
        run_protocol([], frozenset({(0, 1, 2)}))
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
    assert [tag.role for tag in heur.appended_tags] == ["naive-meet", "canonical"]
    assert any("not an index pair" in note for note in heur.notes)


def _step_zigzag(field, current, step):
    """The zigzag one step appends, from the canonical pair of `current` on."""
    return PairZigzag(field.cx, [canonical_index_pair(field, current)] + step.appended_pairs,
                      [PairTag(step.index, "canonical")] + step.appended_tags)


def test_continuation_to_zigzag_single(merging_saddles):
    v1 = merging_saddles.fields[0]
    seed = merging_saddles.seed
    zz = run_protocol([v1], seed).zigzag
    assert len(zz) == 1 and zz.pairs[0] == canonical_index_pair(v1, seed)


def test_continuation_to_zigzag_chain(nine_fields):
    fields = nine_fields.fields[:4]
    trace = run_protocol(fields, nine_fields.seed)
    assert [step.case for step in trace.steps] == list("daa")
    assert len(trace.zigzag) == 1 + 6 * len(trace.steps)
    for step in trace.steps:
        assert step.appended_pairs[2] == step.connecting_pair
    # canonical <= push-forward >= meet <= connecting pair >= meet' ..., where
    # the two pairs differ; an identity arrow may point either way
    shape = [FORWARD, BACKWARD] * 3 * len(trace.steps)
    zz = trace.zigzag
    assert all(d == shape[i] for i, d in enumerate(zz.directions) if zz.at[i] != zz.at[i + 1])
    assert is_full(trace.barcode)
    pair = trace.steps[0].connecting_pair
    first = mv.relative_homology(fields[0].cx, pair.P, pair.E)
    for k, count in enumerate(first):
        assert len(bars_in_dim(trace.barcode, k)) == count


def test_adjacency_zigzag(merging_saddles, monkeypatch):
    v1, v2, v3 = merging_saddles.fields
    seed = merging_saddles.seed
    step1 = track_step(v1, v2, seed)
    # every check is under v2 or v3, the meet's under v2: the common
    # refinement of v2 and its merge v3
    assert intersect_fields(v2, v3) == v2
    checked = []
    validate = tracking.validate_index_pair_in_n
    monkeypatch.setattr(tracking, "validate_index_pair_in_n",
                        lambda field, *rest: checked.append(field) or validate(field, *rest))
    step2 = track_step(v2, v3, step1.result, step_index=2)
    assert step2.case == "f"
    assert checked and all(field is v2 or field is v3 for field in checked)
    # canonical(S) <= pf >= meet <= pf' >= canonical(S'), pushed inside cl S | cl S'
    cx = merging_saddles.cx
    ambient = cx.closure(step1.result) | cx.closure(step2.result)
    assert step2.adjacency_set == ambient
    pf, pf_next = (IndexPair(push_forward(fld, cx.closure(s), ambient),
                             push_forward(fld, cx.mouth(s), ambient))
                   for fld, s in ((v2, step1.result), (v3, step2.result)))
    closing = IndexPair(cx.closure(step2.result), cx.mouth(step2.result))
    assert step2.appended_pairs == [pf, IndexPair(pf.P & pf_next.P, pf.E & pf_next.E),
                                    pf_next, closing]
    assert [(tag.field_index, tag.role) for tag in step2.appended_tags] == [
        (2, "pushforward"), (3, "meet"), (3, "pushforward"), (3, "canonical")]
    zz = _step_zigzag(v2, step1.result, step2)
    assert len(zz) == 5
    barcode = mv.pair_zigzag_barcode(zz)
    dim1 = sorted((b.birth, b.death) for b in bars_in_dim(barcode, 1))
    assert dim1[0] == (1, 5) and dim1[1][1] == 5 and len(dim1) == 2

    # case g: the union of closures does not isolate both sets
    cx, fld, nxt, gseed = _case_g_instance()
    bad = track_step(fld, nxt, gseed, heuristic_g=True)
    assert bad.case == "g" and bad.adjacency_set is None
    ambient = cx.closure(gseed) | cx.closure(bad.result)
    assert not (isolates(fld, ambient, gseed) and isolates(nxt, ambient, bad.result))


def test_connect_pair_to_canonical(merging_saddles):
    v1, v2 = merging_saddles.fields[:2]
    cx = merging_saddles.cx
    seed = merging_saddles.seed
    canonical = canonical_index_pair(v1, seed)
    step = track_step(v1, v2, seed)
    assert step.case == "a" and step.connecting_pair == canonical
    assert step.appended_pairs[:3] == [canonical] * 3
    bigger = IndexPair(cx.simplices, frozenset(cx.simplices
                                               - invariant_part(v1, cx.simplices)))
    assert not dynamics.validate_index_pair(v1, bigger.P, bigger.E, seed)
    # a body that is not the seed has its fourth condition computed, and the
    # failed check names the pair's role
    with pytest.raises(ZigzagAssemblyError, match="meet pair: invariant part of P"):
        tracking._checked(v1, canonical, [(bigger, v1, seed, "meet pair", None)], 2, (), 1)


def test_connect_push_forward_pair(nine_fields):
    """In case d the connecting pair is canonical(hull), not canonical(S): the
    chain pushes canonical(S) forward inside its P, and the step's zigzag,
    being continuation, has every bar full."""
    fld, nxt = nine_fields.fields[:2]
    cx = nine_fields.cx
    seed = nine_fields.seed
    step = track_step(fld, nxt, seed)
    assert step.case == "d"
    pair = step.connecting_pair
    canonical = canonical_index_pair(fld, seed)
    assert pair == IndexPair(cx.closure(step.hull_set), cx.mouth(step.hull_set)) != canonical
    pf = IndexPair(push_forward(fld, canonical.P, pair.P), push_forward(fld, canonical.E, pair.P))
    assert step.appended_pairs[:3] == [pf, IndexPair(pf.P & pair.P, pf.E & pair.E), pair]
    assert is_full(mv.pair_zigzag_barcode(_step_zigzag(fld, seed, step)))


def test_naive_intersection_zigzag():
    cx, fld, nxt, seed = _case_g_instance()
    step = track_step(fld, nxt, seed, heuristic_g=True)
    zz = _step_zigzag(fld, seed, step)
    assert len(zz) == 3
    assert zz.tags[1].role == "naive-meet"
    middle = zz.pairs[1]
    assert not dynamics.validate_index_pair(nxt, middle.P, middle.E,
                                            invariant_part(nxt, middle.body))
    assert not is_full(mv.pair_zigzag_barcode(zz))
    # the raw meet is the meet of the two canonical pairs, whose sets are closed
    first, second = (IndexPair(cx.closure(s), cx.mouth(s)) for s in (seed, step.result))
    assert middle == IndexPair(first.P & second.P, first.E & second.E)
    assert all(isinstance(part, complexes._Closed) for part in middle)

    # disjoint closures: the middle pair is empty and every bar dies
    strip = mv.Complex.from_maximal([[0, 1], [2, 3]])
    first, second = (IndexPair(strip.closure(s), strip.mouth(s))
                     for s in (frozenset({(0, 1)}), frozenset({(2, 3)})))
    zz = PairZigzag(strip, [first, IndexPair(first.P & second.P, first.E & second.E), second])
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
    assert is_full(trace.barcode)
    assert len(trace.barcode.bars) == 1 and trace.barcode.bars[0].dim == 1


def test_run_protocol_odd_characteristic(merging_saddles):
    trace = run_protocol(merging_saddles.fields, merging_saddles.seed, p=3)
    assert [s.case for s in trace.steps] == ["a", "f"]
    assert sorted(trace.barcode.step_bars()) == [(1, 1, 3), (1, 3, 3)]


def test_run_protocol_empties():
    cx = mv.Complex.from_maximal([[1, 2]])
    v1 = singleton_field(cx)
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
    assert any(tag.role == "naive-meet" for tag in resolved.zigzag.tags)


@pytest.mark.parametrize("name", ["merging_saddles", "saddle_collision_nine"])
def test_run_protocol_checks_the_seed_once(name, monkeypatch):
    """Counts work, not time: the seed is checked once, in one facet pass,
    and no step re-checks the set it starts from, computes an invariant part
    only to compare it with itself, or peels a whole set: `invariant_part`
    is never called."""
    scene = mv.load_scene(FIXTURES / f"{name}.json")
    calls = Counter()
    for fn in (dynamics.invariant_part, dynamics.is_isolated_invariant_set, dynamics._facet_pass):
        def counted(*args, fn=fn, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        for module in (dynamics, tracking):
            if vars(module).get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    run_protocol(scene.fields, scene.seed)
    assert calls["is_isolated_invariant_set"] == 1 and calls["_facet_pass"] == 1
    assert calls["invariant_part"] == 0


def _each_pair_checked_once(monkeypatch, runs, p=2):
    """Tracks each run (fields, seed) with heuristic g and counts its checks
    per step: the pair the zigzag ended on is not checked again in its own P
    under the step's first field; the closing pair canonical(result) is
    checked under the next field exactly once; the connecting pair is checked
    under the next field, and under the first only in case d; no pair is
    checked twice under one field; the set the fourth condition is checked
    for is None unless the pair's body differs from it; and every appended
    pair is checked under the field of its tag, or the common refinement for
    the meet of case f.  Returns the count of each case."""
    log = []
    validate = tracking.validate_index_pair_in_n

    def recorded(field, pset, eset, *rest):
        log.append((field, IndexPair(pset, eset), rest))
        return validate(field, pset, eset, *rest)

    monkeypatch.setattr(tracking, "validate_index_pair_in_n", recorded)
    step_fn = tracking._step

    def marked(*args):
        log.append(None)
        return step_fn(*args)

    monkeypatch.setattr(tracking, "_step", marked)
    cases = Counter()
    for fields, seed in runs:
        log.clear()
        trace = run_protocol(fields, seed, p, heuristic_g=True)
        assert trace.stopped != "unresolved" and log[0] is None
        cx = fields[0].cx
        chunks = []
        for entry in log:
            if entry is None:
                chunks.append([])
            else:
                chunks[-1].append(entry)
        assert len(chunks) == len(trace.steps)
        for step, checks in zip(trace.steps, chunks):
            cases[step.case] += 1
            fld, nxt = fields[step.index - 1], fields[step.index]
            start = IndexPair(cx.closure(step.current), cx.mouth(step.current))
            closing = IndexPair(cx.closure(step.result), cx.mouth(step.result))
            assert step.appended_pairs[-1] == closing

            def checked(field, pair, in_p=False):
                return sum(f is field and q == pair and not (in_p and args[0] != q.P)
                           for f, q, args in checks)

            assert checked(fld, start, in_p=True) == 0
            assert checked(nxt, closing) == 1
            if step.connecting_pair is not None:
                assert checked(nxt, step.connecting_pair) == 1
                assert checked(fld, step.connecting_pair) == (step.case == "d")
            assert len({(id(f), q) for f, q, _ in checks}) == len(checks)
            for _, pair, args in checks:
                assert args[1] is None or pair.body != args[1]
            for pair, tag in zip(step.appended_pairs, step.appended_tags):
                field = fields[tag.field_index - 1]
                if step.case == "f" and tag.role == "meet":
                    # the common refinement of a field and a merge of two of its parts
                    assert intersect_fields(fld, nxt) == fld
                    field = fld
                assert (field is fld and pair == start) or any(
                    f == field and q == pair for f, q, _ in checks), (step.index, tag)
    return cases


@pytest.mark.parametrize("name", ["merging_saddles", "saddle_collision_nine", "unresolved_step"])
def test_each_step_validates_its_closing_pair_once(name, monkeypatch):
    scene = mv.load_scene(FIXTURES / f"{name}.json")
    assert _each_pair_checked_once(monkeypatch, [(scene.fields, scene.seed)])


def test_each_small_step_validates_each_pair_once(monkeypatch):
    """The accounting above on a stride of the exhaustive two-field runs on
    one triangle, where every case fires a floor of times."""
    cases = _each_pair_checked_once(monkeypatch, small_runs(Complex.from_maximal([(0, 1, 2)]),
                                                            stride=13))
    assert cases["d"] >= 20 and cases["f"] >= 10 and cases["g"] >= 2, cases


def test_chains_collapse_without_push_forwards(monkeypatch):
    """No push-forward in a run has its seed equal to its ambient set.  A
    chain from canonical(S) to a connecting pair equal to it is that pair four
    times, since there a push-forward returns P and E unchanged; every other
    chain starts from canonical(S).  The chains are read off each
    continuation step's pairs: canonical(S) <= pf >= meet <= (P,E) under the
    first field, then back from canonical(S') under the next."""
    pushes, collapsed = [], []
    push_forward, step_fn = tracking.push_forward, tracking._step

    def pushed(field, subset, nbhd):
        pushes.append(subset == nbhd)
        return push_forward(field, subset, nbhd)

    def stepped(field, nxt, current, known, *rest):
        step = step_fn(field, nxt, current, known, *rest)
        pair, appended = step.connecting_pair, step.appended_pairs
        if pair is not None:
            for fld, subset, chain in ((field, current, [known] + appended[:3]),
                                       (nxt, step.result, appended[:1:-1])):
                canonical = IndexPair(fld.cx.closure(subset), fld.cx.mouth(subset))
                if canonical == pair:
                    assert chain == [pair] * 4
                    collapsed.append((fld, pair))
                else:
                    assert chain[0] == canonical and chain[-1] == pair
        return step

    monkeypatch.setattr(tracking, "push_forward", pushed)
    monkeypatch.setattr(tracking, "_step", stepped)
    for name in SCENES:
        scene = mv.load_scene(FIXTURES / f"{name}.json")
        run_protocol(scene.fields, scene.seed, heuristic_g=True)
    rng = random.Random(17)
    scenes = tries = 0
    while scenes < 10:
        tries += 1
        assert tries <= 50, f"{scenes} of 10 grid scenes with a seed in {tries - 1} attempts"
        scene = grid_scene(rng, n=4, steps=6)
        if scene is not None:
            fields, seed = scene
            for start in (seed, invariant_part(fields[0], fields[0].cx.simplices)):
                run_protocol(fields, start, heuristic_g=True)
            scenes += 1
    assert pushes and not any(pushes)
    assert len(collapsed) >= 20
    for field, pair in collapsed:
        assert dynamics.push_forward(field, pair.P, pair.P) == pair.P
        assert dynamics.push_forward(field, pair.E, pair.P) == pair.E


def test_case_c_raises_when_its_set_changes(merging_saddles, monkeypatch):
    """A merge outside the tracked set leaves its invariant part alone, so
    an S' that differs from S in case c is a bug, and raises."""
    v1 = merging_saddles.fields[0]
    seed = merging_saddles.seed
    outside = v1.merge(v1.mv_id((0,)), v1.mv_id((0, 1)))
    assert track_step(v1, outside, seed).case == "c"
    monkeypatch.setattr(tracking, "_repair", lambda field, subset, move, p=2: frozenset())
    with pytest.raises(ZigzagAssemblyError, match="case c"):
        track_step(v1, outside, seed)


def test_subset_or_superset_after_continuation():
    rng = random.Random(31)
    checked = 0
    tries = 0
    while checked < 40:
        tries += 1
        assert tries <= 600, f"{checked} of 40 continuation steps in {tries - 1} attempts"
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


def _bars(trace):
    return [(b.dim, b.birth, b.death) for b in trace.barcode.bars]


def _relabeled(scene, perm):
    """Fields and seed of a scene with every vertex v renamed perm[v]."""
    def image(s):
        return simplex(perm[v] for v in s)
    cx = mv.Complex(image(s) for s in scene.cx.simplices)
    fields = [MultivectorField.from_parts(cx, [[image(s) for s in part] for part in fld.parts()])
              for fld in scene.fields]
    return fields, frozenset(image(s) for s in scene.seed)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", SCENES)
def test_relabeling_vertices_keeps_cases_and_barcode(name, p):
    """Renaming vertices reorders simplices and flips orientations, but the
    dynamics, the case of every step and the barcode are the same."""
    scene = mv.load_scene(FIXTURES / f"{name}.json")
    base = run_protocol(scene.fields, scene.seed, p)
    rng = random.Random(name)
    ids = list(vertices(scene.cx))
    for _ in range(3):
        fields, seed = _relabeled(scene, dict(zip(ids, rng.sample(ids, len(ids)))))
        trace = run_protocol(fields, seed, p)
        assert [s.case for s in trace.steps] == [s.case for s in base.steps]
        assert trace.stopped == base.stopped
        assert _bars(trace) == _bars(base)


def _split_and_merge_back(rng, fld):
    """An atomic split of fld and the merge that undoes it, or None."""
    split = random_refinement(rng, fld)
    if split is None:
        return None
    halves = set(split.parts()) - set(fld.parts())
    a, b = (min(half) for half in halves)
    back = split.merge(split.mv_id(a), split.mv_id(b))
    assert back == fld
    return split, back


@pytest.mark.parametrize("p", [2, 3])
def test_split_then_merge_back_continues_with_full_bars(p):
    rng = random.Random(70 + p)
    instances = [(scene.fields[0], scene.seed)
                 for scene in (mv.load_scene(FIXTURES / f"{name}.json") for name in SCENES)]
    tries = 0
    while len(instances) < 40:
        tries += 1
        assert tries <= 400, f"{len(instances)} of 40 seeded fields in {tries - 1} attempts"
        cx = random_complex(rng, max_size=16)
        fld = random_field(rng, cx)
        seed = random_isolated_set(rng, fld, p) if mv.validate_field(fld) else None
        if seed is not None:
            instances.append((fld, seed))
    checked = 0
    for fld, seed in instances:
        for _ in range(3):
            pair = _split_and_merge_back(rng, fld)
            if pair is None:
                break
            trace = run_protocol([fld, *pair], seed, p)
            assert trace.stopped == "completed"
            assert all(step.case in "abcd" for step in trace.steps)
            assert is_full(trace.barcode)
            checked += 1
    assert checked >= 60


def test_grid_scenes_give_the_same_barcode_at_p2_and_p3():
    """Pairs of subcomplexes of a disk have torsion-free relative homology,
    so characteristics 2 and 3 give the same cases and bars: both for a
    small isolated set and for the invariant part of the whole grid."""
    rng = random.Random(47)
    checked = 0
    tries = 0
    while checked < 12:
        tries += 1
        assert tries <= 60, f"{checked // 2} of 6 grid scenes with a seed in {tries - 1} attempts"
        scene = grid_scene(rng, n=4, steps=6)
        if scene is None:
            continue
        fields, seed = scene
        for start in (seed, invariant_part(fields[0], fields[0].cx.simplices, 2)):
            two, three = (run_protocol(fields, start, p) for p in (2, 3))
            assert [s.case for s in two.steps] == [s.case for s in three.steps]
            assert two.stopped == three.stopped
            assert _bars(two) == _bars(three)
            checked += 1


def _agrees_with_reference(fields, seed, p, heuristic_g):
    """run_protocol against reference_protocol: per step the case, result,
    appended pairs and tags, then the stop and the bars.  A run of cases a-d
    only is continuation, a special case of persistence: every bar is full,
    and every result has the seed's Conley index.  Returns the reference's
    steps, each (case, result, pairs, tags)."""
    trace = run_protocol(fields, seed, p, heuristic_g)
    steps, stopped, barcode = reference_protocol(fields, seed, p, heuristic_g)
    assert [(s.case, s.result, s.appended_pairs, s.appended_tags) for s in trace.steps] == steps
    assert trace.stopped == stopped
    assert _bars(trace) == [(b.dim, b.birth, b.death) for b in barcode.bars]
    if all(case in "abcd" for case, *_ in steps):
        cx = fields[0].cx
        assert is_full(barcode)
        index = dense_relative_betti(cx, cx.closure(seed), cx.mouth(seed), p)
        for _, result, _, _ in steps:
            assert dense_relative_betti(cx, cx.closure(result), cx.mouth(result), p) == index
    return steps


@pytest.mark.parametrize("heuristic_g", [False, True])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", SCENES)
def test_reference_protocol_agrees_on_the_fixtures(name, p, heuristic_g):
    scene = mv.load_scene(FIXTURES / f"{name}.json")
    _agrees_with_reference(scene.fields, scene.seed, p, heuristic_g)


def _reference_scenes(p):
    """The scenes of the random reference-protocol test: 30 random grid
    scenes, each yielded as (fields, start) from a small isolated set and
    from the invariant part of the whole grid, and each run extended by up
    to three steps that change the set it ends on (`set_changing_steps`)."""
    rng, extend = random.Random(100 + p), random.Random(200 + p)
    scenes = tries = 0
    while scenes < 30:
        tries += 1
        assert tries <= 150, f"{scenes} of 30 grid scenes with a seed in {tries - 1} attempts"
        scene = grid_scene(rng, n=4, steps=6, p=p)
        if scene is None:
            continue
        fields, seed = scene
        for start in (seed, scc_invariant_part(fields[0], fields[0].cx.simplices, p)):
            trace = run_protocol(fields, start, p, True)
            end = trace.steps[-1].result if trace.steps else start
            yield fields + set_changing_steps(extend, fields[-1], end, p), start
        scenes += 1


@pytest.mark.parametrize("p", [2, 3])
def test_reference_protocol_agrees_on_random_grid_scenes(p):
    """30 random grid scenes, tracked from a small isolated set and from the
    invariant part of the whole grid, with heuristic g on.  Case d, whose S'
    is the invariant part of the hull as in case f, fires 34 times at p = 2
    and 27 at p = 3; the floor of 12 keeps that path under test.  The steps
    appended to each run make continuation change the set, S' != S, 20 times
    at p = 2 (13 in case b, 7 in case a) and 25 at p = 3 (14 and 11); the
    floor of 10 keeps the repair of S' from the blocks a step touches under
    test, which the scenes alone never reach."""
    counts = Counter()
    for fields, start in _reference_scenes(p):
        current = start
        for case, result, *_ in _agrees_with_reference(fields, start, p, True):
            counts[case] += 1
            counts["S' != S"] += case in "abc" and result != current
            current = result
    assert min(counts[case] for case in "abcd") >= 1 and counts["d"] >= 12, counts
    assert counts["S' != S"] >= 10, counts


@pytest.mark.parametrize("p", [2, 3])
def test_reference_protocol_agrees_on_every_twentieth_small_run(p):
    """Exhaustive scenes on the closure of one triangle: 434 convex fields,
    and for each, every nonempty isolated invariant set as seed and every
    atomic split or merge as the next field, 41,567 two-field runs.  Every
    20th run is tracked by `run_protocol` and `reference_protocol`, with
    heuristic g on every second one, and must agree in case, result, pairs,
    tags and bars.  Each case reaches a floor, and so do continuation steps
    (a-c) whose S' differs from S; `small_runs` with stride 1 is the full sweep."""
    cx = Complex.from_maximal([(0, 1, 2)])
    counts = Counter()
    for k, (fields, seed) in enumerate(small_runs(cx, p, stride=20)):
        [(case, result, *_)] = _agrees_with_reference(fields, seed, p, bool(k % 2))
        counts[case] += 1
        counts["S' != S"] += case in "abc" and result != seed
    assert counts["S' != S"] >= 20 and counts["d"] >= 20, counts
    assert counts["f"] >= 10 and counts["g"] >= 2, counts


def test_the_local_hull_is_the_hull():
    """The hull grown from a convex compatible set S by the multivector a
    merge makes is hull(nxt, S | merged), grown from the empty set, as the
    former whole-set rounds, the fixpoint and, on small complexes, the
    brute-force oracle give it, and comes with its closure.
    The merges are random, and straddle S, lie outside it and inside it,
    each a floor of times, within an attempt cap."""
    rng = random.Random(29)
    where, by_definition = Counter(), 0
    for tries in itertools.count(1):
        if len(where) == 3 and min(where.values()) >= 30 and by_definition >= 30:
            break
        assert tries <= 1500, f"{where}, {by_definition} by definition in {tries - 1} merges"
        small = tries % 2
        if small:
            fld = random_field(rng, random_complex(rng, n_vertices=5, n_maximal=3, max_size=10))
        else:
            fld = random_gradient_field(rng, grid_complex(5))
        current = random_convex_compatible(rng, fld)
        nxt = random_coarsening(rng, fld)
        if nxt is None:
            continue
        merged = classify_rearrangement(fld, nxt).whole
        grown, closure = tracking._grow(nxt, current, fld.cx.closure(current), merged)
        assert grown == hull(nxt, current | merged) == alternating_hull(nxt, current | merged)
        assert grown == fixpoint_hull(nxt, current | merged)
        assert isinstance(closure, complexes._Closed) and closure == fld.cx.closure(grown)
        if small:
            assert grown == brute_hull(nxt, current | merged)
            by_definition += 1
        where["inside" if merged <= current else "outside" if merged.isdisjoint(current)
              else "straddling"] += 1


@contextmanager
def _tagged_sets():
    """Every set tagged closed while the block runs."""
    made = []
    complexes._Closed.__init__ = lambda self, *args: made.append(self)
    try:
        yield made
    finally:
        del complexes._Closed.__init__


def _non_convex_repair(scene):
    """A stand-in for `_repair` whose S' adds to S a vertex v of a triangle
    t in S, with an edge between v and t outside S: S' is not convex."""
    v = next(v for t in sorted(scene.seed) if len(t) == 3
             for e in proper_faces(t) if len(e) == 2 and e not in scene.seed
             for v in proper_faces(e))
    return lambda field, subset, move, p=2: subset | {v}


@pytest.mark.parametrize("p", [2, 3])
def test_every_set_tagged_closed_is_closed(p, monkeypatch):
    """Each set a run tags closed passes a closedness scan blind to the tag:
    on every fixture, on the random reference-protocol scenes and on every
    100th two-field run on one triangle, and in a step whose S' is not
    convex.  There the mouth of S' is not closed, so it is not tagged, and
    the closing pair's one check of E raises."""
    with _tagged_sets() as made:
        for name in SCENES:
            scene = mv.load_scene(FIXTURES / f"{name}.json")
            run_protocol(scene.fields, scene.seed, p, heuristic_g=True)
        for fields, start in itertools.chain(_reference_scenes(p), small_runs(
                Complex.from_maximal([(0, 1, 2)]), p, stride=100)):
            run_protocol(fields, start, p, heuristic_g=True)
        scene = mv.load_scene(FIXTURES / "merging_saddles.json")
        monkeypatch.setattr(tracking, "_repair", _non_convex_repair(scene))
        with pytest.raises(ZigzagAssemblyError, match="^canonical pair: E is not closed"):
            run_protocol(scene.fields, scene.seed, p)
    assert len(made) >= 1000
    assert all(all_faces(x) <= x for x in made)


@pytest.mark.parametrize("name", SCENES)
def test_a_step_builds_one_closure_and_scans_no_set_it_built(name, monkeypatch):
    """Counts work: outside the criticality of multivectors, a run takes the
    closure of the seed and of S' in each step where S' differs from S, and
    no other.  It scans for closedness only sets no step tagged: the mouth of
    a new S', at most once.  Case g's raw meet is a meet of checked pairs, so
    it is tagged closed and never scanned."""
    scene = mv.load_scene(FIXTURES / f"{name}.json")
    closures, scans, deciding = [], Counter(), []
    closure, is_closed = Complex.closure, Complex.is_closed
    is_critical = MultivectorField.is_critical

    def counted_closure(cx, subset):
        if not deciding:
            closures.append(subset)
        return closure(cx, subset)

    def counted_is_closed(cx, subset):
        if not deciding and not isinstance(subset, complexes._Closed):
            scans[subset] += 1
        return is_closed(cx, subset)

    def deciding_critical(field, ident, p=2):
        deciding.append(ident)
        try:
            return is_critical(field, ident, p)
        finally:
            deciding.pop()

    monkeypatch.setattr(Complex, "closure", counted_closure)
    monkeypatch.setattr(Complex, "is_closed", counted_is_closed)
    monkeypatch.setattr(MultivectorField, "is_critical", deciding_critical)
    trace = run_protocol(scene.fields, scene.seed, heuristic_g=True)
    expected = [scene.seed]
    for step in trace.steps:
        expected += [step.result] if step.result != step.current else []
    assert closures == expected
    mouths = {scene.cx.mouth(step.result) for step in trace.steps if step.result != step.current}
    assert scans.keys() <= mouths
    assert all(scans[mouth] <= 1 for mouth in mouths)
