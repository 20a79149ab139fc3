"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured evidence (run with -s to see them)."""

import random
import time
from pathlib import Path

import mvtrack as mv
from mvtrack.dynamics import (IndexPair, canonical_index_pair, invariant_part,
                              is_isolated_invariant_set, isolates, push_forward,
                              validate_index_pair, validate_index_pair_in_n)
from mvtrack.fields import intersect_fields, rearrangement_path
from mvtrack.io import load_scene, load_zigzag
from mvtrack.tracking import hull, run_protocol, track_step
from mvtrack.zigzag import pair_zigzag_barcode

from helpers import (bars_in_dim, brute_hull, brute_invariant_part, closed_subsets, is_full,
                     isolated_invariant_sets, random_coarsening, random_complex,
                     random_field, random_isolated_set, random_refinement,
                     random_subset, singleton_field)

FIXTURES = Path(__file__).parent.parent / "fixtures"


def _report(num, text):
    print(f"[criterion {num:2d}] PASS - {text}")


def test_criterion_01_merging_saddles_exact():
    start = time.time()
    scene = load_scene(FIXTURES / "merging_saddles.json")
    cx = scene.cx
    seed = scene.seed
    assert mv.conley_index(scene.fields[0], seed) == (0, 1, 0)
    trace = run_protocol(scene.fields, seed)
    final = trace.steps[-1].result
    assert mv.conley_index(scene.fields[2], final) == (0, 2, 0)
    bars = sorted(trace.barcode.step_bars())
    assert bars == [(1, 1, 3), (1, 3, 3)]
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, f"saddle indices (0,1,0)/(0,2,0); barcode spans 1-3 and 3-3 "
               f"in dim 1; {elapsed:.2f}s")


def test_criterion_02_nine_field_collision():
    start = time.time()
    scene = load_scene(FIXTURES / "saddle_collision_nine.json")
    trace = run_protocol(scene.fields, scene.seed)
    kinds = [s.rearrangement.kind for s in trace.steps]
    assert kinds == ["coarsening", "refinement", "refinement", "coarsening",
                     "coarsening", "refinement", "coarsening", "refinement"]
    assert [s.case for s in trace.steps] == list("daaccafa")
    bars = sorted(trace.barcode.step_bars())
    assert bars == [(1, 1, 9), (1, 8, 9)]
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(2, f"case sequence daaccafa over the caption kinds; dim-1 bars "
               f"1-9 and 8-9; {elapsed:.2f}s")


def test_criterion_03_intersection_inside_isolating_set():
    zz, _ = load_zigzag(FIXTURES / "repeller_pairs_in_n.json")
    scene = load_scene(FIXTURES / "repeller_disk.json")
    fld = scene.fields[0]
    every = scene.cx.simplices
    for pair in zz.pairs:
        subset = invariant_part(fld, pair.body)
        assert subset == scene.seed
        assert validate_index_pair_in_n(fld, pair.P, pair.E, every, subset)
    barcode = pair_zigzag_barcode(zz)
    assert [(b.dim, b.birth, b.death) for b in barcode.bars] == [(2, 1, 3)]
    _report(3, "three index pairs in the whole disk; single full dim-2 bar")


def test_criterion_04_naive_intersection_flagged_and_not_full():
    zz, _ = load_zigzag(FIXTURES / "repeller_naive_intersection.json")
    scene = load_scene(FIXTURES / "repeller_disk.json")
    fld = scene.fields[0]
    middle = zz.pairs[1]
    report = validate_index_pair(fld, middle.P, middle.E,
                                 invariant_part(fld, middle.body))
    assert not report and report.problems
    barcode = pair_zigzag_barcode(zz)
    assert not is_full(barcode)
    dim2 = [(b.birth, b.death) for b in bars_in_dim(barcode, 2)]
    assert dim2 == [(1, 1), (3, 3)]
    _report(4, f"middle pair rejected ({report.problems[0]}); barcode not full")


def _continuation_sequence(rng, max_steps=4):
    while True:
        cx = random_complex(rng, n_vertices=6, n_maximal=3, max_dim=2, max_size=20)
        fld = random_field(rng, cx)
        if not mv.validate_field(fld):
            continue
        seed = random_isolated_set(rng, fld)
        if seed is None:
            continue
        fields = [fld]
        current = seed
        for _ in range(max_steps):
            for _attempt in range(25):
                make = random_coarsening if rng.random() < 0.5 else random_refinement
                cand = make(rng, fields[-1])
                if cand is None:
                    continue
                step = track_step(fields[-1], cand, current)
                if step.case in "abcd" and step.result:
                    fields.append(cand)
                    current = step.result
                    break
            else:
                break
        if len(fields) >= 3:
            return fields, seed


def test_criterion_05_continuation_barcodes_are_full():
    start = time.time()
    rng = random.Random(1005)
    for i in range(100):
        fields, seed = _continuation_sequence(rng)
        trace = run_protocol(fields, seed)
        assert all(s.case in "abcd" for s in trace.steps)
        barcode = trace.barcode
        assert is_full(barcode), f"sequence {i}: {barcode.bars}"
        first = trace.zigzag.pairs[0]
        betti = mv.relative_homology(fields[0].cx, first.P, first.E)
        for dim, expected in enumerate(betti):
            assert len(bars_in_dim(barcode, dim)) == expected
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(5, f"100 random continuation sequences, all barcodes full with "
               f"the starting pair's Betti counts; {elapsed:.1f}s")


def test_criterion_06_invariant_part_oracle():
    rng = random.Random(1006)
    mismatches = 0
    for _ in range(500):
        cx = random_complex(rng, n_vertices=5, n_maximal=3, max_dim=2, max_size=12)
        fld = random_field(rng, cx, merges=rng.randint(0, 4))
        subset = random_subset(rng, cx.simplices, max_size=10)
        if invariant_part(fld, subset) != brute_invariant_part(fld, subset):
            mismatches += 1
    assert mismatches == 0
    _report(6, "500 random invariant parts equal the essential-solution search")


def _pairs_for(fld, subset, closed):
    out = []
    for pset in closed:
        if not subset <= pset:
            continue
        for eset in closed:
            if eset <= pset and not (subset & eset):
                if validate_index_pair(fld, pset, eset, subset):
                    out.append(IndexPair(pset, eset))
    return out


def test_criterion_07_index_pair_theorems():
    rng = random.Random(1007)
    counts = {"iso_equiv": 0, "inv_isolated": 0, "pairs": 0, "same_betti": 0,
              "pf_in_n": 0, "mixed": 0, "same_s_meet": 0}
    while min(counts.values()) < 25:
        cx = random_complex(rng, n_vertices=5, n_maximal=3, max_dim=2, max_size=11)
        fld = random_field(rng, cx, merges=rng.randint(0, 4))
        if not mv.validate_field(fld):
            continue
        closed = closed_subsets(cx)

        # isolation is equivalent to convex + compatible, for invariant sets
        subset = invariant_part(fld, random_subset(rng, cx.simplices))
        nice = cx.is_convex(subset) and fld.is_compatible(subset)
        witnesses = [n for n in closed
                     if isolates(fld, n, subset)]
        assert bool(witnesses) == nice
        counts["iso_equiv"] += 1

        # the invariant part of a convex compatible set is isolated invariant
        region = hull(fld, random_subset(rng, cx.simplices, max_size=5))
        inv = invariant_part(fld, region)
        assert is_isolated_invariant_set(fld, inv)
        counts["inv_isolated"] += 1
        if not inv:
            continue

        pairs = _pairs_for(fld, inv, closed)
        canonical = canonical_index_pair(fld, inv)
        assert canonical in pairs
        bettis = set()
        for pair in pairs:
            # the first component isolates, the body is convex and compatible
            assert isolates(fld, pair.P, inv)
            assert cx.is_convex(pair.body) and fld.is_compatible(pair.body)
            assert validate_index_pair_in_n(fld, pair.P, pair.E, pair.P, inv)
            bettis.add(mv.relative_homology(cx, pair.P, pair.E))
        assert len(bettis) == 1
        counts["pairs"] += 1
        if len(pairs) >= 3:
            counts["same_betti"] += 1

        # push-forward pairs in an isolating set, and their intersections
        isolating = [n for n in closed if isolates(fld, n, inv)]
        nbhd = max(isolating, key=len)
        pf_pair = IndexPair(push_forward(fld, cx.closure(inv), nbhd),
                            push_forward(fld, cx.mouth(inv), nbhd))
        assert validate_index_pair_in_n(fld, pf_pair.P, pf_pair.E, nbhd, inv)
        counts["pf_in_n"] += 1
        in_n = [pair for pair in pairs
                if pair.P <= nbhd
                and validate_index_pair_in_n(fld, pair.P, pair.E, nbhd, inv)]
        for other in in_n[:4]:
            meet = IndexPair(pf_pair.P & other.P, pf_pair.E & other.E)
            assert validate_index_pair_in_n(fld, meet.P, meet.E, nbhd, inv)
            counts["same_s_meet"] += 1

        # intersecting pairs in one set under two different fields
        other_field = random_field(rng, cx, merges=rng.randint(0, 4))
        if not mv.validate_field(other_field):
            continue
        second = random_isolated_set(rng, other_field, attempts=5)
        if second is None:
            continue
        both = [n for n in closed
                if isolates(fld, n, inv) and isolates(other_field, n, second)]
        if not both:
            continue
        nbhd = max(both, key=len)
        pair_a = IndexPair(push_forward(fld, cx.closure(inv), nbhd),
                           push_forward(fld, cx.mouth(inv), nbhd))
        pair_b = IndexPair(push_forward(other_field, cx.closure(second), nbhd),
                           push_forward(other_field, cx.mouth(second), nbhd))
        meet = IndexPair(pair_a.P & pair_b.P, pair_a.E & pair_b.E)
        mixed = intersect_fields(fld, other_field)
        s_meet = invariant_part(mixed, meet.body)
        assert validate_index_pair_in_n(mixed, meet.P, meet.E, nbhd, s_meet)
        counts["mixed"] += 1
    _report(7, "index-pair theorem suite on random instances: " + ", ".join(
        f"{k}={v}" for k, v in sorted(counts.items())))


def _ef_instance(rng):
    for _ in range(400):
        cx = random_complex(rng, n_vertices=5, n_maximal=3, max_dim=2, max_size=12)
        fld = random_field(rng, cx, merges=rng.randint(1, 4))
        if not mv.validate_field(fld):
            continue
        subset = random_isolated_set(rng, fld, attempts=8)
        if not subset:
            continue
        nxt = random_coarsening(rng, fld)
        if nxt is None:
            continue
        step = track_step(fld, nxt, subset, heuristic_g=True)
        if step.case in "fg":
            return cx, fld, nxt, subset
    raise RuntimeError("no impossibility instance found")


def _common_pairs(cx, fld, nxt, subset, closed):
    out = []
    for pset in closed:
        if not subset <= pset:
            continue
        for eset in closed:
            if not (eset <= pset) or (subset & eset):
                continue
            if not validate_index_pair(fld, pset, eset, subset):
                continue
            other = invariant_part(nxt, pset - eset)
            if not is_isolated_invariant_set(nxt, other):
                continue
            if validate_index_pair(nxt, pset, eset, other):
                out.append((IndexPair(pset, eset), other))
    return out


def test_criterion_08_no_common_pair_when_continuation_breaks():
    rng = random.Random(1008)
    # sanity: on a continuation step the enumeration does find common pairs
    strip = mv.Complex.from_maximal([[0, 1, 2]])
    fld = singleton_field(strip)
    merged = fld.merge((0,), (0, 1))
    seed = frozenset({(0, 1, 2)})
    found = _common_pairs(strip, fld, merged, seed, closed_subsets(strip))
    assert found, "enumeration failed to find the connecting pair of a case-b step"
    checked = 0
    for _ in range(25):
        cx, fld, nxt, subset = _ef_instance(rng)
        assert not _common_pairs(cx, fld, nxt, subset, closed_subsets(cx))
        checked += 1
    _report(8, f"{checked} broken-continuation instances, exhaustive search "
               f"finds no common index pair")


def test_criterion_09_minimality():
    rng = random.Random(1009)
    hull_checked = 0
    for _ in range(60):
        cx = random_complex(rng, n_vertices=5, n_maximal=2, max_dim=2, max_size=10)
        fld = random_field(rng, cx)
        seed = random_subset(rng, cx.simplices, max_size=6)
        assert hull(fld, seed) == brute_hull(fld, seed)
        hull_checked += 1

    subset_thm = 0
    min_pert = 0
    nested = 0
    beyond = 0
    while subset_thm < 25 or min_pert < 25 or beyond < 10:
        cx = random_complex(rng, n_vertices=5, n_maximal=3, max_dim=2, max_size=11)
        fld = random_field(rng, cx, merges=rng.randint(1, 4))
        if not mv.validate_field(fld):
            continue
        subset = random_isolated_set(rng, fld, attempts=8)
        if not subset:
            continue
        nxt = random_coarsening(rng, fld) if rng.random() < 0.7 \
            else random_refinement(rng, fld)
        if nxt is None:
            continue
        step = track_step(fld, nxt, subset, heuristic_g=True)
        if step.case in "abcd":
            result = step.result
            assert result <= subset or subset <= result
            subset_thm += 1
            for pair, other in _common_pairs(cx, fld, nxt, subset,
                                             closed_subsets(cx)):
                assert result <= other
                min_pert += 1
                if other <= subset:
                    assert result == other
                    nested += 1
        elif step.result:
            # beyond continuation the result still minimizes among supersets
            for other in isolated_invariant_sets(nxt):
                if subset <= other:
                    assert step.result <= other
                    beyond += 1
    _report(9, f"hull minimality x{hull_checked}; inclusion after continuation "
               f"x{subset_thm}; minimal perturbation x{min_pert} "
               f"(nested x{nested}); beyond-continuation minimality x{beyond}")


def test_criterion_10_rearrangement_paths():
    rng = random.Random(1010)
    for _ in range(25):
        cx = random_complex(rng, n_vertices=6, n_maximal=3, max_dim=2, max_size=16)
        first = random_field(rng, cx)
        second = random_field(rng, cx)
        path = rearrangement_path(first, second)
        expected = (len(cx) - len(first)) + (len(cx) - len(second)) + 1
        assert len(path) == expected
        for a, b in zip(path, path[1:]):
            mv.classify_rearrangement(a, b)
    _report(10, "25 random field pairs: every consecutive pair atomic, "
                "path length matches the split/merge count")
