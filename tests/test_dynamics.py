import itertools
import random
from collections import Counter

import pytest

import mvtrack as mv
from mvtrack import dynamics, fields as mvfields
from mvtrack.dynamics import (IndexPair, _repair, canonical_index_pair, invariant_part,
                              is_invariant, is_isolated_invariant_set, isolates, push_forward, validate_index_pair,
                              validate_index_pair_in_n)
from mvtrack.fields import MultivectorField, classify_rearrangement, intersect_fields

from helpers import (brute_invariant_part, closed_subsets, grid_complex, grid_scene,
                     oracle_isolates, oracle_pair_problems, random_coarsening, random_complex,
                     random_convex_compatible, random_field, random_gradient_field,
                     random_isolated_set, random_refinement, random_subset, scc_invariant_part,
                     singleton_field, step_graph, strongly_connected_components)


def test_index_pair_type():
    pair = IndexPair(frozenset({(0,), (1,)}), frozenset({(0,)}))
    assert pair.body == {(1,)}
    with pytest.raises(ValueError):
        IndexPair(frozenset({(0,)}), frozenset({(1,)}))


def test_invariant_part_examples(triangle):
    singles = singleton_field(triangle)
    assert invariant_part(singles, triangle.simplices) == triangle.simplices
    assert invariant_part(singles, frozenset()) == frozenset()
    arrow = MultivectorField.from_parts(triangle, [[(0,), (0, 1)]],
                                        complete_singletons=True)
    assert invariant_part(arrow, frozenset({(0,), (0, 1)})) == frozenset()


def test_invariant_part_is_idempotent():
    """The tracking protocol checks a pair whose body is an invariant set
    without recomputing its invariant part, so idempotence is relied on at
    every characteristic, on random fields and on the fields of grid scenes."""
    rng = random.Random(9)
    fields = [random_field(rng, random_complex(rng, max_size=14)) for _ in range(40)]
    tries = 0
    while len(fields) < 40 + 4 * 7:
        tries += 1
        assert tries <= 20, f"{len(fields) - 40} grid fields in {tries - 1} attempts"
        scene = grid_scene(rng, n=3, steps=6)
        fields += scene[0] if scene else []
    for fld in fields:
        for p in (2, 3, 5):
            for subset in (random_subset(rng, fld.cx.simplices), fld.cx.simplices):
                inv = invariant_part(fld, subset, p)
                assert invariant_part(fld, inv, p) == inv


def test_invariant_part_against_definition_oracle():
    rng = random.Random(10)
    for _ in range(60):
        cx = random_complex(rng, n_vertices=5, n_maximal=3, max_dim=2, max_size=12)
        fld = random_field(rng, cx, merges=rng.randint(0, 4))
        subset = random_subset(rng, cx.simplices, max_size=10)
        assert invariant_part(fld, subset) == brute_invariant_part(fld, subset)


def _has_cycle_of_blocks(fld, subset):
    return any(len({fld.mv_id(s) for s in comp}) > 1
               for comp in strongly_connected_components(step_graph(fld, subset)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_invariant_part_against_both_oracles(p):
    """Arbitrary subsets, most neither convex nor compatible."""
    rng = random.Random(40 + p)
    cycles = non_convex = non_compatible = 0
    for _ in range(300):
        cx = random_complex(rng, n_vertices=6, n_maximal=4, max_dim=2, max_size=16)
        fld = random_field(rng, cx)
        subset = random_subset(rng, cx.simplices, max_size=14)
        inv = invariant_part(fld, subset, p)
        assert inv == scc_invariant_part(fld, subset, p)
        assert inv == brute_invariant_part(fld, subset, p)
        cycles += _has_cycle_of_blocks(fld, subset)
        non_convex += not cx.is_convex(subset)
        non_compatible += not fld.is_compatible(subset)
    assert cycles >= 3 and non_convex >= 30 and non_compatible >= 100


def test_invariant_part_keeps_a_periodic_orbit(triangle):
    """Three regular multivectors on the boundary of a triangle step around
    it in a cycle; the critical triangle connects to that cycle."""
    fld = MultivectorField.from_parts(
        triangle, [[(0,), (0, 1)], [(1,), (1, 2)], [(2,), (0, 2)], [(0, 1, 2)]])
    boundary = triangle.simplices - {(0, 1, 2)}
    assert invariant_part(fld, boundary) == boundary
    assert invariant_part(fld, triangle.simplices) == triangle.simplices
    assert invariant_part(fld, boundary - {(1, 2)}) == frozenset()
    assert invariant_part(fld, {(0, 1, 2), (0,), (0, 1)}) == {(0, 1, 2)}


def test_invariant_part_against_scc_oracle_on_grid_scenes():
    """Every field of random 8x8 and 10x10 grid scenes: the whole complex,
    random subsets and hulls of random seeds."""
    rng = random.Random(40)
    cycles = 0
    for n in (8, 8, 10):
        scene = grid_scene(rng, n=n, steps=12)
        assert scene is not None
        for fld in scene[0]:
            cx = fld.cx
            subsets = [cx.simplices]
            subsets += [random_subset(rng, cx.simplices) for _ in range(3)]
            subsets += [mv.hull(fld, random_subset(rng, cx.simplices, max_size=8))
                        for _ in range(3)]
            for subset in subsets:
                assert invariant_part(fld, subset) == scc_invariant_part(fld, subset)
                cycles += _has_cycle_of_blocks(fld, subset)
    assert cycles


def _moves(rng, fld, subset, p):
    """Random splits and merges, and every convex merge of a critical block
    of the set with a multivector next to it: such a merge can make a source
    or a sink of the set regular, and starts the longest peels."""
    cx = fld.cx
    moves = [move(rng, fld) for move in (random_refinement, random_coarsening) for _ in range(2)]
    for a in sorted({fld.mv_id(s) for s in subset}):
        if fld.is_critical(a, p):
            near = {fld.mv_id(t) for s in fld.part(a)
                    for t in cx.closure_of(s).union(cx.cofacets(s))}
            moves += [fld.merge(a, b) for b in sorted(near - {a})
                      if cx.is_convex(fld.part(a) | fld.part(b))]
    return [nxt for nxt in moves if nxt is not None]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_repair_matches_the_full_peel(p):
    """After one split or merge, the peel repaired from the touched blocks
    gives the invariant part of a set S = Inv(X) for random X, as the full
    peel and the former reduction do, and on small complexes as the
    definition does; with moves inside, straddling and disjoint from S, and
    repairs that peel one block and ten."""
    rng = random.Random(60 + p)
    where, peeled, by_definition = Counter(), [], 0

    def check(fld, brute):
        nonlocal by_definition
        subset = invariant_part(fld, random_subset(rng, fld.cx.simplices), p)
        for nxt in _moves(rng, fld, subset, p):
            move = classify_rearrangement(fld, nxt)
            repaired = _repair(nxt, subset, move, p)
            assert repaired == invariant_part(nxt, subset, p) == scc_invariant_part(nxt, subset, p)
            if brute and len(subset) <= 6:  # the search grows with the cycles in a block
                assert repaired == brute_invariant_part(nxt, subset, p)
                by_definition += 1
            where["inside" if move.whole <= subset else
                  "disjoint" if move.whole.isdisjoint(subset) else "straddling"] += 1
            peeled.append(len({nxt.mv_id(s) for s in subset - repaired}))

    for _ in range(150):
        cx = random_complex(rng, n_vertices=5, n_maximal=3, max_dim=2, max_size=12)
        check(random_field(rng, cx, merges=rng.randint(0, 4)), True)
    assert max(peeled) >= 1
    tries = 0
    while max(peeled) < 10:
        tries += 1
        assert tries <= 60, f"no repair peeled ten blocks in {tries - 1} grid fields"
        check(random_gradient_field(rng, grid_complex(8)), False)
    assert len(where) == 3 and min(where.values()) >= 20 and by_definition >= 200, where
    assert sum(count >= 1 for count in peeled) >= 10


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_peel_computes_homology_once_per_block(p, monkeypatch):
    """Counts work: within one call of `invariant_part` or `_repair`,
    `relative_homology` runs at most once per block.  The fields are random
    gradient fields on a 4 x 4 grid after six random splits and merges, the
    peels are of the whole grid, of a random subset, and the repairs after
    the moves of `_moves`.  The same call with every pop deciding its block
    afresh (`dynamics.cache` undone) gives the same set, and runs some
    block's homology twice in at least three calls of each peel."""
    runs = Counter()
    homology = mvfields.relative_homology

    def counted(cx, pset, eset, q):
        runs[pset - eset] += 1
        return homology(cx, pset, eset, q)

    def most_runs(peel, *args):
        """`peel(*args)` and the most homology runs of one block in it."""
        runs.clear()
        return peel(*args), max(runs.values(), default=0)

    monkeypatch.setattr(mvfields, "relative_homology", counted)
    rng = random.Random(90 + p)
    repeated = Counter()
    for tries in itertools.count(1):
        if min(repeated[invariant_part], repeated[_repair]) >= 3:
            break
        assert tries <= 60, f"peels that decide a block twice in {tries - 1} fields: {repeated}"
        fld = random_gradient_field(rng, grid_complex(4))
        for _ in range(6):
            fld = rng.choice([random_refinement, random_coarsening])(rng, fld) or fld
        subset = invariant_part(fld, fld.cx.simplices, p)
        peels = [(invariant_part, fld, fld.cx.simplices, p),
                 (invariant_part, fld, random_subset(rng, fld.cx.simplices), p)]
        peels += [(_repair, nxt, subset, classify_rearrangement(fld, nxt), p)
                  for nxt in _moves(rng, fld, subset, p)]
        for peel in peels:
            result, most = most_runs(*peel)
            with monkeypatch.context() as undone:
                undone.setattr(dynamics, "cache", lambda decide: decide)
                again, most_undone = most_runs(*peel)
            assert most <= 1 and again == result
            repeated[peel[0]] += most_undone > 1


def _flow_down_a_path(n):
    """The path 0 - 1 - ... - n with a gradient field flowing to vertex 0:
    vertex i is paired with the edge below it for 0 < i < n, and vertex 0,
    vertex n and the top edge (n - 1, n) are critical singletons."""
    cx = mv.Complex.from_maximal([(i, i + 1) for i in range(n)])
    pairs = [[(i,), (i - 1, i)] for i in range(1, n)]
    return cx, MultivectorField.from_parts(cx, pairs, complete_singletons=True)


def test_dynamics_on_a_long_path():
    """About 20,000 simplices in one chain of blocks: the peel and the
    reachability walk must not recurse."""
    n = 10_000
    cx, fld = _flow_down_a_path(n)
    assert len(cx) == 2 * n + 1
    top = (n - 1, n)
    below_top = cx.simplices - {top, (n,)}
    assert invariant_part(fld, cx.simplices) == cx.simplices
    assert invariant_part(fld, cx.simplices - {top}) == {(0,), (n,)}
    assert invariant_part(fld, below_top) == {(0,)}
    assert push_forward(fld, {top}, cx.simplices) == cx.simplices
    assert push_forward(fld, {(n - 1,)}, cx.simplices) == below_top
    assert isolates(fld, cx.simplices, {top})
    assert not isolates(fld, cx.simplices, {top, (0,)})


def test_is_invariant(triangle):
    singles = singleton_field(triangle)
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
    singles = singleton_field(triangle)
    assert not isolates(singles, frozenset({(0, 1)}), frozenset({(0, 1)}))


def test_push_forward(triangle):
    singles = singleton_field(triangle)
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
    singles = singleton_field(triangle)
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


@pytest.mark.parametrize("p", [2, 3])
def test_isolated_exactly_when_the_canonical_pair_is_an_index_pair(p):
    """S is an isolated invariant set exactly when (cl S, mouth S) passes the
    index-pair conditions for S: tracking checks the seed once and then only
    validates each step's closing pair."""
    rng = random.Random(60 + p)
    isolated = non_convex = non_compatible = non_invariant = 0
    for _ in range(300):
        cx = random_complex(rng, max_size=14)
        fld = random_field(rng, cx)
        for subset in (random_subset(rng, cx.simplices), random_convex_compatible(rng, fld),
                       invariant_part(fld, random_subset(rng, cx.simplices), p),
                       invariant_part(fld, random_convex_compatible(rng, fld), p)):
            expected = is_isolated_invariant_set(fld, subset, p)
            report = validate_index_pair(fld, cx.closure(subset), cx.mouth(subset), subset, p)
            assert bool(report) == expected
            isolated += expected and bool(subset)
            non_convex += not cx.is_convex(subset)
            non_compatible += not fld.is_compatible(subset)
            non_invariant += not is_invariant(fld, subset, p)
    assert isolated >= 600
    assert min(non_convex, non_compatible, non_invariant) >= 50, \
        (non_convex, non_compatible, non_invariant)


@pytest.mark.parametrize("p", [2, 3])
def test_index_pair_in_a_closed_superset_is_an_index_pair(p):
    """With P inside N, passing the conditions inside N implies passing them
    inside P: the adjacency step checks its push-forward pairs only in N."""
    rng = random.Random(70 + p)
    passed = 0
    for _ in range(100):
        cx = random_complex(rng, max_size=12)
        fld = random_field(rng, cx)
        subset = random_isolated_set(rng, fld, p)
        if subset is None:
            continue
        closed = closed_subsets(cx)
        for nbhd in (cx.simplices, cx.closure(subset),
                     cx.closure(subset | random_subset(rng, cx.simplices, max_size=4))):
            pairs = [IndexPair(push_forward(fld, cx.closure(subset), nbhd),
                               push_forward(fld, cx.mouth(subset), nbhd))]
            inside = [c for c in closed if c <= nbhd]
            for _ in range(10):
                pset = rng.choice(inside)
                pairs.append(IndexPair(pset, rng.choice([c for c in inside if c <= pset])))
            for pair in pairs:
                if validate_index_pair_in_n(fld, pair.P, pair.E, nbhd, subset, p):
                    assert validate_index_pair(fld, pair.P, pair.E, subset, p)
                    passed += 1
    assert passed >= 400


def test_index_pair_in_n(merging_saddles):
    fld = merging_saddles.fields[0]
    cx = merging_saddles.cx
    seed = merging_saddles.seed
    pair = canonical_index_pair(fld, seed)
    # any index pair is an index pair inside its own first component
    assert validate_index_pair_in_n(fld, pair.P, pair.E, pair.P, seed)


@pytest.mark.parametrize("p", [2, 3])
def test_pair_checks_match_the_oracle_and_name_the_least_offender(p):
    """On random (P, E, N, S), with N = P about half the time, the conditions
    `validate_index_pair_in_n` reports failed are those `oracle_pair_problems`
    finds; each image message names the least offending simplex, found from
    `fmap` by brute force; and `isolates` agrees with `oracle_isolates` on
    every closed N."""
    rng = random.Random(80 + p)
    kinds = {"not closed": "closedness", "escapes": "images", "exit simplex": "exits",
             "outside P": "re-entry", "invariant part": "invariant part"}
    seen = Counter()
    for _ in range(3000):
        if min(seen[k] for k in ("images", "exits", "re-entry", "invariant part")) >= 50:
            break
        cx = random_complex(rng, max_size=14)
        fld = random_field(rng, cx)
        pset = random_subset(rng, cx.simplices, max_size=8)
        if rng.random() < 0.9:
            pset = cx.closure(pset)
        eset = random_subset(rng, pset)
        if rng.random() < 0.7:
            eset = cx.closure(eset) & pset
        nbhd = pset
        if rng.random() < 0.5:
            nbhd = pset | random_subset(rng, cx.simplices, max_size=6)
            if rng.random() < 0.9:
                nbhd = cx.closure(nbhd)
        subset = scc_invariant_part(fld, pset - eset, p)
        if rng.random() < 0.4:
            subset = scc_invariant_part(fld, random_subset(rng, cx.simplices), p)
        pair = IndexPair(pset, eset)
        problems = validate_index_pair_in_n(fld, pset, eset, nbhd, subset, p).problems
        found = {name for text in problems for key, name in kinds.items() if key in text}
        assert found == set(oracle_pair_problems(fld, pair, subset, p, nbhd)), problems
        seen.update(found)

        n = "P" if nbhd == pset else "N"
        expected = []
        bad = [s for s in pset - eset if not fld.fmap(s) <= nbhd]
        if bad:
            expected.append(f"image of {min(bad)} escapes {n}")
        bad = [s for s in eset if not fld.fmap(s) & nbhd <= eset]
        if bad:
            expected.append(f"image of exit simplex {min(bad)} re-enters {n} outside E")
        bad = [s for s in pset if not fld.fmap(s) & nbhd <= pset]
        if bad and n == "N":
            expected.append(f"image of {min(bad)} re-enters N outside P")
        assert [m for m in problems if m.startswith("image")] == expected

        if cx.is_closed(nbhd):
            for s in (subset, pset - eset):
                isolated = isolates(fld, nbhd, s, p)
                assert isolated == oracle_isolates(fld, nbhd, s)
                seen["isolates"] += isolated
    assert min(seen[k] for k in ("images", "exits", "re-entry", "invariant part")) >= 50, seen
    assert seen["closedness"] >= 50 and seen["isolates"] >= 50, seen


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
