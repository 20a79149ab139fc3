import itertools
import random
from collections import Counter

import pytest

import mvtrack as mv
from mvtrack import dynamics, fields as mvfields
from mvtrack.complexes import _Closed
from mvtrack.dynamics import (IndexPair, _image, _peel, _repair, canonical_index_pair, invariant_part,
                              is_isolated_invariant_set, isolates, push_forward, validate_index_pair,
                              validate_index_pair_in_n)
from mvtrack.fields import MultivectorField, classify_rearrangement, intersect_fields

from helpers import (all_faces, bench_scenes, brute_invariant_part, closed_subsets,
                     closure_invariant_part, grid_complex, grid_scene, is_compatible,
                     mouth_is_convex,
                     oracle_isolates, oracle_pair_problems, random_coarsening, random_complex,
                     random_convex_compatible, random_field, random_gradient_field,
                     random_isolated_set, random_refinement, random_subset, scc_invariant_part,
                     singleton_field, small_runs, star, step_graph, strongly_connected_components)


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
        non_compatible += not is_compatible(fld, subset)
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
    gives the invariant part of a convex set S = Inv(X), as the full peel
    and the former reduction do, and on small complexes as the definition
    does; with moves inside, straddling and disjoint from S, and repairs
    that peel one block and ten.  S is convex, as the protocol's sets are.
    On small complexes X is random, and where Inv(X) is not convex, S is
    the invariant part of its vertices and edges, which no simplex lies
    between.  On grids X is the vertices and edges but a random half of the
    critical edges, so S is a union of descending paths, and a merge of a
    sink with a removed edge peels every path into it."""
    rng = random.Random(60 + p)
    where, peeled, by_definition = Counter(), [], 0

    def check(fld, subset, brute):
        nonlocal by_definition
        subset = invariant_part(fld, subset, p)
        if not fld.cx.is_convex(subset):
            subset = invariant_part(fld, {s for s in subset if len(s) <= 2}, p)
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
        check(random_field(rng, cx, merges=rng.randint(0, 4)), random_subset(rng, cx.simplices), True)
    assert max(peeled) >= 1
    tries = 0
    while max(peeled) < 10:
        tries += 1
        assert tries <= 60, f"no repair peeled ten blocks in {tries - 1} grid fields"
        fld = random_gradient_field(rng, grid_complex(8))
        saddles = [s for s in sorted(fld.cx.simplices) if len(s) == 2 and len(fld.part_of(s)) == 1]
        skeleton = {s for s in fld.cx.simplices if len(s) <= 2}
        check(fld, skeleton.difference(rng.sample(saddles, len(saddles) // 2)), False)
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
    assert invariant_part(singles, frozenset()) == frozenset()
    assert invariant_part(singles, frozenset({(0, 1, 2)})) == frozenset({(0, 1, 2)})
    arrow = MultivectorField.from_parts(triangle, [[(0,), (0, 1)]],
                                        complete_singletons=True)
    assert invariant_part(arrow, frozenset({(0,), (0, 1)})) != frozenset({(0,), (0, 1)})


def test_is_v_compatible(triangle):
    """The facet pass finds a set compatible iff it is a union of whole
    multivectors, as the oracle does."""
    fld = MultivectorField.from_parts(triangle, [[(0,), (0, 1)]],
                                      complete_singletons=True)
    for subset, compatible in ((frozenset(), True), ({(0,), (0, 1)}, True), ({(0,)}, False)):
        assert is_compatible(fld, subset) == compatible
        assert ("compatible" not in dynamics._facet_pass(fld, frozenset(subset))[0]) == compatible


def test_isolated_invariant_set(merging_saddles):
    fld = merging_saddles.fields[0]
    assert is_isolated_invariant_set(fld, merging_saddles.seed)
    # invariant and convex, but only half of a critical disconnected multivector
    cx = mv.Complex.from_maximal([[0, 1], [2, 3]])
    two_edges = MultivectorField.from_parts(cx, [[(0, 1), (2, 3)]],
                                            complete_singletons=True)
    half = frozenset({(0, 1)})
    assert invariant_part(two_edges, half) == half and cx.is_convex(half)
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
    with pytest.raises(ValueError, match="^push-forward seed must lie inside the ambient set$"):
        push_forward(singles, frozenset({(0, 1)}), frozenset({(0,)}))
    with pytest.raises(ValueError, match="^push-forward ambient set must be closed$"):
        push_forward(singles, frozenset({(0, 1)}), frozenset({(0, 1)}))


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


def test_a_closed_seed_pushes_forward_as_a_plain_one():
    """A seed tagged closed starts the push-forward from its multivectors
    only, and its image is itself plus its multivectors: both equal what the
    same seed gives untagged.  A push-forward inside a closed set is tagged
    closed, and is closed by a scan blind to the tag."""
    rng = random.Random(13)
    for _ in range(40):
        cx = random_complex(rng, max_size=14)
        fld = random_field(rng, cx)
        nbhd = cx.closure(random_subset(rng, cx.simplices))
        seed = cx.closure(random_subset(rng, nbhd))
        assert isinstance(seed, _Closed)
        pushed = push_forward(fld, seed, nbhd)
        assert isinstance(pushed, _Closed) and all_faces(pushed) <= pushed
        assert pushed == push_forward(fld, frozenset(seed), nbhd)
        assert _image(fld, seed) == _image(fld, frozenset(seed))


def _cascades(fld, subset, kept):
    """Does the peel of `subset` down to `kept` remove a block that has a live
    neighbour?  It does iff some removed block has a neighbouring block in
    `subset`: of the two, the one removed first had the other alive."""
    cx = fld.cx
    return any(t in subset and fld.mv_id(t) != fld.mv_id(s)
               for s in subset - kept for t in cx.closure_of(s) | star(cx, (s,)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_anchored_peel_decides_the_hull_test(p):
    """For an isolated invariant set S inside a convex set X, the peel seeded
    by the blocks of X \\ S gives Inv(X), as the full peel, the former
    reduction and, on small sets, the definition do.  So it decides
    Inv(X) == S, the hull test of cases d and f.  X is S plus a few random
    simplices, or the hull of that at random and where that is not convex,
    as the peel links blocks along facets.  The same holds under a merge of
    a multivector of S with one outside it, for X the hull of that X and the
    merged multivector under the merged field, seeded by its blocks of
    X \\ S: S' of cases d, f and g.  Each outcome of the hull test reaches
    a floor, as do the brute-force oracle, the merges whose S' differs from
    S, and the peels that remove a block with a live neighbour, within an
    attempt cap."""
    rng = random.Random(70 + p)
    outcomes, by_definition, changed, cascades = Counter(), Counter(), 0, 0
    small = {"hull test": 6, "S'": 5}  # the search grows with the cycles in a block

    def peeled(fld, big, seeds, what):
        """The anchored peel of `big`, checked against the oracles, and by
        definition on a small set."""
        nonlocal cascades
        anchored = _peel(fld, big, seeds, p)
        assert anchored == invariant_part(fld, big, p) == scc_invariant_part(fld, big, p)
        if len(big) <= small[what]:
            assert anchored == brute_invariant_part(fld, big, p)
            by_definition[what] += 1
        cascades += _cascades(fld, big, anchored)
        return anchored

    for tries in itertools.count(1):
        if (min(outcomes[True], outcomes[False]) >= 40 and by_definition["hull test"] >= 40
                and by_definition["S'"] >= 20 and changed >= 40 and cascades >= 40):
            break
        assert tries <= 600, (f"{outcomes}, {by_definition} by definition, {changed} changed, "
                              f"{cascades} cascades in {tries - 1} fields")
        if tries % 2:
            cx = random_complex(rng, n_vertices=5, n_maximal=3, max_dim=2, max_size=12)
            fld = random_field(rng, cx, merges=rng.randint(0, 4))
        else:
            fld = random_gradient_field(rng, grid_complex(4))
            for _ in range(4):
                fld = rng.choice([random_refinement, random_coarsening])(rng, fld) or fld
        current = random_isolated_set(rng, fld, p)
        if current is None:
            continue
        cx = fld.cx
        big = current | random_subset(rng, cx.simplices - current, max_size=4)
        if rng.random() < 0.5 or not cx.is_convex(big):
            big = mv.hull(fld, big)
        outcomes[peeled(fld, big, {fld.mv_id(s) for s in big - current}, "hull test") == current] += 1
        # S is compatible, so a multivector lies outside it iff its id does
        straddling = [(a, b) for a in sorted({fld.mv_id(s) for s in current})
                      for b in sorted({fld.mv_id(t) for s in fld.part(a)
                                       for t in cx.closure_of(s).union(cx.cofacets(s))} - current)
                      if cx.is_convex(fld.part(a) | fld.part(b))]
        if straddling:
            a, b = rng.choice(straddling)
            nxt = fld.merge(a, b)
            big = mv.hull(nxt, big | nxt.part_of(a))
            changed += peeled(nxt, big, {nxt.mv_id(s) for s in big - current}, "S'") != current


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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_isolated_exactly_when_the_canonical_pair_is_an_index_pair(p):
    """S is an isolated invariant set exactly when (cl S, mouth S) passes the
    index-pair conditions for S: tracking checks the seed once and then only
    validates each step's closing pair.  `isolation_faults` names exactly
    the conditions that independent checks find failed: convexity by the
    mouth, compatibility by the multivectors met, and, for a convex and
    compatible set only, invariance by the former SCC reduction."""
    rng = random.Random(60 + p)
    isolated, failed_checks, faults_seen = 0, Counter(), Counter()
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
            failed = [name for name, ok in (
                ("convex", mouth_is_convex(cx, subset)),
                ("compatible", frozenset().union(*map(fld.part_of, subset)) == subset),
                ("invariant", scc_invariant_part(fld, subset, p) == subset)) if not ok]
            failed_checks.update(failed)
            faults = dynamics.isolation_faults(fld, subset, p)
            assert faults == [f for f in failed if f != "invariant" or failed == ["invariant"]]
            assert expected == (not faults)
            faults_seen.update(faults)
    assert isolated >= 600
    assert min(failed_checks.values()) >= 50 and len(failed_checks) == 3, failed_checks
    assert faults_seen["invariant"] >= 40, faults_seen


def _oracle_faults(fld, subset, p):
    """The conditions of isolation that independent checks find failed:
    convexity by the mouth, compatibility by the multivectors met, and, of a
    convex and compatible set only, invariance by the former reduction."""
    failed = [name for name, ok in (
        ("convex", mouth_is_convex(fld.cx, subset)),
        ("compatible", frozenset().union(*map(fld.part_of, subset)) == subset)) if not ok]
    return failed or ["invariant"] * (scc_invariant_part(fld, subset, p) != subset)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_facet_pass_agrees_with_the_oracles(p):
    """`invariant_part`, which peels along facets in a convex set, gives the
    peel along every face (`closure_invariant_part`), the former reduction
    and, on small sets, the definition; `isolation_faults`, which decides
    all three conditions from one facet pass, names what `_oracle_faults`
    finds, and the pass's convexity is `Complex.is_convex`.  The sets are
    hulls (convex and compatible), locally closed sets, which are convex and
    mostly not compatible, and random sets, mostly not convex, on random
    complexes with tetrahedra and on grid fields.  Each kind, the
    tetrahedra and the definition reach a floor within an attempt cap."""
    rng = random.Random(80 + p)
    kinds, by_definition = Counter(), 0
    for tries in itertools.count(1):
        if len(kinds) == 5 and min(kinds.values()) >= 60 and by_definition >= 100:
            break
        assert tries <= 400, f"{kinds}, {by_definition} by definition in {tries - 1} fields"
        if tries % 3:
            cx = random_complex(rng, n_vertices=6, n_maximal=3, max_dim=3, max_size=30)
            fld = random_field(rng, cx, merges=rng.randint(0, 6))
        else:
            fld = random_gradient_field(rng, grid_complex(4))
            fld = rng.choice([random_refinement, random_coarsening])(rng, fld) or fld
            cx = fld.cx
        locally_closed = (cx.closure(random_subset(rng, cx.simplices, max_size=4))
                          - cx.closure(random_subset(rng, cx.simplices, max_size=4)))
        for subset in (random_convex_compatible(rng, fld), locally_closed,
                       random_subset(rng, cx.simplices, max_size=10)):
            inv = closure_invariant_part(fld, subset, p)
            assert invariant_part(fld, subset, p) == inv == scc_invariant_part(fld, subset, p)
            if len(subset) <= 6:  # the search grows with the cycles in a block
                assert inv == brute_invariant_part(fld, subset, p)
                by_definition += 1
            faults = dynamics.isolation_faults(fld, subset, p)
            assert faults == _oracle_faults(fld, subset, p)
            assert ("convex" not in dynamics._facet_pass(fld, subset)[0]) == cx.is_convex(subset)
            kinds[faults[0] if faults else "isolated"] += 1
            kinds["tetrahedra"] += any(len(s) == 4 for s in subset)


def test_a_set_that_is_not_convex_is_peeled_along_every_face():
    """In {vertex 0, edge 12, triangle 012, tetrahedron 0123}, with the
    triangle paired with the edge, the pair reaches vertex 0 only through
    the edges 01 and 02, which the set lacks.  Along facets the pair has no
    successor and is peeled; along every face it lies between the critical
    tetrahedron and the critical vertex, so the set is its own invariant
    part, as `invariant_part` and the oracles find."""
    fld = MultivectorField.from_parts(mv.Complex.from_maximal([(0, 1, 2, 3)]),
                                      [[(1, 2), (0, 1, 2)]], complete_singletons=True)
    subset = frozenset({(0,), (1, 2), (0, 1, 2), (0, 1, 2, 3)})
    faults, succ, pred = dynamics._facet_pass(fld, subset)
    assert faults == ["convex"] and not succ[(0, 1, 2)] and pred[(0, 1, 2)] == {(0, 1, 2, 3)}
    seeds = [b for b in succ if not succ[b] or not pred[b]]
    assert _peel(fld, subset, seeds, 2, (succ, pred)) == {(0,), (0, 1, 2, 3)}
    assert (invariant_part(fld, subset) == closure_invariant_part(fld, subset)
            == scc_invariant_part(fld, subset) == brute_invariant_part(fld, subset) == subset)


@pytest.mark.parametrize("p", [2, 3])
def test_isolation_faults_on_every_tenth_small_run(p):
    """Over every 10th two-field run on the closure of one triangle, the
    seed is isolated under the first field, and under the next
    `isolation_faults` names what `_oracle_faults` finds: a merge across
    the seed breaks compatibility, and a split or merge inside it can break
    invariance.  Each outcome reaches a floor."""
    seen = Counter()
    for fields, seed in small_runs(mv.Complex.from_maximal([(0, 1, 2)]), p, stride=10):
        assert dynamics.isolation_faults(fields[0], seed, p) == _oracle_faults(fields[0], seed, p) == []
        faults = dynamics.isolation_faults(fields[1], seed, p)
        assert faults == _oracle_faults(fields[1], seed, p)
        seen[tuple(faults)] += 1
    assert len(seen) == 3 and min(seen.values()) >= 100, seen


def test_the_seed_check_fills_no_face_table(tmp_path, monkeypatch):
    """Counts work, which machine speed cannot move: on the grid-index
    benchmark scene (seed 1), a fresh `isolation_faults` of the seed fills
    no closure, builds no cofacet table, and decides each block's
    criticality at most once."""
    scenes = bench_scenes()
    scenes.write_scene(scenes.grid_index(tmp_path), 1, tmp_path / "scene.json")
    scene = mv.load_scene(tmp_path / "scene.json")
    cx, decided = scene.cx, Counter()
    filled = len(cx._closure_of)
    assert cx._cofacets is None
    is_critical = MultivectorField.is_critical

    def counted(fld, ident, p=2):
        decided[ident] += 1
        return is_critical(fld, ident, p)

    monkeypatch.setattr(MultivectorField, "is_critical", counted)
    assert dynamics.isolation_faults(scene.fields[0], scene.seed) == []
    assert len(cx._closure_of) == filled and cx._cofacets is None
    assert decided and max(decided.values()) == 1


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
    # a pair whose E leaves P fails that condition, named once
    report = validate_index_pair_in_n(fld, pair.E, pair.P, cx.simplices, None)
    assert not report and report.problems.count("E is not a subset of P") == 1


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
                isolated = isolates(fld, nbhd, s)
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
