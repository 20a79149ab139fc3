import json
import random
from pathlib import Path

import pytest

import mvtrack as mv
from mvtrack import cli, io, zigzag
from mvtrack.cli import main
from mvtrack.dynamics import IndexPair
from mvtrack.zigzag import (BACKWARD, FORWARD, Bar, PairTag, PairZigzag, homology_module,
                            interval_multiplicities, pair_zigzag_barcode)

from helpers import (bars_in_dim, dense_arrows, induced_map_rank, is_full, oracle_multiplicities,
                     per_position_barcode, random_complex, random_field, random_isolated_set,
                     random_module, closed_subsets, sparse_arrows, windowed_multiplicities)

SWAP = {FORWARD: BACKWARD, BACKWARD: FORWARD}


def test_bar_validation():
    with pytest.raises(ValueError):
        Bar(1, 3, 2)


def test_pair_zigzag_checks_inclusions(triangle):
    a = IndexPair(triangle.closure({(0, 1)}), frozenset({(0,)}))
    b = IndexPair(triangle.simplices, frozenset({(0,)}))
    zz = PairZigzag(triangle, [a, b])
    assert zz.directions == [FORWARD]
    c = IndexPair(triangle.closure({(1, 2)}), frozenset())
    with pytest.raises(ValueError):
        PairZigzag(triangle, [a, c])


def test_interval_multiplicities_hand_cases():
    ident = [{0: 1}]
    zero = [{}]
    # F --id--> F : one bar across
    assert interval_multiplicities([1, 1], [(FORWARD, ident)]) == {(0, 1): 1}
    # F <--0-- F : two singleton bars
    assert interval_multiplicities([1, 1], [(BACKWARD, zero)]) == {(0, 0): 1, (1, 1): 1}
    # a coefficient that is 0 mod p is the zero map
    assert interval_multiplicities([1, 1], [(BACKWARD, [{0: 3}])], 3) \
        == {(0, 0): 1, (1, 1): 1}
    # F --(1,0)--> F^2 <--(0,1)-- F : bars [0,1] and [1,2]
    left = [{0: 1}]
    right = [{1: 1}]
    out = interval_multiplicities([1, 2, 1], [(FORWARD, left), (BACKWARD, right)])
    assert out == {(0, 1): 1, (1, 2): 1}


def test_interval_multiplicities_against_hom_oracle():
    """Short modules against both oracles, Hom dimensions and windowed ranks;
    rank-deficient arrows (zero matrices, repeated columns) included."""
    rng = random.Random(40)
    for i in range(180):
        n = rng.randint(1, 5)
        p = (2, 3, 5)[i % 3]
        dims, arrows = random_module(rng, n, max_dim=3, p=p, degenerate=0.3)
        got = interval_multiplicities(dims, sparse_arrows(arrows), p)
        assert got == oracle_multiplicities(dims, arrows, p)
        assert got == windowed_multiplicities(dims, arrows, p)


def test_sweep_matches_windowed_oracle_on_long_modules():
    rng = random.Random(44)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        dims, arrows = random_module(rng, rng.randint(10, 30), max_dim=4, p=p,
                                     degenerate=0.3)
        assert interval_multiplicities(dims, sparse_arrows(arrows), p) \
            == windowed_multiplicities(dims, arrows, p)


def test_interval_multiplicities_rejects_malformed_modules():
    ident = [{0: 1}]
    with pytest.raises(ValueError, match="arrows"):
        interval_multiplicities([1, 1, 1], [(FORWARD, ident)])
    with pytest.raises(ValueError, match="direction"):
        interval_multiplicities([1, 1], [("sideways", ident)])
    # f: V_0 -> V_1 has dims[0] columns with rows below dims[1]; g: V_1 -> V_0
    # has dims[1] columns with rows below dims[0]
    with pytest.raises(ValueError, match="columns"):
        interval_multiplicities([1, 2], [(FORWARD, [{0: 1}, {1: 1}])])
    with pytest.raises(ValueError, match="columns"):
        interval_multiplicities([1, 2], [(BACKWARD, [{0: 1}])])
    with pytest.raises(ValueError, match="row"):
        interval_multiplicities([1, 2], [(FORWARD, [{2: 1}])])
    with pytest.raises(ValueError, match="row"):
        interval_multiplicities([1, 2], [(BACKWARD, [{0: 1}, {1: 1}])])
    with pytest.raises(ValueError, match="row"):
        interval_multiplicities([2, 1], [(FORWARD, [{-1: 1}, {0: 1}])])


def _reversed_module(dims, arrows):
    return dims[::-1], [(SWAP[direction], mat) for direction, mat in reversed(arrows)]


def test_reversing_a_module_mirrors_its_intervals():
    rng = random.Random(45)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 12)
        dims, arrows = random_module(rng, n, max_dim=3, p=p, degenerate=0.3)
        arrows = sparse_arrows(arrows)
        mirrored = {(n - 1 - d, n - 1 - b): m
                    for (b, d), m in interval_multiplicities(dims, arrows, p).items()}
        assert interval_multiplicities(*_reversed_module(dims, arrows), p) == mirrored


def _with_identities(rng, dims, arrows):
    """The module with some positions repeated, each copy joined to the
    original by a forward identity arrow, and the indices of those arrows."""
    out_dims, out_arrows, identities = [], [], []
    for i, dim in enumerate(dims):
        if i:
            out_arrows.append(arrows[i - 1])
        out_dims.append(dim)
        while rng.random() < 0.4:
            identities.append(len(out_arrows))
            out_arrows.append((FORWARD, [{r: 1} for r in range(dim)]))
            out_dims.append(dim)
    return out_dims, out_arrows, identities


def test_flipping_identity_arrows_keeps_the_intervals():
    """An identity arrow between equal positions gives the same interval
    decomposition pointing either way, so a zigzag may infer its direction."""
    rng = random.Random(47)
    flipped = 0
    for trial in range(150):
        p = (2, 3)[trial % 2]
        dims, arrows = random_module(rng, rng.randint(1, 8), max_dim=3, p=p, degenerate=0.3)
        dims, arrows, identities = _with_identities(rng, dims, sparse_arrows(arrows))
        expected = interval_multiplicities(dims, arrows, p)
        for _ in range(3):
            flips = [i for i in identities if rng.random() < 0.5]
            turned = list(arrows)
            for i in flips:
                turned[i] = (BACKWARD, arrows[i][1])
            assert interval_multiplicities(dims, turned, p) == expected
            flipped += bool(flips) and bool(dims[flips[0]])
    assert flipped >= 100


def _mirrored_bars(zz, p):
    n = len(zz)
    rev = PairZigzag(zz.cx, zz.pairs[::-1])
    bars = sorted((b.dim, b.birth, b.death) for b in pair_zigzag_barcode(rev, p).bars)
    return sorted((k, n + 1 - d, n + 1 - b) for k, b, d in bars)


def test_reversing_a_pair_zigzag_mirrors_its_barcode(merging_saddles, nine_fields):
    rng = random.Random(46)
    zigzags = [mv.run_protocol(scene.fields, scene.seed).zigzag
               for scene in (merging_saddles, nine_fields)]
    tries = 0
    while len(zigzags) < 14:
        tries += 1
        assert tries <= 120, f"{len(zigzags)} of 14 zigzags in {tries - 1} attempts"
        cx = random_complex(rng, n_vertices=5, n_maximal=3, max_dim=2, max_size=12)
        closed = closed_subsets(cx)
        pairs = [_random_pair(rng, closed)]
        for _ in range(rng.randint(1, 6)):
            nxt = _random_adjacent_pair(rng, closed, pairs[-1])
            if nxt is None:
                break
            pairs.append(nxt)
        zigzags.append(PairZigzag(cx, pairs))
    for zz in zigzags:
        for p in (2, 3):
            bars = [(b.dim, b.birth, b.death) for b in pair_zigzag_barcode(zz, p).bars]
            assert _mirrored_bars(zz, p) == sorted(bars)


def test_constant_zigzag_full_barcode(repeller_disk):
    cx = repeller_disk.cx
    center = repeller_disk.seed
    pair = IndexPair(cx.closure(center), cx.mouth(center))
    zz = PairZigzag(cx, [pair] * 4)
    barcode = pair_zigzag_barcode(zz)
    assert is_full(barcode)
    assert [(b.dim, b.birth, b.death) for b in barcode.bars] == [(2, 1, 4)]


def test_pairs_in_n_intersection_barcode(repeller_disk):
    """Intersecting two index pairs inside a common isolating set keeps the
    static homology: a single full bar in the top dimension."""
    cx = repeller_disk.cx
    every = cx.simplices
    outer = frozenset({(4,), (5,), (6,), (4, 5), (5, 6), (4, 6)})
    e2 = outer | {(2,), (2, 4), (2, 5), (2, 4, 5)}
    e3 = outer | {(3,), (3, 5), (3, 6), (3, 5, 6)}
    zz = PairZigzag(cx, [IndexPair(every, e2), IndexPair(every, e2 & e3),
                         IndexPair(every, e3)])
    barcode = pair_zigzag_barcode(zz)
    assert [(b.dim, b.birth, b.death) for b in barcode.bars] == [(2, 1, 3)]


def test_naive_intersection_barcode_is_erratic(repeller_disk):
    """Raw intersection of two plain index pairs: the ends do not join."""
    cx = repeller_disk.cx
    center = next(iter(repeller_disk.seed))
    left_p = cx.closure({center}) | {(1, 2, 4), (1, 4), (2, 4), (4,)}
    left = IndexPair(left_p, left_p - {center, (1, 2), (1, 2, 4)})
    right_p = cx.closure({center}) | {(1, 3, 6), (1, 6), (3, 6), (6,)}
    right = IndexPair(right_p, right_p - {center, (1, 3), (1, 3, 6)})
    meet = IndexPair(left.P & right.P, left.E & right.E)
    fld = repeller_disk.fields[0]
    assert mv.validate_index_pair(fld, left.P, left.E, repeller_disk.seed)
    assert mv.validate_index_pair(fld, right.P, right.E, repeller_disk.seed)
    assert not mv.validate_index_pair(fld, meet.P, meet.E,
                                      mv.invariant_part(fld, meet.body))
    barcode = pair_zigzag_barcode(PairZigzag(cx, [left, meet, right]))
    assert not is_full(barcode)
    assert [(b.birth, b.death) for b in bars_in_dim(barcode, 2)] == [(1, 1), (3, 3)]
    assert [(b.birth, b.death) for b in bars_in_dim(barcode, 1)] == [(2, 2)]
    # pairs with disjoint bodies: the induced map vanishes in every dimension
    assert induced_map_rank(cx, meet, left, FORWARD) == (0, 0, 0)


def _zigzag_doc(zz):
    """A zigzag file holding the pairs of `zz` in full, one entry per position."""
    cx = zz.cx
    return {"maximal_simplices": [list(s) for s in cx.sorted_simplices() if not cx.cofacets(s)],
            "pairs": [{"p": [list(s) for s in sorted(pr.P)], "e": [list(s) for s in sorted(pr.E)]}
                      for pr in zz.pairs]}


def test_barcode_parses_and_checks_each_distinct_set_once(nine_fields, tmp_path, monkeypatch,
                                                          capsys):
    """Counts work, not time, on the tracked saddle_collision_nine zigzag
    written out position by position and read back by `barcode`: one parse per
    distinct array, and one closedness check per distinct set in the loader
    and in `PairZigzag`, none in `homology_module`."""
    tracked = mv.run_protocol(nine_fields.fields, nine_fields.seed).zigzag
    doc = _zigzag_doc(tracked)
    path = tmp_path / "zz.json"
    path.write_text(json.dumps(doc))
    arrays = {json.dumps(pr[key]) for pr in doc["pairs"] for key in ("p", "e")}
    sets = {part for pr in tracked.pairs for part in (pr.P, pr.E)}
    assert len(doc["pairs"]) > 2 * len(arrays)
    bars = pair_zigzag_barcode(PairZigzag(tracked.cx, tracked.pairs))

    phase = ["loader"]
    closed_calls = {"loader": [], "PairZigzag": [], "homology_module": []}
    parses = []

    def during(name, fn):
        def wrapped(*args, **kwargs):
            outer, phase[0] = phase[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = outer
        return wrapped

    def is_closed(cx, subset):
        closed_calls[phase[0]].append(frozenset(subset))
        return original_is_closed(cx, subset)

    def parse_plain(raw, labels):
        parses.append(raw)
        return original_parse_plain(raw, labels)

    original_is_closed, original_parse_plain = mv.Complex.is_closed, io._parse_plain
    monkeypatch.setattr(mv.Complex, "is_closed", is_closed)
    monkeypatch.setattr(io, "_parse_plain", parse_plain)
    monkeypatch.setattr(PairZigzag, "__init__", during("PairZigzag", PairZigzag.__init__))
    monkeypatch.setattr(zigzag, "homology_module",
                        during("homology_module", zigzag.homology_module))
    assert main(["barcode", str(path)]) == 0
    assert capsys.readouterr().out == cli.barcode_text(bars) + "\n"
    assert len(parses) == len(arrays) + 1
    for name in ("loader", "PairZigzag"):
        assert sorted(map(sorted, closed_calls[name])) == sorted(map(sorted, sets)), name
    assert closed_calls["homology_module"] == []


def test_pair_zigzag_interns_equal_pairs(nine_fields):
    zz = mv.run_protocol(nine_fields.fields, nine_fields.seed).zigzag
    loaded, _ = io.zigzag_from_dict(_zigzag_doc(zz))
    for one in (zz, loaded):
        assert isinstance(one.pairs, tuple) and len(one.pairs) == len(zz)
        assert len(set(one.distinct)) == len(one.distinct) < len(one.pairs)
        assert all(pr is one.distinct[j] for pr, j in zip(one.pairs, one.at))
        assert list(dict.fromkeys(one.at)) == list(range(len(one.distinct)))
    assert loaded.pairs == zz.pairs and loaded.at == zz.at


def test_pair_zigzag_rejects_bad_pairs_at_their_first_position(triangle):
    good = IndexPair(triangle.closure({(0, 1)}), frozenset({(0,)}))
    open_p = IndexPair(frozenset({(0, 1), (0,)}), frozenset({(0,)}))
    open_e = IndexPair(triangle.closure({(0, 1)}), frozenset({(0, 1), (0,)}))
    outside = IndexPair(frozenset({(0,), (7,)}), frozenset())
    for bad, message in ((open_p, "P is not closed"), (open_e, "E is not closed"),
                         (outside, "simplex (7,) not in complex")):
        copy = IndexPair(frozenset(list(bad.P)), frozenset(list(bad.E)))
        with pytest.raises(ValueError) as exc:
            PairZigzag(triangle, [good, good, copy, good, bad])
        assert str(exc.value) == f"pair 3: {message}"


def _random_pair_sequences(rng, count):
    """`count` random sequences of two or more adjacent pairs, each with its complex."""
    done = 0
    tries = 0
    while done < count:
        tries += 1
        assert tries <= 10 * count, \
            f"{done} of {count} zigzags of two or more pairs in {tries - 1} attempts"
        cx = random_complex(rng, n_vertices=5, n_maximal=3, max_dim=2, max_size=12)
        closed = closed_subsets(cx)
        pairs = [_random_pair(rng, closed)]
        for _ in range(rng.randint(1, 4)):
            nxt = _random_adjacent_pair(rng, closed, pairs[-1])
            if nxt is None:
                break
            pairs.append(nxt)
        if len(pairs) >= 2:
            done += 1
            yield cx, pairs


def test_module_extraction_matches_oracle_on_real_zigzags():
    for cx, pairs in _random_pair_sequences(random.Random(41), 12):
        _, _, modules = homology_module(PairZigzag(cx, pairs), 2)
        for dims, arrows in modules:
            assert interval_multiplicities(dims, arrows, 2) \
                == oracle_multiplicities(dims, dense_arrows(dims, arrows), 2)


def test_shared_and_copied_pairs_give_one_barcode():
    """Up and back again, once sharing each pair object and once with equal
    copies: one interned pair per distinct pair, and the same bars."""
    for cx, pairs in _random_pair_sequences(random.Random(41), 12):
        shared = pairs + pairs[-2::-1]
        copies = [IndexPair(frozenset(list(pr.P)), frozenset(list(pr.E))) for pr in shared]
        assert not any(a is b for a, b in zip(shared, copies))
        zigzags = [PairZigzag(cx, seq) for seq in (shared, copies)]
        assert zigzags[0].at == zigzags[1].at
        assert len(zigzags[1].distinct) == len(set(pairs))
        for p in (2, 3):
            assert pair_zigzag_barcode(zigzags[0], p).bars \
                == pair_zigzag_barcode(zigzags[1], p).bars



@pytest.mark.parametrize("p", [2, 3])
def test_runs_give_the_per_position_barcode(p):
    """The sweep over runs of equal pairs against the sweep over every
    position: equal bars, Betti vectors per position and step maps.  Random
    nested pair sequences, forward, reversed, and up and back again, with
    each pair repeated one to four times in place."""
    rng = random.Random(48 + p)
    repeats = 0
    for cx, pairs in _random_pair_sequences(rng, 12):
        for seq in (pairs, pairs[::-1], pairs + pairs[-2::-1]):
            repeated = [pr for pr in seq for _ in range(rng.randint(1, 4))]
            repeats += len(repeated) - len(seq)
            tags = [PairTag(i // 2 + 1, "canonical") for i in range(len(repeated))]
            for zz in (PairZigzag(cx, repeated), PairZigzag(cx, repeated, tags)):
                assert pair_zigzag_barcode(zz, p) == per_position_barcode(zz, p)
    assert repeats >= 50


def _nesting(zz):
    """Each arrow of `zz` as subset tests on P and E find it."""
    return [FORWARD if a.P <= b.P and a.E <= b.E else BACKWARD
            for a, b in zip(zz.pairs, zz.pairs[1:])]


@pytest.mark.parametrize("p", [2, 3])
def test_equal_neighbours_point_forward_as_subset_tests_say(p):
    """`directions` are the arrows that subset tests find, on the tracked
    zigzag of every fixture scene, on both zigzag fixtures, and on the random
    sequences of test_runs_give_the_per_position_barcode (the same draws),
    where equal neighbours are one interned pair."""
    fixtures = Path(__file__).parent.parent / "fixtures"
    scenes = [io.load_scene(fixtures / f"{name}.json") for name in
              ("merging_saddles", "repeller_disk", "saddle_collision_nine", "unresolved_step")]
    zigzags = [mv.run_protocol(scene.fields, scene.seed).zigzag for scene in scenes]
    zigzags += [io.load_zigzag(fixtures / f"{name}.json")[0]
                for name in ("repeller_naive_intersection", "repeller_pairs_in_n")]
    rng = random.Random(48 + p)
    for cx, pairs in _random_pair_sequences(rng, 12):
        for seq in (pairs, pairs[::-1], pairs + pairs[-2::-1]):
            repeated = [pr for pr in seq for _ in range(rng.randint(1, 4))]
            zigzags.append(PairZigzag(cx, [IndexPair(pr.P, pr.E) for pr in repeated]))
    same = 0
    for zz in zigzags:
        assert zz.directions == _nesting(zz)
        same += sum(a is b for a, b in zip(zz.pairs, zz.pairs[1:]))
    assert same >= 100


def test_sweep_takes_one_position_per_run(repeller_disk, nine_fields, monkeypatch):
    """Counts work, not time: a zigzag of n equal pairs reaches
    `interval_multiplicities` as one position and builds one homology basis,
    and the tracked saddle_collision_nine zigzag reaches it with one position
    per run of equal pairs."""
    lengths, bases = [], []
    sweep, basis = zigzag.interval_multiplicities, zigzag.HomologyBasis

    def counted_sweep(dims, arrows, p=2):
        lengths.append(len(dims))
        return sweep(dims, arrows, p)

    def counted_basis(*args):
        bases.append(args)
        return basis(*args)

    monkeypatch.setattr(zigzag, "interval_multiplicities", counted_sweep)
    monkeypatch.setattr(zigzag, "HomologyBasis", counted_basis)
    cx = repeller_disk.cx
    pair = IndexPair(cx.closure(repeller_disk.seed), cx.mouth(repeller_disk.seed))
    for n in (1, 2, 7):
        lengths.clear()
        bases.clear()
        assert pair_zigzag_barcode(PairZigzag(cx, [pair] * n)).bars == [Bar(2, 1, n)]
        assert lengths == [1] and len(bases) == 1
    zz = mv.run_protocol(nine_fields.fields, nine_fields.seed).zigzag
    runs = 1 + sum(a != b for a, b in zip(zz.at, zz.at[1:]))
    lengths.clear()
    pair_zigzag_barcode(zz)
    assert lengths and set(lengths) == {runs} and runs < len(zz)


def _random_pair(rng, closed):
    pset = rng.choice(closed)
    eset = rng.choice([e for e in closed if e <= pset])
    return IndexPair(pset, eset)


def _random_adjacent_pair(rng, closed, prev):
    grow = rng.random() < 0.5
    candidates = []
    for pset in closed:
        if grow and not prev.P <= pset:
            continue
        if not grow and not pset <= prev.P:
            continue
        for eset in closed:
            if not eset <= pset:
                continue
            if grow and prev.E <= eset:
                candidates.append(IndexPair(pset, eset))
            if not grow and eset <= prev.E:
                candidates.append(IndexPair(pset, eset))
        if len(candidates) > 200:
            break
    return rng.choice(candidates) if candidates else None


def test_barcode_counts_match_betti(merging_saddles):
    trace = mv.run_protocol(merging_saddles.fields, merging_saddles.seed)
    barcode = trace.barcode
    for pos, betti in enumerate(barcode.betti_per_position, start=1):
        for dim, expected in enumerate(betti):
            covering = sum(1 for b in barcode.bars
                           if b.dim == dim and b.birth <= pos <= b.death)
            assert covering == expected


def test_induced_map_rank(merging_saddles):
    cx = merging_saddles.cx
    v1 = merging_saddles.fields[0]
    seed = merging_saddles.seed
    canonical = mv.canonical_index_pair(v1, seed)
    assert induced_map_rank(cx, canonical, canonical, FORWARD) == (0, 1, 0)
    bigger = IndexPair(mv.push_forward(v1, canonical.P, cx.simplices),
                       mv.push_forward(v1, canonical.E, cx.simplices))
    assert mv.validate_index_pair(v1, bigger.P, bigger.E, seed)
    # nested pairs for one invariant set: inclusion induces an isomorphism
    assert induced_map_rank(cx, canonical, bigger, FORWARD) == (0, 1, 0)
    with pytest.raises(ValueError):
        induced_map_rank(cx, canonical, bigger, BACKWARD)


def test_semi_equal_inclusions_induce_isomorphisms():
    """Nested index pairs for one set sharing P or sharing E."""
    rng = random.Random(42)
    done = 0
    tries = 0
    while done < 10:
        tries += 1
        assert tries <= 100, f"{done} of 10 grown index pairs in {tries - 1} attempts"
        cx = random_complex(rng, max_size=14)
        fld = random_field(rng, cx)
        if not mv.validate_field(fld):
            continue
        subset = random_isolated_set(rng, fld)
        if subset is None:
            continue
        canonical = mv.canonical_index_pair(fld, subset)
        pf_p = mv.push_forward(fld, canonical.P, cx.simplices)
        pf_e = mv.push_forward(fld, canonical.E, cx.simplices)
        grown = IndexPair(pf_p, pf_e)
        if not mv.validate_index_pair(fld, grown.P, grown.E, subset):
            continue
        betti = mv.relative_homology(cx, canonical.P, canonical.E)
        same_p = IndexPair(canonical.P, grown.E & canonical.P)
        if mv.validate_index_pair(fld, same_p.P, same_p.E, subset):
            assert induced_map_rank(cx, canonical, same_p, FORWARD) == betti
        same_e = IndexPair(canonical.P | grown.E, grown.E)
        if mv.validate_index_pair(fld, same_e.P, same_e.E, subset):
            assert induced_map_rank(cx, same_e, grown, FORWARD) == betti
        done += 1


@pytest.mark.parametrize("p", [2, 3])
def test_forward_back_forward_replay_barcode(nine_fields, p):
    """The 143-pair replay of saddle_collision_nine: forward, back, forward.

    The expected bars were computed with the windowed generalized-rank
    algorithm, which is too slow on this zigzag to recompute in the suite.
    """
    f = list(nine_fields.fields)
    trace = mv.run_protocol(f + f[-2::-1] + f[1:], nine_fields.seed, p)
    assert len(trace.zigzag) == 143
    assert [(b.dim, b.birth, b.death) for b in trace.barcode.bars] \
        == [(1, 1, 143), (1, 40, 143)]
