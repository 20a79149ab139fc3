import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mvtrack as mv
from mvtrack import cli, dynamics, fields as mvfields, tracking
from mvtrack.algebra import MAX_PRIME
from mvtrack.complexes import MAX_FACES
from mvtrack.cli import main
from mvtrack.io import (Scene, SchemaError, load_scene, load_zigzag, save_scene,
                        scene_from_dict, scene_to_dict, zigzag_from_dict)

from helpers import vertices

ROOT = Path(__file__).parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
SRC = ROOT / "src"
SCENES = ("merging_saddles", "repeller_disk", "saddle_collision_nine", "unresolved_step")
ZIGZAGS = ("repeller_naive_intersection", "repeller_pairs_in_n")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", str(FIXTURES / "merging_saddles.json"))
    assert code == 0
    assert "field 1: 43 multivectors - OK" in out
    assert "seed: 7 simplices - OK" in out


def test_validate_json_format(capsys):
    code, out = run(capsys, "validate", str(FIXTURES / "merging_saddles.json"),
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and len(doc["fields"]) == 3


def test_validate_rejects_non_convex_field(tmp_path, capsys):
    doc = {"maximal_simplices": [[0, 1, 2]],
           "fields": [[[[0], [0, 1, 2]]]],
           "seed": [[0, 1, 2]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert "not convex" in out


def test_validate_rejects_non_atomic_fields(tmp_path, capsys):
    doc = {"maximal_simplices": [[0, 1, 2]],
           "fields": [
               [[[0], [0, 1]], [[1], [1, 2]]],
               [[[0]], [[0, 1], [1], [1, 2]]]],
           "seed": [[0, 1, 2]]}
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert "not an atomic rearrangement" in out


def test_validate_rejects_empty_seed(tmp_path, capsys):
    doc = {"maximal_simplices": [[0, 1, 2]], "fields": [[]], "seed": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert "seed is empty" in out


def test_validate_rejects_incompatible_seed(tmp_path, capsys):
    doc = {"maximal_simplices": [[0, 1, 2]],
           "fields": [[[[0], [0, 1]]]],
           "seed": [[0]]}
    path = tmp_path / "incompatible.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert "union of multivectors" in out


SEED_PROBLEMS = {
    "not convex": ([], [[0], [0, 1, 2]], ["seed is not convex"]),
    "not compatible": ([[[0], [0, 1]]], [[0]],
                       ["seed is not a union of multivectors of field 1"]),
    "not invariant": ([[[0], [0, 1]]], [[0], [0, 1]], ["seed is not invariant under field 1"]),
    "both": ([[[0], [0, 1]]], [[0], [0, 1, 2]],
             ["seed is not convex", "seed is not a union of multivectors of field 1"]),
}


@pytest.mark.parametrize("fault", sorted(SEED_PROBLEMS))
def test_validate_names_each_seed_problem(fault, tmp_path, capsys):
    """The seed line and the JSON seed entry, in full, for a valid field."""
    field, seed, problems = SEED_PROBLEMS[fault]
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({"maximal_simplices": [[0, 1, 2]], "fields": [field],
                                "seed": seed}))
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert out.splitlines()[-1] == (f"seed: {len(seed)} simplices - FAIL: "
                                    + "; ".join(problems))
    code, out = run(capsys, "validate", str(path), "--format", "json")
    assert code == 2
    assert json.loads(out)["seed"] == {"size": len(seed), "ok": False, "problems": problems}


def test_conley_seed(capsys):
    code, out = run(capsys, "conley", str(FIXTURES / "merging_saddles.json"))
    assert code == 0
    assert "dimension 1: 1" in out


def test_conley_multivector_selector(capsys):
    code, out = run(capsys, "conley", str(FIXTURES / "merging_saddles.json"),
                    "mv:3:C,D,G", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == [0, 2, 0] and doc["isolated_invariant"]


def test_conley_set_selector(capsys):
    code, out = run(capsys, "conley", str(FIXTURES / "merging_saddles.json"),
                    "set:2:C,D,G;D,G,H;C,G;D,G;D,H", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == [0, 1, 0] and doc["field"] == 2


def test_conley_rejects_non_convex_selection(capsys):
    code, out = run(capsys, "conley", str(FIXTURES / "merging_saddles.json"),
                    "set:1:C,F,G")
    assert code == 2
    assert "not convex and compatible" in out


def test_conley_empty_set(tmp_path, capsys):
    doc = {"maximal_simplices": [[0, 1, 2]], "fields": [[]], "seed": []}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "conley", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["betti"] == [0, 0, 0]


def test_track_text_and_files(tmp_path, capsys):
    out_dir = tmp_path / "result"
    code, out = run(capsys, "track", str(FIXTURES / "merging_saddles.json"),
                    "--out", str(out_dir))
    assert code == 0
    assert "step 1: case a (refinement)" in out
    assert "step 2: case f (coarsening)" in out
    trace = json.loads((out_dir / "trace.json").read_text())
    assert [s["case"] for s in trace["steps"]] == ["a", "f"]
    barcode = json.loads((out_dir / "barcode.json").read_text())
    spans = {(b["dim"], b["birth_step"], b["death_step"]) for b in barcode["bars"]}
    assert spans == {(1, 1, 3), (1, 3, 3)}
    assert "Dimension: 1" in (out_dir / "barcode.txt").read_text()


def test_track_unresolved_exit_code(capsys):
    code, out = run(capsys, "track", str(FIXTURES / "unresolved_step.json"))
    assert code == 3
    assert "stopped: unresolved" in out
    code, out = run(capsys, "track", str(FIXTURES / "unresolved_step.json"),
                    "--heuristic-g")
    assert code == 0


def test_track_verbose_positions(capsys):
    code, out = run(capsys, "track", str(FIXTURES / "merging_saddles.json"),
                    "--verbose")
    assert code == 0
    assert "position 1: field 1 canonical" in out
    code, out = run(capsys, "validate", str(FIXTURES / "merging_saddles.json"),
                    "--verbose")
    assert code == 0
    assert "  multivector" in out


def test_track_deterministic_output(capsys):
    args = ("track", str(FIXTURES / "saddle_collision_nine.json"), "--format", "json")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_barcode_verb(capsys):
    code, out = run(capsys, "barcode", str(FIXTURES / "repeller_pairs_in_n.json"))
    assert code == 0
    assert out.splitlines() == ["Dimension: 2  |============|  positions 1-3"]
    code, out = run(capsys, "barcode", str(FIXTURES / "repeller_naive_intersection.json"),
                    "--format", "json")
    assert code == 0
    bars = {(b["dim"], b["birth"], b["death"]) for b in json.loads(out)["bars"]}
    assert bars == {(2, 1, 1), (1, 2, 2), (2, 3, 3)}


def test_rearrange_path(tmp_path, capsys):
    code, out = run(capsys, "rearrange-path", str(FIXTURES / "merging_saddles.json"),
                    "--out", str(tmp_path / "path.json"))
    assert code == 0
    scene = load_scene(tmp_path / "path.json")
    size = len(scene.cx)
    first, last = scene.fields[0], scene.fields[-1]
    expected = (size - len(first)) + (size - len(last)) + 1
    assert len(scene.fields) == expected
    for a, b in zip(scene.fields, scene.fields[1:]):
        mv.classify_rearrangement(a, b)


def test_rearrange_path_needs_two_fields(tmp_path, capsys):
    out = tmp_path / "path.json"
    code, text = run(capsys, "rearrange-path", str(FIXTURES / "repeller_disk.json"),
                     "--out", str(out))
    assert (code, text) == (2, "FAIL: need a scene with at least two fields\n")
    assert not out.exists()


def test_scene_round_trip(tmp_path):
    scene = load_scene(FIXTURES / "merging_saddles.json")
    save_scene(scene, tmp_path / "copy.json")
    again = load_scene(tmp_path / "copy.json")
    assert again.cx == scene.cx
    assert again.fields == scene.fields
    assert again.seed == scene.seed
    assert scene_to_dict(again) == scene_to_dict(scene)
    assert again.labels == scene.labels and len(scene.labels) == len(vertices(scene.cx))
    for s in scene.cx.sorted_simplices():
        assert again.format_simplex(s) == scene.format_simplex(s)
        assert [scene.labels[name] for name in scene.format_simplex(s).split(",")] == list(s)
    assert scene.label_of(max(vertices(scene.cx)) + 1) == str(max(vertices(scene.cx)) + 1)


def test_ops_and_explicit_fields_agree(tmp_path):
    by_ops = load_scene(FIXTURES / "saddle_collision_nine.json")
    explicit = scene_from_dict(scene_to_dict(by_ops))
    assert explicit.fields == by_ops.fields


def test_schema_errors_name_the_problem(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_scene(path)
    path.write_text(json.dumps({"maximal_simplices": [[0, 1]],
                                "fields": [[[[0], [7]]]], "seed": []}))
    with pytest.raises(SchemaError):
        load_scene(path)


def test_loader_fuzz_raises_schema_errors_only():
    import random
    rng = random.Random(55)
    base = json.loads((FIXTURES / "saddle_collision_nine.json").read_text())
    junk = [None, True, 3, "x", [], {}, [[]], [[[]]], [["a"]], {"op": "warp"},
            [[0, 0]], [[0, 99]], {"initial": 5}, {"ops": 5},
            {"op": "split", "off": [[1, 6], [3, 8]]},
            {"op": "merge", "mvs": [[1, 6]]},
            {"op": "merge", "mvs": [[1, 6], [1, 6]]}]
    spots = ["vertices", "maximal_simplices", "fields", "seed",
             "fields.initial", "fields.ops", "fields.ops.0"]
    for _ in range(250):
        doc = json.loads(json.dumps(base))
        spot = rng.choice(spots)
        value = rng.choice(junk)
        if spot == "fields.initial":
            doc["fields"]["initial"] = value
        elif spot == "fields.ops":
            doc["fields"]["ops"] = value
        elif spot == "fields.ops.0":
            doc["fields"]["ops"][0] = value
        else:
            doc[spot] = value
        try:
            scene_from_dict(doc)
        except SchemaError:
            pass


def test_zigzag_loader_checks_pairs(tmp_path):
    doc = {"maximal_simplices": [[0, 1]],
           "pairs": [{"p": [[0, 1]], "e": []}]}
    path = tmp_path / "zz.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_zigzag(path)


def test_field_char_flag(capsys):
    code, out = run(capsys, "conley", str(FIXTURES / "merging_saddles.json"),
                    "seed", "--field-char", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["betti"] == [0, 1, 0]
    with pytest.raises(SystemExit):
        main(["conley", str(FIXTURES / "merging_saddles.json"), "--field-char", "4"])


def test_field_char_beyond_int64_is_a_usage_error(capsys):
    """A prime at or above MAX_PRIME, where Miller-Rabin with the bases
    2..41 is no longer proven exact, is refused with the bound named."""
    with pytest.raises(SystemExit) as exc:
        main(["conley", str(FIXTURES / "merging_saddles.json"),
              "--field-char", "3317044064679887385962123"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"below {MAX_PRIME}" in err and "Traceback" not in err


def test_a_simplex_with_too_many_faces_is_refused(tmp_path, capsys):
    """A k-vertex simplex has 2^k - 1 faces.  `from_maximal` refuses one of 21
    vertices, past MAX_FACES, before it builds a face, so one of 30 vertices
    is refused at once, and every verb exits 2 with the bound named."""
    refused = f"the listed simplices have more than MAX_FACES = {MAX_FACES} faces"
    for k in (21, 30):
        with pytest.raises(ValueError, match=refused):
            mv.Complex.from_maximal([range(k)])
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"maximal_simplices": [list(range(30))], "fields": [[]],
                                "seed": [], "pairs": []}))
    for argv in (["validate"], ["conley"], ["track"], ["barcode"],
                 ["rearrange-path", "--out", str(tmp_path / "path.json")]):
        start = time.perf_counter()
        assert run(capsys, argv[0], str(path), *argv[1:]) == (
            2, f"FAIL: 'maximal_simplices': {refused}\n")
        assert time.perf_counter() - start < 1, argv


def test_track_at_a_large_prime_matches_p3(capsys):
    """No torsion in the fixtures, so every odd characteristic gives the same
    barcode; 2**64 + 13 is a prime above the int64 range."""
    for verb, names in (("track", SCENES), ("barcode", ZIGZAGS)):
        for name in names:
            path = str(FIXTURES / f"{name}.json")
            code_small, out_small = run(capsys, verb, path, "--field-char", "3")
            for p in (2 ** 61 - 1, 2 ** 64 + 13):
                assert run(capsys, verb, path, "--field-char", str(p)) == (code_small, out_small)


def test_track_runs_without_numpy():
    """numpy is a test-only dependency: `track` runs with it blocked."""
    golden = (GOLDEN / "saddle_collision_nine.track.p3.text.txt").read_text(encoding="utf-8")
    header = "exit 0\n--- stdout\n"
    assert golden.startswith(header)
    code = ("import sys; sys.modules['numpy'] = None; from mvtrack.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", code, "track", str(FIXTURES / "saddle_collision_nine.json"),
         "--field-char", "3"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden[len(header):]


def test_import_loads_no_introspection_modules():
    """Every verb runs in a fresh interpreter, so `import mvtrack` is paid per
    call: neither it nor the CLI loads `dataclasses` or what that pulls in.
    `-S` keeps the modules of `site`'s .pth files out of the count."""
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = ("import sys; heavy = " + repr(heavy) + "\n"
            "import mvtrack; print(*[m for m in heavy if m in sys.modules])\n"
            "import mvtrack.cli; print(*[m for m in heavy if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n\n"


@pytest.mark.parametrize("verb,kind", [(verb, kind) for verb in ("validate", "track", "barcode")
                                       for kind in ("missing", "directory", "latin-1")])
def test_unreadable_input_exits_2(tmp_path, capsys, verb, kind):
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes('{"maximal_simplices": [["\u00e9"]]}'.encode("latin-1"))
    code, out = run(capsys, verb, str(path))
    assert code == 2
    assert out.startswith("FAIL") and str(path) in out


@pytest.mark.parametrize("argv", [
    ("track", str(FIXTURES / "merging_saddles.json")),
    ("barcode", str(FIXTURES / "repeller_pairs_in_n.json")),
    ("rearrange-path", str(FIXTURES / "merging_saddles.json"))], ids=lambda argv: argv[0])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out = run(capsys, *argv, "--out", str(blocker / "sub"))
    assert code == 2
    assert out.startswith("FAIL: cannot write") and str(blocker) in out


def _nine_with_op(op, k=0):
    doc = json.loads((FIXTURES / "saddle_collision_nine.json").read_text())
    doc["fields"]["ops"][k] = op
    return doc


@pytest.mark.parametrize("op,message", [
    ({"op": "split", "off": [[1, 6], [3, 8]]}, "op 1: split pieces span several multivectors"),
    ({"op": "merge", "mvs": [[1, 6]]}, "op 1: merge needs exactly two member simplices")],
    ids=["split", "merge"])
def test_op_errors_are_prefixed_once(op, message):
    with pytest.raises(SchemaError) as exc:
        scene_from_dict(_nine_with_op(op))
    assert str(exc.value) == message


def test_split_with_empty_off_has_its_own_message():
    with pytest.raises(SchemaError) as exc:
        scene_from_dict(_nine_with_op({"op": "split", "off": []}))
    assert str(exc.value) == "op 1: split needs at least one simplex in 'off'"


def test_non_convex_merge_is_named_alike_in_ops_and_list_form():
    """Field 5 is checked only by the union its merge adds; the message is
    the one a check of every multivector gives."""
    message = "field 5: multivector [(2, 6, 7), (6,)] is not convex"
    with pytest.raises(SchemaError) as exc:
        scene_from_dict(_nine_with_op({"op": "merge", "mvs": [[6], [2, 6, 7]]}, k=3))
    assert str(exc.value) == message
    scene = load_scene(FIXTURES / "saddle_collision_nine.json")
    fld = scene.fields[3]
    fields = scene.fields[:4] + [fld.merge(fld.mv_id((6,)), fld.mv_id((2, 6, 7)))]
    with pytest.raises(SchemaError) as exc:
        scene_from_dict(scene_to_dict(Scene(scene.cx, fields, scene.seed)))
    assert str(exc.value) == message


def test_non_atomic_step_is_reported_after_convexity():
    """Step 1 -> 2 makes two merges at once.  A non-convex field 3 is still
    reported first; with a convex field 3 the non-atomic step is."""
    scene = load_scene(FIXTURES / "saddle_collision_nine.json")
    one = scene.fields[0]
    two = one.merge(one.mv_id((0,)), one.mv_id((0, 1))).merge(one.mv_id((4,)), one.mv_id((4, 9)))
    bad = two.merge(two.mv_id((6,)), two.mv_id((2, 6, 7)))
    good = two.merge(two.mv_id((1,)), two.mv_id((1, 2)))
    for three, message in (
            (bad, "field 3: multivector [(2, 6, 7), (6,), (6, 7)] is not convex"),
            (good, "fields 1 -> 2 are not an atomic rearrangement: "
                   "fields differ by 4 removed / 2 added multivectors")):
        with pytest.raises(SchemaError) as exc:
            scene_from_dict(scene_to_dict(Scene(scene.cx, [one, two, three], scene.seed)))
        assert str(exc.value) == message


@pytest.fixture
def convexity_calls(monkeypatch):
    """The argument of every Complex.is_convex call, in call order."""
    calls = []
    original = mv.Complex.is_convex

    def counted(cx, subset):
        calls.append(subset)
        return original(cx, subset)

    monkeypatch.setattr(mv.Complex, "is_convex", counted)
    return calls


@pytest.mark.parametrize("name", ["saddle_collision_nine", "merging_saddles"])
def test_loading_checks_each_atomic_step_once(name, convexity_calls, monkeypatch, capsys):
    """Counts work, not time: field 1 costs one convexity check per
    multivector and each atomic step at most two; later checks cost none."""
    path = FIXTURES / f"{name}.json"
    scene = load_scene(path)
    assert len(convexity_calls) <= len(scene.fields[0]) + 2 * (len(scene.fields) - 1)
    convexity_calls.clear()
    assert all(mv.validate_field(fld) for fld in scene.fields)
    assert convexity_calls == []

    def count(verb):
        convexity_calls.clear()
        verb()
        return len(convexity_calls)

    def verbs():
        return (count(lambda: mv.run_protocol(scene.fields, scene.seed)),
                count(lambda: run(capsys, "validate", str(path))))

    with_checks = verbs()

    def passed(fld):
        return mv.CheckReport(True)

    monkeypatch.setattr(tracking, "validate_field", passed)
    assert verbs() == with_checks


def test_rearrange_path_checks_every_field_in_full(tmp_path, convexity_calls, capsys):
    """Every part of two or more simplices of every field is checked; a
    singleton is convex by shape."""
    path = str(FIXTURES / "merging_saddles.json")
    scene = load_scene(path, check_atomic=False)
    in_full = sorted(sorted(part) for fld in scene.fields for part in fld.parts() if len(part) > 1)
    assert sorted(map(sorted, convexity_calls)) == in_full
    convexity_calls.clear()
    assert run(capsys, "rearrange-path", path, "--out", str(tmp_path / "path.json"))[0] == 0
    assert sorted(map(sorted, convexity_calls)) == in_full


def test_vertex_table_rejects_booleans():
    doc = {"vertices": {"A": True, "B": 2}, "maximal_simplices": [["A", "B"]],
           "fields": [[]], "seed": []}
    with pytest.raises(SchemaError, match="'vertices' must map labels to integer ids"):
        scene_from_dict(doc)


def test_zigzag_pair_errors_are_prefixed_once():
    doc = {"maximal_simplices": [[0, 1]], "pairs": [{"p": [[0, 1]], "e": []}]}
    with pytest.raises(SchemaError) as exc:
        zigzag_from_dict(doc)
    assert str(exc.value) == "pair 1: components must be closed"


# Malformed simplices and the loader's message for each, wherever the
# simplex appears: name -> (scene uses the label table, simplices, message).
LOADER_LABELS = {"A": 0, "B": 1, "C": 2}
MALFORMED_SIMPLICES = {
    "boolean": (False, [[0, True]], "bad vertex True"),
    "float": (False, [[0, 1.0]], "bad vertex 1.0"),
    "null": (False, [[0, None]], "bad vertex None"),
    "nested array": (False, [[0, [1]]], "bad vertex [1]"),
    "boolean among labels": (True, [["A", True]], "bad vertex True"),
    "unknown label": (True, [["A", "Z"]], "unknown vertex label 'Z'"),
    "label without a table": (False, [["A", 1]], "unknown vertex label 'A'"),
    "repeated id": (False, [[1, 1]], "repeated vertex 1 in simplex (1, 1)"),
    "repeated label": (True, [["B", "B"]], "repeated vertex 1 in simplex (1, 1)"),
    "label repeating an id": (True, [["A", 0]], "repeated vertex 0 in simplex (0, 0)"),
    "empty": (False, [[]], "a simplex must be a non-empty array, got []"),
    "not an array": (False, [5], "a simplex must be a non-empty array, got 5"),
    "first of two faults": (False, [[0, 1], [2, 2], [0, False]],
                            "repeated vertex 2 in simplex (2, 2)"),
    "first of two label faults": (True, [["A", "C"], ["C", 0.5], ["A", "A"]],
                                  "bad vertex 0.5"),
}
SIMPLEX_SPOTS = ["maximal", "field", "split", "merge", "seed", "pair p", "pair e"]


def _doc_with(spot, simplices, labelled):
    """A triangle scene, or zigzag file for the pair spots, with `simplices`
    placed at `spot`; returns the loader to call and the document."""
    tri = ["A", "B", "C"] if labelled else [0, 1, 2]
    doc = {"maximal_simplices": [tri], "fields": [[]], "seed": []}
    if labelled:
        doc["vertices"] = dict(LOADER_LABELS)
    if spot == "maximal":
        doc["maximal_simplices"] += simplices
    elif spot == "field":
        doc["fields"] = [[simplices]]
    elif spot == "split":
        doc["fields"] = {"initial": [], "ops": [{"op": "split", "off": simplices}]}
    elif spot == "merge":
        doc["fields"] = {"initial": [], "ops": [{"op": "merge", "mvs": simplices + [tri[:1]]}]}
    elif spot == "seed":
        doc["seed"] = simplices
    else:
        del doc["fields"], doc["seed"]
        pair = {"p": [tri], "e": []}
        pair[spot[-1]] = simplices + pair[spot[-1]]
        doc["pairs"] = [pair]
        return zigzag_from_dict, doc
    return scene_from_dict, doc


@pytest.mark.parametrize("spot", SIMPLEX_SPOTS)
def test_malformed_simplex_messages(spot):
    for case, (labelled, simplices, message) in MALFORMED_SIMPLICES.items():
        load, doc = _doc_with(spot, simplices, labelled)
        with pytest.raises(SchemaError) as exc:
            load(doc)
        assert str(exc.value) == message, case


def _outcome(load, doc):
    try:
        loaded = load(doc)
    except SchemaError as exc:
        return str(exc)
    if load is zigzag_from_dict:
        return [(pair.P, pair.E) for pair in loaded[0].pairs]
    return (loaded.cx, [fld.parts() for fld in loaded.fields], loaded.seed)


@pytest.mark.parametrize("spot,outcome", [
    ("maximal", None), ("field", None), ("merge", None), ("seed", None),
    ("split", "op 1: split piece must be a proper non-empty subset of the multivector"),
    ("pair p", "pair 1: components must be closed"),
    ("pair e", "pair 1: components must be closed")])
def test_mixed_ids_and_labels_load_as_ids(spot, outcome):
    mixed = _outcome(*_doc_with(spot, [["C", 0]], True))
    assert mixed == _outcome(*_doc_with(spot, [[2, 0]], True))
    assert isinstance(mixed, str) == (outcome is not None)
    if outcome is not None:
        assert mixed == outcome


def _barcode_of(tmp_path, capsys, doc):
    """`barcode` on a zigzag document: (exit code, stdout)."""
    path = tmp_path / "zz.json"
    path.write_text(json.dumps(doc))
    return run(capsys, "barcode", str(path))


# Pair 2 repeats pair 1's `p` or `e` under ==, with a token that is not an id.
LOOKALIKE_PAIRS = {
    "p boolean": ([[0, 1], [0], [1]], [[1]], [[0, True], [0], [1]], [[1]], "bad vertex True"),
    "p float": ([[0, 1], [0], [1]], [[1]], [[0, 1.0], [0], [1]], [[1]], "bad vertex 1.0"),
    "p boolean among labels": ([["A", 1], ["A"], [1]], [[1]], [["A", True], ["A"], [1]], [[1]],
                               "bad vertex True"),
    "e boolean": ([[0, 1], [0], [1]], [[1]], [[0, 1], [0], [1]], [[True]], "bad vertex True"),
    "e float": ([[0, 1], [0], [1]], [[1]], [[0, 1], [0], [1]], [[1.0]], "bad vertex 1.0"),
    "e boolean among labels": ([[0, 1], [0], [1]], [["A", 1], ["A"], [1]], [[0, 1], [0], [1]],
                               [["A", True], ["A"], [1]], "bad vertex True"),
}


@pytest.mark.parametrize("case", sorted(LOOKALIKE_PAIRS))
def test_repeated_arrays_are_not_reused_across_token_types(tmp_path, capsys, case):
    """A `p` or `e` array equal to an earlier one under ==, but holding a
    boolean or a float, fails as it does on its own."""
    p1, e1, p2, e2, message = LOOKALIKE_PAIRS[case]
    doc = {"vertices": dict(LOADER_LABELS), "maximal_simplices": [[0, 1, 2]],
           "pairs": [{"p": p1, "e": e1}, {"p": p2, "e": e2}]}
    assert p1 == p2 and e1 == e2
    with pytest.raises(SchemaError) as exc:
        zigzag_from_dict(doc)
    assert str(exc.value) == message
    assert _barcode_of(tmp_path, capsys, doc) == (2, f"FAIL: {message}\n")


# Zigzag files with several faults and the one named, as the loader named it
# before it parsed and checked each distinct array once.
MULTI_FAULT_ZIGZAGS = {
    "not nested, then not closed": (
        [{"p": [[0, 1], [0], [1]], "e": []}, {"p": [[1, 2], [1], [2]], "e": []},
         {"p": [[0, 1]], "e": []}],
        "pair 3: components must be closed"),
    "e outside the complex": (
        [{"p": [[0, 1], [0], [1]], "e": [[7]]}],
        "pair 1: simplex (7,) not in complex"),
    "not closed, then a bad vertex": (
        [{"p": [[0, 1]], "e": []}, {"p": [[0, True]], "e": []}],
        "pair 1: components must be closed"),
}


@pytest.mark.parametrize("case", sorted(MULTI_FAULT_ZIGZAGS))
def test_zigzag_loader_names_the_first_fault(tmp_path, capsys, case):
    pairs, message = MULTI_FAULT_ZIGZAGS[case]
    doc = {"maximal_simplices": [[0, 1, 2]], "pairs": pairs}
    with pytest.raises(SchemaError) as exc:
        zigzag_from_dict(doc)
    assert str(exc.value) == message
    assert _barcode_of(tmp_path, capsys, doc) == (2, f"FAIL: {message}\n")


def test_pairs_not_nested_are_named(tmp_path, capsys):
    edge = {"p": [[0, 1], [0], [1]], "e": []}
    other = {"p": [[1, 2], [1], [2]], "e": []}
    doc = {"maximal_simplices": [[0, 1, 2]], "pairs": [edge, edge, other, edge]}
    message = "pairs 2 and 3 are not nested either way"
    with pytest.raises(SchemaError) as exc:
        zigzag_from_dict(doc)
    assert str(exc.value) == message
    assert _barcode_of(tmp_path, capsys, doc) == (2, f"FAIL: {message}\n")


FUZZ_JUNK = [None, True, -1, 0, 3, 99, "x", "A", [], {}, [[]], [[0, 0]], [[0, 99]],
             {"op": "split", "off": []}, {"op": "merge", "mvs": [[1], [2]]}]
FUZZ_SELECTORS = ["seed", "", "mv:1:", "mv:0:1", "mv:x:1", "set:1:", "set:9:1", "warp:1:1",
                  "mv:1:1,1", "mv:1:A,B", "set:1:1;1,2", "set:2:0,1;1;0", "mv:2:0,1,5"]


def _fuzz_nodes(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _fuzz_nodes(child, path + (key,))


def _mutate(rng, doc):
    """Replace, renumber, delete or duplicate one random node of a JSON document."""
    path = rng.choice(list(_fuzz_nodes(doc))[1:])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    action = rng.randrange(4)
    if action == 0:
        parent[key] = rng.choice(FUZZ_JUNK)
    elif action == 1 and isinstance(value, int):
        parent[key] = rng.randint(-1, 10)
    elif action == 2:
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(value)))


def test_every_verb_survives_mutated_fixtures(tmp_path, capsys):
    """Mutated fixtures through `cli.main`: every verb exits 0, 2 or 3, with
    no traceback.  An exit 2 from conley, track or barcode prints exactly one
    `FAIL: ` line, and one from `validate --format json` a JSON document with
    "ok" false."""
    rng = random.Random(2024)
    docs = {name: json.loads((FIXTURES / f"{name}.json").read_text())
            for name in SCENES + ZIGZAGS}
    path = tmp_path / "case.json"
    for _ in range(120):
        name = rng.choice(sorted(docs))
        doc = json.loads(json.dumps(docs[name]))
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, doc)
        path.write_text(json.dumps(doc))
        if name in ZIGZAGS:
            calls = [("barcode",)]
        else:
            calls = [("validate",), ("validate", "--format", "json"),
                     ("conley", rng.choice(FUZZ_SELECTORS)), ("track",),
                     ("track", "--heuristic-g")]
        for call in calls:
            argv = [call[0], str(path), *call[1:], "--field-char", rng.choice(["2", "3"])]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr().out
            assert code in (0, 2, 3), (argv, doc)
            if code == 2 and "json" in call:
                assert json.loads(out)["ok"] is False, (argv, out)
            elif code == 2 and call[0] != "validate":
                lines = out.splitlines()
                assert len(lines) == 1 and lines[0].startswith("FAIL: "), (argv, out)


# Refusals a file reaches that no other test does: (verb, document, message),
# the message as the loader or the protocol raises it.
FILE_REFUSALS = {
    "scene not an object": ("validate", [[0, 1]], "scene must be a JSON object"),
    "no maximal simplices": ("validate", {"fields": [[]], "seed": []},
                             "missing 'maximal_simplices'"),
    "no simplex listed": ("validate", {"maximal_simplices": [], "fields": [[]], "seed": []},
                          "'maximal_simplices' must not be empty"),
    "zigzag not an object": ("barcode", [{"p": [], "e": []}], "zigzag file must be a JSON object"),
    "pair not an object": ("barcode", {"maximal_simplices": [[0, 1]],
                                       "pairs": [{"p": [[0]], "e": []}, [[0]]]},
                           "pair 2 must be an object with 'p' and 'e'"),
    "pair without e": ("barcode", {"maximal_simplices": [[0, 1]], "pairs": [{"p": [[0]]}]},
                       "pair 1 must be an object with 'p' and 'e'"),
    "empty seed": ("track", {"maximal_simplices": [[0, 1, 2]], "fields": [[]], "seed": []},
                   "tracking needs a nonempty seed"),
}


@pytest.mark.parametrize("case", sorted(FILE_REFUSALS))
def test_a_file_refusal_is_one_fail_line(tmp_path, capsys, case):
    """The loader refuses the document, or the protocol the scene it loads,
    with the message that the verb prints as its one line."""
    verb, doc, message = FILE_REFUSALS[case]
    load = zigzag_from_dict if verb == "barcode" else scene_from_dict
    with pytest.raises((SchemaError, mv.PreconditionError)) as exc:
        scene = load(doc)
        mv.run_protocol(scene.fields, scene.seed)
    assert str(exc.value) == message
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, verb, str(path)) == (2, f"FAIL: {message}\n")


@pytest.mark.parametrize("verb", ["validate", "track"])
def test_the_cli_module_runs_as_a_script(capsys, verb):
    """`python -m mvtrack.cli` prints what `cli.main` prints and exits with
    its code, 0 for a fixture and 2 for a file that is not there."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for path, code in ((FIXTURES / "merging_saddles.json", 0), (FIXTURES / "absent.json", 2)):
        proc = subprocess.run([sys.executable, "-m", "mvtrack.cli", verb, str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        expected = run(capsys, verb, str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (*expected, "")


# Malformed values for the property test below: JSON's kinds, ids in and out
# of range, labels, and the shapes of simplices, sets and records.
MALFORMED = [None, True, False, 0, 1, -1, 7, 1.0, 0.5, 1e300, "", "A", "x", "seed", [], [0],
             [[]], [[0]], [[0, 0]], [[0, 1]], [[0], [1]], {}, {"op": "split"},
             {"p": [], "e": []}]
VERBS = [("validate",), ("validate", "--format", "json"), ("conley", "seed"), ("track",),
         ("track", "--heuristic-g"), ("rearrange-path",)]


def _replace_at(doc, index: int, value):
    """`doc` with the node at `index`, in the order `_fuzz_nodes` lists the
    nodes below the root, replaced by `value`."""
    nodes = list(_fuzz_nodes(doc))[1:]
    *path, key = nodes[index % len(nodes)]
    parent = doc
    for step in path:
        parent = parent[step]
    parent[key] = json.loads(json.dumps(value))
    return doc


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(SCENES + ZIGZAGS),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from(MALFORMED)),
                min_size=1, max_size=2),
       st.sampled_from(VERBS), st.sampled_from(["2", "3"]))
def test_malformed_input_never_gives_a_traceback(tmp_path, capsys, name, edits, verb, p):
    """A fixture with one or two values replaced, at any path, by a malformed
    value: every verb, `barcode` on a zigzag, exits 0, 2 or 3 and raises
    nothing; an exit 2 prints one `FAIL: ` line, or for `validate` the seed
    line or, under `--format json`, a document with "ok" false."""
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    for index, value in edits:
        doc = _replace_at(doc, index, value)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    argv = ["barcode", str(path)] if name in ZIGZAGS else [verb[0], str(path), *verb[1:]]
    if argv[0] == "rearrange-path":
        argv += ["--out", str(tmp_path / "path.json")]
    else:
        argv += ["--field-char", p]
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code in (0, 2, 3), (argv, doc)
    if code == 2 and "json" in verb and argv[0] == "validate":
        assert json.loads("\n".join(lines))["ok"] is False
    elif code == 2 and argv[0] == "validate":
        assert len(lines) == 1 and lines[0].startswith("FAIL: ") or lines[-1].startswith("seed: ")
    elif code == 2:
        assert len(lines) == 1 and lines[0].startswith("FAIL: "), (argv, lines)


# Multi-multivector fields with a fault, and what the loader made of them
# before it parsed each field in one pass and checked membership once.
FIELD_FAULTS = {
    "overlap, then a non-member": (
        False, [[[0], [0, 1]], [[0, 1], [1]], [[7]]], "field 1: simplex (7,) not in complex"),
    "non-member, then overlap": (
        False, [[[7]], [[0], [0, 1]], [[0, 1], [1]]], "field 1: simplex (7,) not in complex"),
    "overlap": (
        False, [[[0], [0, 1]], [[0, 1], [1]]],
        "field 1: simplex (0, 1) assigned to two multivectors"),
    "shared minimum": (
        False, [[[0], [0, 1]], [[0], [0, 2]]], "field 1: duplicate multivector identifier (0,)"),
    "bad vertex in a later multivector": (
        False, [[[0], [0, 1]], [[1], [1, True]]], "bad vertex True"),
    "a multivector not an array": (
        False, [[[0]], 5, [[1, 1]]], "field 1 multivector must be an array of simplices"),
    "repeated vertex, then a bad vertex": (
        False, [[[0], [0, 1]], [[2, 2]], [[0, None]]], "repeated vertex 2 in simplex (2, 2)"),
    "unknown label in a later multivector": (
        True, [[["A"], ["A", "B"]], [["C"], ["C", "Z"]]], "unknown vertex label 'Z'"),
    "empty simplex in a later multivector": (
        False, [[[0], [0, 1]], [[1], []]], "a simplex must be a non-empty array, got []"),
}


@pytest.mark.parametrize("case", sorted(FIELD_FAULTS))
def test_list_form_field_names_the_first_fault(tmp_path, capsys, case):
    labelled, field, message = FIELD_FAULTS[case]
    doc = {"maximal_simplices": [["A", "B", "C"] if labelled else [0, 1, 2]],
           "fields": [field], "seed": []}
    if labelled:
        doc["vertices"] = dict(LOADER_LABELS)
    with pytest.raises(SchemaError) as exc:
        scene_from_dict(doc)
    assert str(exc.value) == message
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(path)) == (2, f"FAIL: {message}\n")


def test_public_constructor_names_an_overlap_before_a_later_non_member(triangle):
    """`MultivectorField(cx, parts)` checks part by part, `from_parts` checks
    membership first; each keeps the fault it named before."""
    parts = [[(0,), (0, 1)], [(0, 1), (1,)], [(7,)]]
    with pytest.raises(ValueError, match=r"^simplex \(0, 1\) assigned to two multivectors$"):
        mv.MultivectorField(triangle, parts)
    with pytest.raises(ValueError, match=r"^simplex \(7,\) not in complex$"):
        mv.MultivectorField.from_parts(triangle, parts, complete_singletons=True)


@pytest.mark.parametrize("field", [
    [[["A"], ["A", "B"]], [[2], [1, 2]]],
    [[["A"], ["A", 1]], [["C"], ["B", "C"]]],
    [[], [[0], [0, 1]], []]], ids=["labels then ids", "mixed tokens", "empty multivectors"])
def test_fields_mixing_token_kinds_load_as_when_parsed_alone(field):
    """A field whose multivectors cannot be parsed in one pass loads as its
    multivectors parsed one by one, with labels resolved to ids."""
    def ids(raw):
        return [[LOADER_LABELS.get(v, v) for v in s] for s in raw]

    doc = {"vertices": dict(LOADER_LABELS), "maximal_simplices": [["A", "B", "C"]],
           "fields": [field], "seed": []}
    plain = dict(doc, fields=[[ids(part) for part in field]])
    assert scene_from_dict(doc).fields == scene_from_dict(plain).fields


@pytest.mark.parametrize("verb", ["validate", "barcode"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, verb):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    assert run(capsys, verb, str(path)) == (2, "FAIL: invalid JSON: nested too deeply\n")
    with pytest.raises(SchemaError, match="nested too deeply"):
        (load_scene if verb == "validate" else load_zigzag)(path)


@pytest.mark.parametrize("verb", ["validate", "conley", "track", "barcode", "rearrange-path"])
def test_an_integer_beyond_the_digit_limit_exits_2(tmp_path, capsys, verb):
    """`json` parses an over-long integer with `int`, which raises a plain
    ValueError; every verb reports it as invalid JSON, with no traceback."""
    path = tmp_path / "big.json"
    path.write_text("[" + "9" * (sys.get_int_max_str_digits() + 1) + "]")
    argv = [verb, str(path)] + (["--out", str(tmp_path / "path.json")]
                                if verb == "rearrange-path" else [])
    code, out = run(capsys, *argv)
    assert code == 2 and out.startswith("FAIL: invalid JSON: Exceeds the limit")
    assert out.count("\n") == 1


def test_each_verb_takes_only_the_options_it_reads():
    sub = cli.build_parser()._subparsers._group_actions[0]
    options = {verb: {opt for action in parser._actions for opt in action.option_strings}
               - {"-h", "--help"} for verb, parser in sub.choices.items()}
    shared = {"--field-char", "--format"}
    assert options == {
        "validate": shared | {"--verbose"},
        "conley": shared,
        "track": shared | {"--verbose", "--out", "--heuristic-g"},
        "barcode": shared | {"--out"},
        "rearrange-path": {"--out"},
    }


def test_one_parser_serves_every_call(monkeypatch, capsys):
    """`main` builds its parser once per process, and a run of calls through
    it, a rejected one included, prints what a fresh parser would."""
    scene = str(FIXTURES / "merging_saddles.json")
    zigzag = str(FIXTURES / "repeller_pairs_in_n.json")
    calls = [("validate", scene), ("conley", scene, "seed", "--format", "json"),
             ("conley", scene, "--field-char", "4"), ("barcode", zigzag),
             ("validate", scene, "--verbose", "--field-char", "3"),
             ("conley", scene, "seed", "--field-char", "3")]

    def outcome(parse, argv):
        try:
            code = parse(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    builds = []
    original = cli.build_parser

    def counted():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    shared = [outcome(main, argv) for argv in calls]
    assert len(builds) == 1

    def fresh_main(argv):
        return cli._run(original().parse_args(argv))

    assert shared == [outcome(fresh_main, argv) for argv in calls]
    assert shared[2][0] == ("exit", 2) and "must be prime, got 4" in shared[2][2]
    assert [code for code, _, _ in shared[3:]] == [0, 0, 0]


@pytest.mark.parametrize("name", SCENES)
def test_loading_and_validating_fill_no_closure_table(name):
    """Convexity is decided from facets, so loading a scene, validating its
    fields and checking its seed's convexity and compatibility read no
    closure table."""
    scene = load_scene(FIXTURES / f"{name}.json")
    assert all(mv.validate_field(fld) for fld in scene.fields)
    scene.cx.is_convex(scene.seed)
    dynamics._facet_pass(scene.fields[0], scene.seed)
    assert scene.cx._closure_of == {}


@pytest.mark.parametrize("name,form", [
    ("merging_saddles", "list"), ("repeller_disk", "list"),
    ("saddle_collision_nine", "ops"), ("unresolved_step", "ops")])
def test_only_list_form_steps_are_classified(monkeypatch, name, form):
    """An ops-form load takes each step from its op; a list-form load finds
    each of its fields - 1 steps once, by comparing a field's parts with the
    field before, and builds the field from that one.  Every loaded field
    records its step, so tracking the scene looks for no step, and shares
    every multivector but those its step adds with the field before."""
    found = []
    original = mvfields._atomic

    def counted(gone, born):
        found.append(1)
        return original(gone, born)

    monkeypatch.setattr(mvfields, "_atomic", counted)
    scene = load_scene(FIXTURES / f"{name}.json")
    assert len(found) == (len(scene.fields) - 1 if form == "list" else 0)
    assert all(fld._step for fld in scene.fields[1:])
    found.clear()
    mv.run_protocol(scene.fields, scene.seed)
    assert found == []
    for a, b in zip(scene.fields, scene.fields[1:]):
        added = 2 if mv.classify_rearrangement(a, b).kind == "refinement" else 1
        shared = {id(part) for part in a.parts()} & {id(part) for part in b.parts()}
        assert len(shared) == len(b) - added
