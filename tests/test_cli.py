import json
from pathlib import Path

import pytest

import mvtrack as mv
from mvtrack.cli import main
from mvtrack.io import (SchemaError, load_scene, load_zigzag, save_scene,
                        scene_from_dict, scene_to_dict)

FIXTURES = Path(__file__).parent.parent / "fixtures"


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


def test_scene_round_trip(tmp_path):
    scene = load_scene(FIXTURES / "merging_saddles.json")
    save_scene(scene, tmp_path / "copy.json")
    again = load_scene(tmp_path / "copy.json")
    assert again.cx == scene.cx
    assert again.fields == scene.fields
    assert again.seed == scene.seed
    assert scene_to_dict(again) == scene_to_dict(scene)
    assert again.labels == scene.labels and len(scene.labels) == len(scene.cx.vertices)
    for s in scene.cx.sorted_simplices():
        assert again.format_simplex(s) == scene.format_simplex(s)
        assert [scene.labels[name] for name in scene.format_simplex(s).split(",")] == list(s)
    assert scene.label_of(max(scene.cx.vertices) + 1) == str(max(scene.cx.vertices) + 1)


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
    with pytest.raises(SystemExit) as exc:
        main(["conley", str(FIXTURES / "merging_saddles.json"),
              "--field-char", "9223372036854775837"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "below 2**63" in err and "Traceback" not in err


def test_track_at_a_large_prime_matches_p3(capsys):
    """No torsion in the fixture, so every odd characteristic gives the same
    barcode; at 2**61 - 1 the zigzag matrices hold entries close to the
    int64 limit."""
    scene = str(FIXTURES / "saddle_collision_nine.json")
    code_big, out_big = run(capsys, "track", scene, "--field-char", str(2 ** 61 - 1))
    code_small, out_small = run(capsys, "track", scene, "--field-char", "3")
    assert code_big == code_small == 0
    assert out_big == out_small
