"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Not named test_*.py, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import scenes  # noqa: E402
import tracer as tracing  # noqa: E402

import mvtrack  # noqa: E402
import mvtrack.cli as cli  # noqa: E402
from mvtrack.io import load_scene  # noqa: E402


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("workload", sorted(scenes.WORKLOADS))
def test_same_seed_gives_identical_scene(workload, tmp_path):
    files = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        path = tmp_path / f"{name}.json"
        _rl, selectors = scenes.write_scene(scenes.WORKLOADS[workload](ROOT), seed, path)
        files.append((path.read_bytes(), selectors))
    assert files[0] == files[1]
    assert files[0][0] != files[2][0]
    assert len(files[0][1]) == scenes.CONLEY_BATCH


def test_walk_steps_stay_away_from_the_seed(tmp_path):
    st = scenes.walk(ROOT)
    scenes.write_scene(st, 3, tmp_path / "scene.json")
    scene = load_scene(tmp_path / "scene.json")
    trace = mvtrack.run_protocol(scene.fields, scene.seed)
    assert "".join(step.case for step in trace.steps) == st.cases
    assert len(trace.zigzag) == st.positions


def test_tampered_barcode_is_caught(tmp_path):
    """Dropping one bar from barcode.json fails both the recorded digest and
    the independent Betti check."""
    st = scenes.walk(ROOT)
    scene_path = tmp_path / "scene.json"
    scenes.write_scene(st, 5, scene_path)
    code, _out = _cli(["track", str(scene_path), "--out", str(tmp_path / "out")])
    assert code == 0
    text = (tmp_path / "out" / "barcode.json").read_text(encoding="utf-8")
    recorded = json.loads(run.EXPECTED.read_text(encoding="utf-8"))["walk"]["track.barcode"]
    scene = load_scene(scene_path)
    trace = mvtrack.run_protocol(scene.fields, scene.seed)
    rel = mvtrack.relative_homology
    assert gate.digest(text) == recorded
    assert gate.independent_check(scene.cx, trace.zigzag.pairs, json.loads(text), rel) == []

    tampered = json.loads(text)
    tampered["bars"].pop()
    tampered_text = json.dumps(tampered, indent=2, sort_keys=True) + "\n"
    assert gate.digest(tampered_text) != recorded
    assert gate.independent_check(scene.cx, trace.zigzag.pairs, tampered, rel)


def test_wrappers_return_what_the_wrapped_functions_return():
    fixture = str(ROOT / "fixtures" / "merging_saddles.json")
    scene = load_scene(fixture)
    fld, seed = scene.fields[0], scene.seed
    cx = scene.cx

    def results():
        trace = mvtrack.run_protocol(scene.fields, seed)
        return (_cli(["track", fixture, "--format", "json"]),
                _cli(["conley", fixture]),
                mvtrack.invariant_part(fld, cx.simplices),
                mvtrack.relative_homology(cx, cx.closure(seed), cx.mouth(seed)),
                [s.case for s in trace.steps], trace.barcode.bars)

    plain = results()
    original = mvtrack.dynamics.invariant_part
    tr = tracing.Tracer()
    tr.install()
    try:
        # one wrapper, bound in every module that imported the name
        assert mvtrack.tracking.invariant_part is mvtrack.dynamics.invariant_part
        assert mvtrack.tracking.invariant_part.__wrapped__ is original
        traced = results()
    finally:
        tr.uninstall()
    assert traced == plain
    assert tr.calls["dynamics.invariant_part"] > 0
    assert tr.calls["algebra.HomologyBasis"] > 0
    assert mvtrack.tracking.invariant_part is original
    assert not hasattr(mvtrack.algebra.HomologyBasis.__init__, "__wrapped__")


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == tracing.PER_LAYER
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(scenes.WORKLOADS)
