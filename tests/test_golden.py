"""Byte-for-byte CLI goldens on the six fixtures.

Each case runs one CLI invocation in-process and renders its exit code,
its stdout and every file it writes (`track --out`) into one document,
which must equal `tests/golden/<case>.txt` exactly.  Re-record after an
intended output change with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from mvtrack.cli import main

ROOT = Path(__file__).parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
SCENES = ("merging_saddles", "repeller_disk", "saddle_collision_nine", "unresolved_step")
ZIGZAGS = ("repeller_naive_intersection", "repeller_pairs_in_n")
OUT_FILES = ("trace.json", "barcode.json", "barcode.txt")
SCENE_VERBS = {
    "validate": ("validate",),
    "validate-verbose": ("validate", "--verbose"),
    "conley": ("conley",),
    "track": ("track",),
    "track-verbose": ("track", "--verbose"),
    "track-heuristic-g": ("track", "--heuristic-g"),
    "track-out": ("track", "--out"),
}


def _cases():
    out = {}
    for p in ("2", "3"):
        for fmt in ("text", "json"):
            opts = ("--field-char", p, "--format", fmt)
            for name in SCENES:
                for verb, argv in SCENE_VERBS.items():
                    out[f"{name}.{verb}.p{p}.{fmt}"] = (
                        argv[:1] + (str(FIXTURES / f"{name}.json"),) + argv[1:] + opts)
            for name in ZIGZAGS:
                out[f"{name}.barcode.p{p}.{fmt}"] = (
                    "barcode", str(FIXTURES / f"{name}.json")) + opts
    return out


CASES = _cases()


def render(argv) -> str:
    """Exit code, stdout and written files of one CLI call, as one document."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        if "--out" in argv:
            argv.insert(argv.index("--out") + 1, tmp)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        doc = f"exit {code}\n--- stdout\n{stdout.getvalue()}"
        if "--out" in argv:
            for name in OUT_FILES:
                doc += f"--- {name}\n" + (Path(tmp) / name).read_text(encoding="utf-8")
    return doc


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert render(CASES[case]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        (GOLDEN / f"{case}.txt").write_text(render(argv), encoding="utf-8")
    print(f"recorded {len(CASES)} goldens in {GOLDEN}", file=sys.stderr)
