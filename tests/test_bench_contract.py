"""The names the benchmark harness looks up in mvtrack must exist.

`perfbench/tracer.py` wraps every `(module, attr)` of its TARGETS by name,
and `perfbench/child.py` swaps `mvtrack.cli.run_protocol` to capture the
trace.  The tracer's source is parsed, not imported, so the check neither
runs nor writes anything under perfbench/.
"""

import ast
import importlib
from pathlib import Path

import mvtrack.cli

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _tracer_targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


def test_traced_names_resolve_in_mvtrack():
    targets = _tracer_targets()
    assert targets
    for module, attr, _metric, _kind in targets:
        obj = importlib.import_module(f"mvtrack.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"mvtrack.{module}.{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"mvtrack.{module}.{attr} is not callable"


def test_cli_binds_run_protocol():
    assert callable(mvtrack.cli.run_protocol)
