"""The names the benchmark harness looks up in mvtrack must exist.

`perfbench/tracer.py` wraps every `(module, attr)` of its TARGETS by name,
and `perfbench/child.py` swaps `mvtrack.cli.run_protocol` to capture the
trace.  The tracer's source is parsed, not imported, so the check neither
runs nor writes anything under perfbench/.
"""

import ast
import importlib
import inspect
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
    """Each target resolves the way the tracer reads it: a function by module
    attribute, a method as `cls.__dict__[meth]`, which must be a plain
    function (not inherited, not a property or a static method), since the
    wrapper calls it with the instance as its first argument."""
    targets = _tracer_targets()
    assert targets
    for module, attr, _metric, _kind in targets:
        home = importlib.import_module(f"mvtrack.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name, None)
            assert isinstance(cls, type), f"mvtrack.{module}.{cls_name} is not a class"
            assert inspect.isfunction(cls.__dict__.get(meth)), (
                f"mvtrack.{module}.{attr} is not a plain function defined on {cls_name}")
        else:
            assert callable(getattr(home, attr, None)), f"mvtrack.{module}.{attr} is gone"


def test_cli_binds_run_protocol():
    assert callable(mvtrack.cli.run_protocol)
