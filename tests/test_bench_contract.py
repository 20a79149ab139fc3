"""The names the benchmark harness looks up in mvtrack must exist.

`perfbench/tracer.py` wraps every `(module, attr)` of its TARGETS by name,
and `perfbench/child.py` swaps `mvtrack.cli.run_protocol` to capture the
trace.  The tracer's source is parsed, not imported, so the check neither
runs nor writes anything under perfbench/.
"""

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

import mvtrack.cli
import mvtrack.dynamics

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"
FIXTURES = Path(__file__).parent.parent / "fixtures"


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


@pytest.mark.parametrize("argv", [["merging_saddles"], ["saddle_collision_nine"],
                                  ["unresolved_step"], ["unresolved_step", "--heuristic-g"]],
                         ids=" ".join)
def test_track_checks_pairs_where_the_tracer_counts_them(argv, monkeypatch, capsys):
    """The tracer counts pair checks by binding a wrapper of
    `dynamics.validate_index_pair_in_n` under every name, in every mvtrack
    module, that refers to it.  Wrapped that way, `track` makes at least one
    call per resolved step, and none for an unresolved case g step."""
    original, calls = mvtrack.dynamics.validate_index_pair_in_n, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "mvtrack" or name.startswith("mvtrack."):
            for key in [k for k, v in vars(module).items() if v is original]:
                monkeypatch.setattr(module, key, counted)
    scene, *flags = argv
    code = mvtrack.cli.main(["track", str(FIXTURES / f"{scene}.json"), "--format", "json", *flags])
    steps = json.loads(capsys.readouterr().out)["trace"]["steps"]
    resolved = sum(step["resolved"] for step in steps)
    assert code == (0 if resolved == len(steps) else 3)
    assert len(calls) >= resolved
    if not resolved:
        assert not calls
