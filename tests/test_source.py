"""Static checks of the library's source, read with `ast`, not imported."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "mvtrack"


def unused_parameters(source, filename="<source>"):
    """(function, parameter) for each parameter that its function's body never
    reads, nested functions included; `self`, `cls` and dunder methods are exempt."""
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.name, name) for name in names
                if name not in read and name not in ("self", "cls")]
    return out


def test_the_check_finds_an_unused_parameter():
    source = ("def f(a, b, *rest, c=1, **more):\n    return a + sum(rest)\n"
              "class K:\n    def __init__(self, unused):\n        pass\n"
              "    def g(self, x):\n        return lambda: x\n"
              "    def h(cls, y):\n        return 0\n")
    assert unused_parameters(source) == [("f", "b"), ("f", "c"), ("f", "more"), ("h", "y")]


def test_every_parameter_in_the_library_is_read():
    unused = [(path.name, *found) for path in sorted(SRC.glob("*.py"))
              for found in unused_parameters(path.read_text(encoding="utf-8"), str(path))]
    assert not unused, unused
