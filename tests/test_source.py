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


def render_faults(source, filename="<source>"):
    """(verb, fault) for each `cmd_*` function that reads `args.format` or
    calls `_emit` with stdout as a possible target (no target, `None`, or a
    conditional with a `None` branch): a verb returns its output, and one
    function renders and writes it."""
    def may_be_none(target):
        if isinstance(target, ast.IfExp):
            return may_be_none(target.body) or may_be_none(target.orelse)
        return isinstance(target, ast.Constant) and target.value is None

    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.FunctionDef) or not node.name.startswith("cmd_"):
            continue
        for n in ast.walk(node):
            if (isinstance(n, ast.Attribute) and n.attr == "format"
                    and isinstance(n.value, ast.Name) and n.value.id == "args"):
                out.append((node.name, "reads args.format"))
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_emit":
                targets = n.args[1:] + [k.value for k in n.keywords if k.arg == "out"]
                if not targets or may_be_none(targets[0]):
                    out.append((node.name, "writes to stdout"))
    return sorted(out)


def test_the_check_finds_a_verb_that_renders():
    source = ("def cmd_a(args):\n    if args.format == 'json':\n        _emit(doc)\n"
              "def cmd_b(args):\n    _emit(text, None)\n    _emit(text, out=path)\n"
              "def cmd_c(args):\n    _emit(text, out=None)\n    _emit(text, path)\n"
              "def cmd_d(args):\n    _emit(text, path if args.out else None)\n"
              "def _run(args):\n    _emit(args.format)\n")
    assert render_faults(source) == [("cmd_a", "reads args.format"), ("cmd_a", "writes to stdout"),
                                     ("cmd_b", "writes to stdout"), ("cmd_c", "writes to stdout"),
                                     ("cmd_d", "writes to stdout")]


def test_no_verb_renders_its_own_output():
    path = SRC / "cli.py"
    faults = render_faults(path.read_text(encoding="utf-8"), str(path))
    assert not faults, faults


def unreferenced_private(sources):
    """(file, name) for each private function, class or module constant that
    a module of `sources` ({filename: text}) defines and that no module reads
    outside the definition itself: an import alone keeps nothing alive."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}

    def reads(node):
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                or isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    defined = []
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((filename, node.name, node))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined += [(filename, t.id, node) for t in targets if isinstance(t, ast.Name)]
    everywhere = [name for tree in trees.values() for name in reads(tree)]
    return sorted((filename, name) for filename, name, node in defined if private(name)
                  and everywhere.count(name) == reads(node).count(name))


def test_the_check_finds_private_code_nothing_reads():
    sources = {
        "a.py": "_USED = 1\n_UNUSED: int = 2\n__all__ = []\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n"
                "def f():\n    return _USED + _Kept().go()\n"
                "class _Kept:\n    def go(self):\n        return self._inner()\n"
                "    def _inner(self):\n        return 0\n"
                "    def _dead(self):\n        return self._dead()\n"
                "    def __len__(self):\n        return 0\n",
        "b.py": "from .a import _imported\ndef _imported():\n    pass\n"
                "def g():\n    return _from_b()\ndef _from_b():\n    pass\n"}
    assert unreferenced_private(sources) == [("a.py", "_UNUSED"), ("a.py", "_dead"),
                                             ("a.py", "_recursive"), ("b.py", "_imported")]


def test_no_private_code_in_the_library_is_kept_alive_by_tests_alone():
    found = unreferenced_private({path.name: path.read_text(encoding="utf-8")
                                  for path in sorted(SRC.glob("*.py"))})
    assert not found, found
