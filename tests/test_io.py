"""The loader's member shortcut.  A listed simplex array whose every simplex
names a member of the complex is taken as listed; any other array is
normalized simplex by simplex, as the former parser (`normalizing_parse_plain`)
did for every array.  The tests compare the two parsers on perturbed scenes
and zigzags, and count the simplices the loader sorts."""

import builtins
import enum
import itertools
import json
import marshal
from pathlib import Path

import pytest

import mvtrack as mv
from mvtrack import io
from mvtrack.io import SchemaError, scene_from_dict, zigzag_from_dict

from helpers import bench_scenes, normalizing_parse_plain

ROOT = Path(__file__).parent.parent
FIXTURES = ROOT / "fixtures"


def _bench_doc(tmp_path, name):
    """The benchmark workload `name` as `perfbench/scenes.py` writes it (seed 1)."""
    scenes = bench_scenes()
    path = tmp_path / f"{name}.json"
    scenes.write_scene(scenes.WORKLOADS[name](ROOT), 1, path)
    return json.loads(path.read_text(encoding="utf-8"))


def _grid_zigzag_doc(tmp_path):
    """The tracked grid-index zigzag, each P and E listed sorted."""
    doc = _bench_doc(tmp_path, "grid-index")
    scene = scene_from_dict(doc)
    zz = mv.run_protocol(scene.fields, scene.seed).zigzag
    return {"maximal_simplices": doc["maximal_simplices"],
            "pairs": [{"p": [list(s) for s in sorted(pair.P)],
                       "e": [list(s) for s in sorted(pair.E)]} for pair in zz.pairs]}


def _document(name, tmp_path):
    """(loader, document, the paths of simplex arrays to perturb in it)."""
    if name == "grid zigzag":
        doc = _grid_zigzag_doc(tmp_path)
        e = next(k for k, pair in enumerate(doc["pairs"]) if pair["e"])
        return zigzag_from_dict, doc, [("pairs", 0, "p"), ("pairs", e, "e"), ("pairs", -1, "p")]
    if name == "merging_saddles":
        doc = json.loads((FIXTURES / "merging_saddles.json").read_text(encoding="utf-8"))
        return scene_from_dict, doc, [("fields", 0, 0), ("fields", 1, 1), ("seed",)]
    doc = _bench_doc(tmp_path, name)
    if name == "walk":
        return scene_from_dict, doc, [("fields", "initial", 0), ("fields", "ops", 0, "off"),
                                      ("fields", "ops", 1, "mvs"), ("seed",)]
    return scene_from_dict, doc, [("maximal_simplices",), ("fields", 0, 0), ("fields", 2, 5),
                                  ("seed",)]


def _first_token(token):
    return lambda a, doc: [[token] + a[0][1:]] + a[1:]


def _other_kind(a, doc):
    """The first vertex named the other way: a label by its id, an id by its
    label (by "A", unknown, where the file has no label table)."""
    labels = doc.get("vertices") or {}
    names = {i: name for name, i in labels.items()}
    token = a[0][0]
    return _first_token(labels[token] if isinstance(token, str) else names.get(token, "A"))(a, doc)


def _non_member(a, doc):
    """A maximal simplex and one more vertex: never a member of a 2-complex."""
    top = doc["maximal_simplices"][0]
    extra = next(v for s in doc["maximal_simplices"] for v in s if v not in top)
    return [top + [extra]] + a[1:]


ARRAY_PERTURBATIONS = {
    "one simplex reversed": lambda a, doc: [a[0][::-1]] + a[1:],
    "every simplex reversed": lambda a, doc: [s[::-1] for s in a],
    "a true token": _first_token(True),
    "a 1.0 token": _first_token(1.0),
    "a float": _first_token(0.5),
    "a big int": _first_token(2 ** 70),
    "a negative id": _first_token(-1),
    "a repeated vertex": lambda a, doc: [a[0] + a[0][:1]] + a[1:],
    "a non-member": _non_member,
    "a simplex listed twice": lambda a, doc: a + a[:1],
    "an unknown label": _first_token("nowhere"),
    "an id among labels, or a label among ids": _other_kind,
}


def _reverse_every_simplex(doc, key):
    """Every simplex under doc[key] reversed, wherever it is nested."""
    def walk(node):
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items()}
        if isinstance(node, list) and node and not isinstance(node[0], (list, dict)):
            return node[::-1]
        return [walk(v) for v in node] if isinstance(node, list) else node
    doc[key] = walk(doc[key])
    return doc


def _listed_in_two(doc):
    """The first simplex of the first field's first multivector listed in its second too."""
    fields = doc["fields"]
    field = fields["initial"] if isinstance(fields, dict) else fields[0]
    field[1].append(field[0][0])
    return doc


def _copy(doc):
    return json.loads(json.dumps(doc))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _perturbed(doc, path, change):
    """A copy of `doc` with the array at `path` replaced by change(array, doc)."""
    doc = _copy(doc)
    _at(doc, path[:-1])[path[-1]] = change(_at(doc, path), doc)
    return doc


def _outcome(load, doc):
    try:
        loaded = load(doc)
    except SchemaError as exc:
        return str(exc)
    if load is zigzag_from_dict:
        zz, labels = loaded
        return zz.cx, zz.pairs, labels
    return loaded


@pytest.mark.parametrize("name", ["grid-index", "walk", "merging_saddles", "grid zigzag"])
def test_the_member_shortcut_loads_as_the_normalizing_parser(name, tmp_path, monkeypatch):
    """Every perturbation of every listed array loads to an equal Scene (or
    equal pairs) or fails with the same message under both parsers."""
    load, doc, paths = _document(name, tmp_path)
    key = "pairs" if load is zigzag_from_dict else "fields"
    cases = [(f"{how} at {path}", _perturbed(doc, path, ARRAY_PERTURBATIONS[how]))
             for path in paths for how in ARRAY_PERTURBATIONS]
    cases.append(("every listed simplex reversed", _reverse_every_simplex(_copy(doc), key)))
    if load is scene_from_dict:
        cases.append(("a simplex listed in two multivectors", _listed_in_two(_copy(doc))))
    cases.append(("as written", doc))
    library = [_outcome(load, case) for _, case in cases]
    monkeypatch.setattr(io, "_parse_plain", normalizing_parse_plain)
    for (case, perturbed), got in zip(cases, library):
        assert got == _outcome(load, perturbed), case
    refused = sum(isinstance(got, str) for got in library)
    assert not isinstance(library[-1], str) and 10 <= refused <= len(cases) - 5, refused


def _normalized(monkeypatch):
    """Every simplex the loader sorts or normalizes, in order."""
    out = []

    def counted_sorted(*args, **kwargs):
        out.append(tuple(builtins.sorted(*args, **kwargs)))
        return list(out[-1])

    def counted_simplex(vertices):
        out.append(mv.simplex(vertices))
        return out[-1]

    monkeypatch.setattr(io, "sorted", counted_sorted, raising=False)
    monkeypatch.setattr(io, "simplex", counted_simplex)
    return out


def _a_simplex_reversed(array):
    """`array` with its first simplex of two or more vertices reversed."""
    k = next(k for k, s in enumerate(array) if len(s) > 1)
    return array[:k] + [array[k][::-1]] + array[k + 1:]


@pytest.mark.parametrize("name", ["grid-index", "walk", "grid zigzag"])
def test_a_file_in_normal_form_sorts_only_its_maximal_simplices(name, tmp_path, monkeypatch):
    """Counts work on files written the way `perfbench/scenes.py` writes
    them: past `maximal_simplices`, the loader sorts no listed simplex.  One
    simplex out of order in a field, the seed or a pair sends its own array,
    and only that one, through the normalizing path, to the same result."""
    load, doc, paths = _document(name, tmp_path)
    labels = doc.get("vertices")
    maximal = normalizing_parse_plain(doc["maximal_simplices"], labels)
    normalized = _normalized(monkeypatch)
    loaded = _outcome(load, doc)
    assert normalized == maximal
    if load is zigzag_from_dict:
        arrays = paths
    elif name == "walk":
        arrays = [("fields", "initial"), ("seed",)]
    else:
        arrays = [("fields", 1), ("seed",)]
    for path in arrays:
        if path[0] == "fields":  # a field's multivectors are parsed as one flat array
            perturbed = _perturbed(doc, path, lambda mvs, _: [_a_simplex_reversed(mvs[0])] + mvs[1:])
            own = list(itertools.chain.from_iterable(_at(perturbed, path)))
        else:
            perturbed = _perturbed(doc, path, lambda array, _: _a_simplex_reversed(array))
            own = _at(perturbed, path)
        normalized.clear()
        assert _outcome(load, perturbed) == loaded, path
        assert normalized == maximal + normalizing_parse_plain(own, labels), path


@pytest.mark.parametrize("vertex, alias", [(1, True), (0, False), (1, 1.0)])
def test_a_repeated_array_with_an_aliased_token_is_parsed_again(vertex, alias, monkeypatch):
    """A later pair's `p` that equals an earlier one under `==` but writes a
    vertex id as a bool or a float is parsed for itself, and fails with the
    normalizing parser's message; an exact repeat is parsed once."""
    p = [[0], [1], [0, 1]]
    doc = {"maximal_simplices": [[0, 1, 2]], "pairs": [{"p": p, "e": []}, {"p": p, "e": [[0]]}]}
    exact, aliased = _copy(doc), _copy(doc)
    aliased["pairs"][1]["p"] = [[alias if v == vertex else v for v in s] for s in p]
    assert aliased["pairs"][1]["p"] == p
    parses = []
    original = io._parse_plain
    monkeypatch.setattr(io, "_parse_plain", lambda raw, *rest: parses.append(raw)
                        or original(raw, *rest))
    assert not isinstance(_outcome(zigzag_from_dict, exact), str)
    assert parses.count(p) == 1
    refused = _outcome(zigzag_from_dict, aliased)
    assert refused == f"bad vertex {alias!r}"
    monkeypatch.setattr(io, "_parse_plain", normalizing_parse_plain)
    assert _outcome(zigzag_from_dict, aliased) == refused


def test_an_array_marshal_refuses_is_parsed_at_each_occurrence(monkeypatch):
    """A dict built in Python can hold what JSON cannot, such as an `IntEnum`
    vertex id, which `marshal` refuses to key: each occurrence of such an
    array is parsed for itself, and the zigzag loads as with plain ids."""
    zero = enum.IntEnum("Vertex", [("ZERO", 0)]).ZERO
    p = [[0], [1], [0, 1]]
    doc = {"maximal_simplices": [[0, 1, 2]], "pairs": [{"p": p, "e": []}, {"p": p, "e": [[0]]}]}
    odd = _copy(doc)
    odd["pairs"][0]["p"] = odd["pairs"][1]["p"] = [[zero if v == 0 else v for v in s] for s in p]
    with pytest.raises(ValueError):
        marshal.dumps(odd["pairs"][0]["p"], 2)
    parses = []
    original = io._parse_simplex_set
    monkeypatch.setattr(io, "_parse_simplex_set", lambda raw, *rest: parses.append(raw)
                        or original(raw, *rest))
    loaded = _outcome(zigzag_from_dict, odd)
    assert sum(raw is odd["pairs"][0]["p"] for raw in parses) == 2
    parses.clear()
    assert loaded == _outcome(zigzag_from_dict, doc)
    assert sum(raw is p for raw in parses) == 1
