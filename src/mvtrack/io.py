"""Scene and zigzag files.

A scene is a single JSON document:

    {
      "vertices": {"A": 0, ...},              # optional label table
      "maximal_simplices": [["A","B","F"], ...],
      "fields": [ <field>, ... ]              # or {"initial": <field>, "ops": [...]}
      "seed": [ <simplex>, ... ]
    }

A simplex is an array of vertex ids or labels.  Past "maximal_simplices", an
array whose every simplex names a member of the complex is taken as listed;
any other is normalized, each simplex sorted and checked for a repeated
vertex.  A field is an array of multivectors (arrays of simplices); a simplex
not listed is its own singleton multivector.  Alternatively the fields member
may hold an initial partition plus a list of operation records, each yielding
the next field: {"op": "split", "off": [<simplex>, ...]} splits the
multivector containing the listed simplices, {"op": "merge", "mvs":
[<simplex>, <simplex>]} merges the two containing multivectors.

A list-form field is parsed in one pass over all its multivectors, falling
back to one multivector at a time for the message when that pass fails.
Each field records the step that made it: an op records itself, and a
list-form field one split or merge away from the field before is built from
that field by the step (`MultivectorField.successor`).  Fields after the
first are then checked only by the multivectors their step adds.

A zigzag file replaces "fields"/"seed" with "pairs":
[{"p": [...], "e": [...]}, ...]; inclusion directions are inferred.  An
array repeated at several positions is parsed once, found by an exact key.
"""

from __future__ import annotations

import itertools
import json
import marshal
from typing import NamedTuple, Optional

from .complexes import Complex, Simplex, _Closed, simplex
from .dynamics import IndexPair
from .fields import MultivectorField, classify_rearrangement, validate_field
from .zigzag import PairZigzag


class SchemaError(ValueError):
    """The input file cannot be read or does not match the documented schema."""


class Scene(NamedTuple("Scene", [("cx", Complex), ("fields", list), ("seed", frozenset),
                                 ("labels", Optional[dict]), ("names", dict)])):
    """A complex, its field sequence, the seed, and an optional label table
    (label -> vertex id); `names`, the reverse table, is derived, not pickled."""
    __slots__ = ()

    def __new__(cls, cx: Complex, fields: list[MultivectorField], seed: frozenset,
                labels: Optional[dict[str, int]] = None) -> "Scene":
        return super().__new__(cls, cx, fields, seed, labels,
                               {i: name for name, i in (labels or {}).items()})

    def __getnewargs__(self):
        return self[:4]

    def _replace(self, /, **changes) -> "Scene":
        """This scene with `changes`, `names` derived again from the labels."""
        return Scene(*super()._replace(**changes)[:4])

    def label_of(self, vid: int) -> str:
        return self.names.get(vid, str(vid))

    def format_simplex(self, s: Simplex) -> str:
        return ",".join(self.label_of(v) for v in s)


def _resolve_vertex(token, labels: Optional[dict[str, int]]):
    if isinstance(token, bool):
        raise SchemaError(f"bad vertex {token!r}")
    if isinstance(token, int):
        return token
    if isinstance(token, str):
        if labels and token in labels:
            return labels[token]
        raise SchemaError(f"unknown vertex label {token!r}")
    raise SchemaError(f"bad vertex {token!r}")


def _parse_simplex(raw, labels) -> Simplex:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"a simplex must be a non-empty array, got {raw!r}")
    try:
        return simplex(_resolve_vertex(v, labels) for v in raw)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _parse_simplex_set(raw, labels, what: str, members: frozenset = frozenset()) -> list[Simplex]:
    if not isinstance(raw, list):
        raise SchemaError(f"{what} must be an array of simplices")
    return _parse_plain(raw, labels, members) or [_parse_simplex(s, labels) for s in raw]


def _parse_plain(raw: list, labels, members: frozenset = frozenset()) -> Optional[list[Simplex]]:
    """The simplices in one pass if every one is a non-empty array of ids, or
    of labels in the table, with no vertex repeated; otherwise None, and the
    caller parses simplex by simplex for the message.  A simplex that names a
    member is in normal form, so if all do they are taken as listed."""
    if not set(map(type, raw)) <= {list} or not all(raw):
        return None
    tokens = list(itertools.chain.from_iterable(raw))
    kinds = set(map(type, tokens))
    if kinds == {int}:
        out = list(map(tuple, raw))
    elif kinds == {str} and labels and labels.keys() >= set(tokens):
        get = labels.__getitem__
        out = [tuple([*map(get, s)]) for s in raw]  # sized from a list, not resized
    else:
        return None
    if members.issuperset(out):
        return out
    out = list(map(tuple, map(sorted, out)))
    return out if sum(map(len, map(set, out))) == len(tokens) else None


def _parse_partition(raw, cx: Complex, labels, what: str,
                     prev: Optional[MultivectorField] = None) -> MultivectorField:
    """The field `raw` lists, built from `prev` when one split or merge apart."""
    if not isinstance(raw, list):
        raise SchemaError(f"{what} must be an array of multivectors")
    flat = (_parse_plain(list(itertools.chain.from_iterable(raw)), labels, cx.simplices)
            if set(map(type, raw)) <= {list} else None)
    if flat is None:
        parts = [frozenset(_parse_simplex_set(mv, labels, f"{what} multivector")) for mv in raw]
    else:
        simplices = itertools.repeat(iter(flat))
        parts = list(map(frozenset, map(itertools.islice, simplices, map(len, raw))))
    try:
        return ((prev and prev.successor(parts))
                or MultivectorField.from_parts(cx, parts, complete_singletons=True))
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def _apply_op(field: MultivectorField, op, labels, what: str) -> MultivectorField:
    """The field the op makes from `field`."""
    if not isinstance(op, dict) or "op" not in op:
        raise SchemaError(f"{what} must be an object with an 'op' member")
    kind, known = op["op"], field.cx.simplices
    try:
        if kind == "split":
            off = frozenset(_parse_simplex_set(op.get("off"), labels, f"{what} 'off'", known))
            if not off:
                raise SchemaError(f"{what}: split needs at least one simplex in 'off'")
            idents = {field.mv_id(s) for s in off}
            if len(idents) != 1:
                raise SchemaError(f"{what}: split pieces span several multivectors")
            return field.split(idents.pop(), off)
        if kind == "merge":
            members = _parse_simplex_set(op.get("mvs"), labels, f"{what} 'mvs'", known)
            if len(members) != 2:
                raise SchemaError(f"{what}: merge needs exactly two member simplices")
            return field.merge(field.mv_id(members[0]), field.mv_id(members[1]))
    except KeyError as exc:
        raise SchemaError(f"{what}: simplex {exc} not in complex") from exc
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from exc
    raise SchemaError(f"{what}: unknown op {kind!r}")


def _parse_complex(doc) -> tuple[Complex, Optional[dict[str, int]]]:
    labels = doc.get("vertices")
    if labels is not None:
        if (not isinstance(labels, dict)
                or not all(isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
                           for k, v in labels.items())):
            raise SchemaError("'vertices' must map labels to integer ids")
        if len(set(labels.values())) != len(labels):
            raise SchemaError("'vertices' assigns one id to several labels")
    if "maximal_simplices" not in doc:
        raise SchemaError("missing 'maximal_simplices'")
    maximal = _parse_simplex_set(doc["maximal_simplices"], labels, "'maximal_simplices'")
    if not maximal:
        raise SchemaError("'maximal_simplices' must not be empty")
    try:
        return Complex._from_normalized(maximal), labels
    except ValueError as exc:
        raise SchemaError(f"'maximal_simplices': {exc}") from exc


def scene_from_dict(doc: dict, check_atomic: bool = True) -> Scene:
    if not isinstance(doc, dict):
        raise SchemaError("scene must be a JSON object")
    cx, labels = _parse_complex(doc)
    raw_fields = doc.get("fields")
    fields: list[MultivectorField] = []
    if isinstance(raw_fields, dict):
        fields.append(_parse_partition(raw_fields.get("initial"), cx, labels, "initial field"))
        ops = raw_fields.get("ops", [])
        if not isinstance(ops, list):
            raise SchemaError("'ops' must be an array")
        for k, op in enumerate(ops):
            fields.append(_apply_op(fields[-1], op, labels, f"op {k + 1}"))
    elif isinstance(raw_fields, list):
        for k, raw in enumerate(raw_fields):
            fields.append(_parse_partition(raw, cx, labels, f"field {k + 1}",
                                           fields[-1] if fields and check_atomic else None))
    else:
        raise SchemaError("'fields' must be an array or an initial/ops object")
    if not fields:
        raise SchemaError("scene needs at least one field")
    not_atomic = None  # the first non-atomic step, raised after every convexity check
    for k, fld in enumerate(fields):
        if check_atomic and k:
            try:
                classify_rearrangement(fields[k - 1], fld)
            except ValueError as exc:
                not_atomic = not_atomic or (k, exc)
        report = validate_field(fld)
        if not report:
            raise SchemaError(f"field {k + 1}: " + "; ".join(report.problems))
    if not_atomic:
        k, exc = not_atomic
        raise SchemaError(f"fields {k} -> {k + 1} are not an atomic "
                          f"rearrangement: {exc}") from exc
    seed_raw = doc.get("seed", [])
    seed = frozenset(_parse_simplex_set(seed_raw, labels, "'seed'", cx.simplices))
    try:
        cx.check_subset(seed)
    except ValueError as exc:
        raise SchemaError(f"seed: {exc}") from exc
    return Scene(cx, fields, seed, labels)


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # malformed text, or an integer beyond the digit limit
        raise SchemaError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("invalid JSON: nested too deeply") from exc


def load_scene(path, check_atomic: bool = True) -> Scene:
    return scene_from_dict(_read_json(path), check_atomic)


def _simplex_out(s: Simplex, names: dict[int, str]):
    return [names.get(v, v) for v in s]


def scene_to_dict(scene: Scene) -> dict:
    names = scene.names
    maximal = [s for s in scene.cx.sorted_simplices()
               if not scene.cx.cofacets(s)]
    doc: dict = {}
    if scene.labels:
        doc["vertices"] = dict(sorted(scene.labels.items(), key=lambda kv: kv[1]))
    doc["maximal_simplices"] = [_simplex_out(s, names) for s in maximal]
    doc["fields"] = [
        [[_simplex_out(s, names) for s in sorted(part)]
         for part in fld.parts() if len(part) > 1]
        for fld in scene.fields]
    doc["seed"] = [_simplex_out(s, names) for s in sorted(scene.seed)]
    return doc


def save_scene(scene: Scene, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scene_to_dict(scene), handle, indent=2)
        handle.write("\n")


def zigzag_from_dict(doc: dict) -> tuple[PairZigzag, Optional[dict[str, int]]]:
    """Load a zigzag file.  Each distinct `p` or `e` array is parsed once, keyed
    by its `marshal` version 2 bytes, in which `true`, `1.0` and `1` differ (an
    array marshal refuses is parsed at each occurrence), and each distinct set
    checked once for membership and closedness, then kept tagged."""
    if not isinstance(doc, dict):
        raise SchemaError("zigzag file must be a JSON object")
    cx, labels = _parse_complex(doc)
    raw_pairs = doc.get("pairs")
    if not isinstance(raw_pairs, list) or not raw_pairs:
        raise SchemaError("'pairs' must be a non-empty array")
    parsed: dict[object, frozenset] = {}  # serialized array -> its set
    closed: dict[frozenset, frozenset] = {}  # each distinct set -> itself tagged

    def simplex_set(raw, what: str) -> frozenset:
        try:
            key: object = marshal.dumps(raw, 2)
        except ValueError:
            key = object()
        if key not in parsed:
            parsed[key] = frozenset(_parse_simplex_set(raw, labels, what, cx.simplices))
        return parsed[key]

    pairs = []
    for k, raw in enumerate(raw_pairs):
        if not isinstance(raw, dict) or "p" not in raw or "e" not in raw:
            raise SchemaError(f"pair {k + 1} must be an object with 'p' and 'e'")
        parts = (simplex_set(raw["p"], f"pair {k + 1} 'p'"),
                 simplex_set(raw["e"], f"pair {k + 1} 'e'"))
        try:
            for part in parts:
                if part not in closed:
                    if not cx.is_closed(part):
                        raise SchemaError("components must be closed")  # prefixed below
                    closed[part] = _Closed(part)
            pairs.append(IndexPair(closed[parts[0]], closed[parts[1]]))
        except ValueError as exc:
            raise SchemaError(f"pair {k + 1}: {exc}") from exc
    try:
        return PairZigzag(cx, pairs), labels
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def load_zigzag(path) -> tuple[PairZigzag, Optional[dict[str, int]]]:
    return zigzag_from_dict(_read_json(path))
