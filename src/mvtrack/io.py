"""Scene and zigzag files.

A scene is a single JSON document:

    {
      "vertices": {"A": 0, ...},              # optional label table
      "maximal_simplices": [["A","B","F"], ...],
      "fields": [ <field>, ... ]              # or {"initial": <field>, "ops": [...]}
      "seed": [ <simplex>, ... ]
    }

A simplex is an array of vertex ids or labels.  A field is an array of
multivectors (arrays of simplices); any simplex not listed belongs to its
own singleton multivector.  Alternatively the fields member may hold an
initial partition plus a list of operation records, each yielding the next
field: {"op": "split", "off": [<simplex>, ...]} splits the multivector
containing the listed simplices, {"op": "merge", "mvs": [<simplex>,
<simplex>]} merges the two containing multivectors.

A zigzag file replaces "fields"/"seed" with "pairs":
[{"p": [...], "e": [...]}, ...]; inclusion directions are inferred.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .complexes import Complex, Simplex, simplex
from .dynamics import IndexPair
from .fields import MultivectorField, classify_rearrangement, validate_field
from .zigzag import PairZigzag


class SchemaError(ValueError):
    """The input file does not match the documented schema."""


@dataclass
class Scene:
    cx: Complex
    fields: list[MultivectorField]
    seed: frozenset
    labels: Optional[dict[str, int]] = None  # label -> vertex id

    def __post_init__(self):
        self._names = {i: name for name, i in (self.labels or {}).items()}

    def label_of(self, vid: int) -> str:
        return self._names.get(vid, str(vid))

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


def _parse_simplex_set(raw, labels, what: str) -> list[Simplex]:
    if not isinstance(raw, list):
        raise SchemaError(f"{what} must be an array of simplices")
    return [_parse_simplex(s, labels) for s in raw]


def _parse_partition(raw, cx: Complex, labels, what: str) -> MultivectorField:
    if not isinstance(raw, list):
        raise SchemaError(f"{what} must be an array of multivectors")
    parts = [_parse_simplex_set(mv, labels, f"{what} multivector") for mv in raw]
    try:
        return MultivectorField.from_parts(cx, parts, complete_singletons=True)
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def _apply_op(field: MultivectorField, op, labels, what: str) -> MultivectorField:
    if not isinstance(op, dict) or "op" not in op:
        raise SchemaError(f"{what} must be an object with an 'op' member")
    kind = op["op"]
    try:
        if kind == "split":
            off = frozenset(_parse_simplex_set(op.get("off"), labels, f"{what} 'off'"))
            idents = {field.mv_id(s) for s in off}
            if len(idents) != 1:
                raise SchemaError(f"{what}: split pieces span several multivectors")
            return field.split(idents.pop(), off)
        if kind == "merge":
            members = _parse_simplex_set(op.get("mvs"), labels, f"{what} 'mvs'")
            if len(members) != 2:
                raise SchemaError(f"{what}: merge needs exactly two member simplices")
            return field.merge(field.mv_id(members[0]), field.mv_id(members[1]))
    except KeyError as exc:
        raise SchemaError(f"{what}: simplex {exc} not in complex") from exc
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from exc
    raise SchemaError(f"{what}: unknown op {kind!r}")


def _parse_complex(doc) -> tuple[Complex, Optional[dict[str, int]]]:
    labels = doc.get("vertices")
    if labels is not None:
        if (not isinstance(labels, dict)
                or not all(isinstance(k, str) and isinstance(v, int) for k, v in labels.items())):
            raise SchemaError("'vertices' must map labels to integer ids")
        if len(set(labels.values())) != len(labels):
            raise SchemaError("'vertices' assigns one id to several labels")
    if "maximal_simplices" not in doc:
        raise SchemaError("missing 'maximal_simplices'")
    maximal = _parse_simplex_set(doc["maximal_simplices"], labels, "'maximal_simplices'")
    if not maximal:
        raise SchemaError("'maximal_simplices' must not be empty")
    return Complex.from_maximal(maximal), labels


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
            fields.append(_parse_partition(raw, cx, labels, f"field {k + 1}"))
    else:
        raise SchemaError("'fields' must be an array or an initial/ops object")
    if not fields:
        raise SchemaError("scene needs at least one field")
    for k, fld in enumerate(fields):
        report = validate_field(fld)
        if not report:
            raise SchemaError(f"field {k + 1}: " + "; ".join(report.problems))
    if check_atomic:
        for k, (a, b) in enumerate(zip(fields, fields[1:])):
            try:
                classify_rearrangement(a, b)
            except ValueError as exc:
                raise SchemaError(f"fields {k + 1} -> {k + 2} are not an atomic "
                                  f"rearrangement: {exc}") from exc
    seed_raw = doc.get("seed", [])
    seed = frozenset(_parse_simplex_set(seed_raw, labels, "'seed'"))
    try:
        cx.check_subset(seed)
    except ValueError as exc:
        raise SchemaError(f"seed: {exc}") from exc
    return Scene(cx, fields, seed, labels)


def load_scene(path, check_atomic: bool = True) -> Scene:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return scene_from_dict(doc, check_atomic)


def _simplex_out(s: Simplex, names: dict[int, str]):
    return [names.get(v, v) for v in s]


def scene_to_dict(scene: Scene) -> dict:
    names = scene._names
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
    if not isinstance(doc, dict):
        raise SchemaError("zigzag file must be a JSON object")
    cx, labels = _parse_complex(doc)
    raw_pairs = doc.get("pairs")
    if not isinstance(raw_pairs, list) or not raw_pairs:
        raise SchemaError("'pairs' must be a non-empty array")
    pairs = []
    for k, raw in enumerate(raw_pairs):
        if not isinstance(raw, dict) or "p" not in raw or "e" not in raw:
            raise SchemaError(f"pair {k + 1} must be an object with 'p' and 'e'")
        pset = frozenset(_parse_simplex_set(raw["p"], labels, f"pair {k + 1} 'p'"))
        eset = frozenset(_parse_simplex_set(raw["e"], labels, f"pair {k + 1} 'e'"))
        try:
            cx.check_subset(pset)
            if not cx.is_closed(pset) or not cx.is_closed(eset):
                raise SchemaError(f"pair {k + 1} components must be closed")
            pairs.append(IndexPair(pset, eset))
        except ValueError as exc:
            raise SchemaError(f"pair {k + 1}: {exc}") from exc
    try:
        return PairZigzag(cx, pairs), labels
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def load_zigzag(path) -> tuple[PairZigzag, Optional[dict[str, int]]]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return zigzag_from_dict(doc)
