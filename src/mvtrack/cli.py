"""Command-line front end.

Verbs: validate (field and seed checks), conley (Betti vector of the
canonical pair of a selected set), track (run the protocol, write trace and
barcode), barcode (standalone zigzag file), rearrange-path (atomic path
between the first and last field of a scene).

Exit codes: 0 success, 2 validation failure, 3 protocol stopped at an
unresolved step.  A verb returns (exit code, JSON document or None, text
lines) and writes nothing to stdout; `track --out` writes its own three
files.  `_run` renders what a verb returns, the document under `--format
json` and the lines otherwise, to stdout or to the file `barcode --out`
names, and returns the verb's code, so 3 comes from `track` alone.  A verb
raises on bad input, and `_run` owns exit 2: a SchemaError,
PreconditionError or NotAtomicError becomes one `FAIL:` line, or the
`{"ok": false, "error": ...}` document of `validate --format json`, and an
OSError from any write becomes `FAIL: cannot write ...`.  Output is
byte-deterministic for a fixed input and configuration; there is no
floating point anywhere.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .algebra import check_prime, relative_homology
from .dynamics import PreconditionError, _canonical, isolation_faults
from .fields import NotAtomicError, rearrangement_path
from .io import Scene, SchemaError, load_scene, load_zigzag, save_scene
from .tracking import run_protocol
from .zigzag import Barcode, pair_zigzag_barcode

OK, FAIL, UNRESOLVED = 0, 2, 3
_SEED_FAULTS = {"convex": "seed is not convex",
                "compatible": "seed is not a union of multivectors of field 1",
                "invariant": "seed is not invariant under field 1"}


def _emit(text: str, out: Path | None):
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        out.write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def barcode_doc(barcode: Barcode) -> dict:
    bars = []
    for bar in barcode.bars:
        entry = {"dim": bar.dim, "birth": bar.birth, "death": bar.death}
        if barcode.step_of_position is not None:
            entry["birth_step"] = barcode.step_of_position[bar.birth - 1]
            entry["death_step"] = barcode.step_of_position[bar.death - 1]
        bars.append(entry)
    doc = {"positions": barcode.length, "bars": bars}
    if barcode.step_of_position is not None:
        doc["step_of_position"] = list(barcode.step_of_position)
    return doc


def barcode_text(barcode: Barcode) -> str:
    """One row per bar, ranged over steps when a step map exists."""
    if barcode.step_of_position is not None:
        spans = barcode.step_bars()
        width = max(barcode.step_of_position, default=1)
        unit = "steps"
    else:
        spans = [(b.dim, b.birth, b.death) for b in barcode.bars]
        width = barcode.length
        unit = "positions"
    if not spans:
        return f"(empty barcode over {width} {unit})"
    lines = []
    for dim, birth, death in sorted(spans):
        row = "".join("====" if birth <= i <= death else "    "
                      for i in range(1, width + 1))
        lines.append(f"Dimension: {dim}  |{row}|  {unit} {birth}-{death}")
    return "\n".join(lines)


def _parse_selector(scene: Scene, selector: str):
    """seed | mv:<field>:<v,v,...> | set:<field>:<v,v,..;v,v,..>"""
    def vertex(tok: str) -> int:
        if scene.labels and tok in scene.labels:
            return scene.labels[tok]
        try:
            return int(tok)
        except ValueError:
            raise SchemaError(f"unknown vertex {tok!r} in selector")

    def parse_simplex(text: str):
        s = tuple(sorted(vertex(t) for t in text.split(",") if t))
        if s not in scene.cx.simplices:
            raise SchemaError(f"selector simplex {text!r} not in complex")
        return s

    if selector in ("", "seed"):
        return 1, scene.seed
    kind, _, rest = selector.partition(":")
    idx_text, _, body = rest.partition(":")
    try:
        idx = int(idx_text)
    except ValueError:
        raise SchemaError(f"bad field index in selector {selector!r}")
    if not 1 <= idx <= len(scene.fields):
        raise SchemaError(f"field index {idx} out of range 1..{len(scene.fields)}")
    if kind == "mv":
        return idx, scene.fields[idx - 1].part_of(parse_simplex(body))
    if kind == "set":
        return idx, frozenset(parse_simplex(part) for part in body.split(";") if part)
    raise SchemaError(f"unknown selector kind {kind!r}")


def cmd_validate(args):
    scene = load_scene(args.scene)
    # load_scene raises SchemaError for a field that fails validate_field
    entries = [{"field": i, "multivectors": len(fld), "ok": True, "problems": []}
               for i, fld in enumerate(scene.fields, 1)]
    if not scene.seed:
        problems = ["seed is empty; tracking needs a nonempty isolated invariant set"]
    else:
        faults = isolation_faults(scene.fields[0], scene.seed, args.field_char)
        problems = [_SEED_FAULTS[f] for f in faults]
    ok = not problems
    seed_entry = {"size": len(scene.seed), "ok": ok, "problems": problems}
    doc = {"ok": ok, "fields": entries, "seed": seed_entry}
    lines = []
    for i, e in enumerate(entries):
        lines.append(f"field {e['field']}: {e['multivectors']} multivectors - OK")
        if args.verbose:
            for part in scene.fields[i].parts():
                if len(part) > 1:
                    lines.append("  multivector "
                                 + " ".join(scene.format_simplex(s) for s in sorted(part)))
    status = "OK" if seed_entry["ok"] else "FAIL: " + "; ".join(seed_entry["problems"])
    lines.append(f"seed: {seed_entry['size']} simplices - {status}")
    return (OK if ok else FAIL), doc, lines


def cmd_conley(args):
    scene = load_scene(args.scene)
    idx, subset = _parse_selector(scene, args.selector)
    fld = scene.fields[idx - 1]
    faults = isolation_faults(fld, subset, args.field_char)
    if "convex" in faults or "compatible" in faults:
        raise PreconditionError("selected set is not convex and compatible, its "
                                "closure/mouth pair is not an index pair")
    betti = relative_homology(fld.cx, *_canonical(fld.cx, subset, convex=True), args.field_char)
    isolated = bool(subset) and not faults
    doc = {"field": idx, "size": len(subset), "betti": list(betti),
           "isolated_invariant": isolated}
    lines = [f"set of {len(subset)} simplices under field {idx}"
             f" (isolated invariant: {'yes' if isolated else 'no'})"]
    lines += [f"dimension {k}: {b}" for k, b in enumerate(betti)]
    return OK, doc, lines


def trace_doc(scene: Scene, trace) -> dict:
    results = {st.result for st in trace.steps}  # steps that end on equal sets share one list
    steps, formatted = [], {r: sorted(scene.format_simplex(s) for s in r or ()) for r in results}
    for st in trace.steps:
        steps.append({
            "index": st.index,
            "case": st.case,
            "kind": st.rearrangement.kind,
            "set_size": len(st.current),
            "result_size": len(st.result) if st.result is not None else None,
            "result": formatted[st.result],
            "appended_pairs": [
                {"p_size": len(pr.P), "e_size": len(pr.E), "role": tag.role}
                for pr, tag in zip(st.appended_pairs, st.appended_tags)],
            "notes": list(st.notes),
            "resolved": st.resolved,
        })
    return {"steps": steps, "zigzag_length": len(trace.zigzag),
            "stopped": trace.stopped}


def cmd_track(args):
    scene = load_scene(args.scene)
    trace = run_protocol(scene.fields, scene.seed, p=args.field_char,
                         heuristic_g=args.heuristic_g)
    doc = {"trace": trace_doc(scene, trace), "barcode": barcode_doc(trace.barcode)}
    text = barcode_text(trace.barcode)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, body in (("trace.json", _dump(doc["trace"])),
                           ("barcode.json", _dump(doc["barcode"])), ("barcode.txt", text)):
            _emit(body, outdir / name)
    lines = []
    for st in trace.steps:
        result = len(st.result) if st.result is not None else "-"
        lines.append(f"step {st.index}: case {st.case} ({st.rearrangement.kind}), "
                     f"|S| {len(st.current)} -> {result}"
                     + (f"  [{'; '.join(st.notes)}]" if st.notes else ""))
    lines.append(f"stopped: {trace.stopped}; zigzag of {len(trace.zigzag)} pairs")
    if args.verbose:
        for pos, (pair, tag) in enumerate(zip(trace.zigzag.pairs,
                                              trace.zigzag.tags), start=1):
            lines.append(f"  position {pos}: field {tag.field_index} "
                         f"{tag.role} |P|={len(pair.P)} |E|={len(pair.E)}")
    lines.append(text)
    return (UNRESOLVED if trace.stopped == "unresolved" else OK), doc, lines


def cmd_barcode(args):
    zz, _labels = load_zigzag(args.zigzag)
    barcode = pair_zigzag_barcode(zz, args.field_char)
    return OK, barcode_doc(barcode), [barcode_text(barcode)]


def cmd_rearrange_path(args):
    scene = load_scene(args.scene, check_atomic=False)
    if len(scene.fields) < 2:
        raise SchemaError("need a scene with at least two fields")
    path = rearrangement_path(scene.fields[0], scene.fields[-1])
    save_scene(scene._replace(fields=path), args.out)
    return OK, None, [f"wrote {len(path)} fields to {args.out}"]


def _prime(text: str) -> int:
    try:
        return check_prime(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvtrack",
        description="Track isolated invariant sets of combinatorial multivector "
                    "fields and compute Conley-index barcodes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, verbose):
        p.add_argument("--field-char", type=_prime, default=2, metavar="P",
                       help="prime field characteristic (default 2)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if verbose:
            p.add_argument("--verbose", action="store_true",
                           help="extra per-object detail in text output")

    p = sub.add_parser("validate", help="check fields, atomicity and the seed")
    p.add_argument("scene")
    common(p, verbose=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("conley", help="Betti vector of the canonical pair of a set")
    p.add_argument("scene")
    p.add_argument("selector", nargs="?", default="seed",
                   help="seed | mv:FIELD:V,V,... | set:FIELD:V,V,..;V,V,..")
    common(p, verbose=False)
    p.set_defaults(func=cmd_conley)

    p = sub.add_parser("track", help="run the tracking protocol and emit the barcode")
    p.add_argument("scene")
    p.add_argument("--out", metavar="DIR", help="write trace.json, barcode.json, barcode.txt")
    p.add_argument("--heuristic-g", action="store_true",
                   help="emit the flagged raw-intersection zigzag at unresolved steps")
    common(p, verbose=True)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("barcode", help="barcode of a standalone zigzag file")
    p.add_argument("zigzag")
    p.add_argument("--out", metavar="PATH")
    common(p, verbose=False)
    p.set_defaults(func=cmd_barcode)

    p = sub.add_parser("rearrange-path",
                       help="atomic rearrangement path between the first and last field")
    p.add_argument("scene")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_rearrange_path)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def _run(args) -> int:
    """Run the verb `args` names, render what it returns and give its exit code."""
    try:
        code, doc, lines = args.func(args)
        text = _dump(doc) if doc is not None and args.format == "json" else "\n".join(lines)
        _emit(text, Path(args.out) if args.command == "barcode" and args.out else None)
        return code
    except OSError as exc:
        _emit(f"FAIL: cannot write {exc.filename}: {exc.strerror}", None)
        return FAIL
    except (SchemaError, PreconditionError, NotAtomicError) as exc:
        json_doc = args.command == "validate" and args.format == "json"
        _emit(_dump({"ok": False, "error": str(exc)}) if json_doc else f"FAIL: {exc}", None)
        return FAIL


def main(argv=None) -> int:
    return _run(_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
