"""Correctness gate: every verb call's output is checked.

Three checks run on each call, all outside the timed region:
  * the exit code is 0;
  * stdout, trace.json and barcode.json match digests recorded at the seed
    commit (trace.json after vertex names are mapped back to base ids);
  * the `track` trace has the generated shape: the exact case sequence, the
    zigzag length, and a completed run.
Once per run, `independent_check` compares each position's Betti vector in
barcode.json with relative_homology of that position's pair.
"""

from __future__ import annotations

import hashlib
import json


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canonical_simplex(text: str, back: dict[str, int] | None) -> str:
    """A simplex as the program prints it -> sorted base vertex ids.
    With `back` the file used permuted ids; without, labels 'v<base id>'."""
    if back is None:
        base = sorted(int(t[1:]) for t in text.split(","))
    else:
        base = sorted(back[t] for t in text.split(","))
    return ",".join(map(str, base))


def canonical_trace(text: str, back) -> str:
    doc = json.loads(text)
    for step in doc["steps"]:
        step["result"] = sorted(canonical_simplex(s, back) for s in step["result"])
    return json.dumps(doc, indent=2, sort_keys=True)


def shape_problems(trace_text: str, cases: str, positions: int) -> list[str]:
    doc = json.loads(trace_text)
    got = "".join(step["case"] for step in doc["steps"])
    problems = []
    if got != cases:
        problems.append(f"case sequence {got!r}, generated for {cases!r}")
    if doc["zigzag_length"] != positions:
        problems.append(f"zigzag of {doc['zigzag_length']} positions, generated for {positions}")
    if doc["stopped"] != "completed":
        problems.append(f"protocol stopped: {doc['stopped']}")
    return problems


def betti_from_bars(barcode: dict, dims: int) -> list[tuple]:
    """Per position, the number of bars of each dimension covering it."""
    out = []
    for pos in range(1, barcode["positions"] + 1):
        row = [0] * dims
        for bar in barcode["bars"]:
            if bar["birth"] <= pos <= bar["death"]:
                row[bar["dim"]] += 1
        out.append(tuple(row))
    return out


def independent_check(cx, pairs, barcode: dict, relative_homology, p: int = 2) -> list[str]:
    """Betti vectors implied by the bars against relative homology of each pair."""
    if barcode["positions"] != len(pairs):
        return [f"barcode has {barcode['positions']} positions, zigzag {len(pairs)}"]
    implied = betti_from_bars(barcode, cx.dim + 1)
    known: dict = {}
    for pos, (pair, got) in enumerate(zip(pairs, implied), start=1):
        if pair not in known:
            known[pair] = tuple(relative_homology(cx, pair.P, pair.E, p))
        if known[pair] != got:
            return [f"position {pos}: bars give Betti {got}, relative homology {known[pair]}"]
    return []
