"""Deterministic scene generators for the benchmark workloads.

Each workload has a fixed *structure*: the complex, the field sequence, the
seed set and the `conley` selector batch, all drawn from constant structure
seeds so that every workload seed asks the program for the same work.  The
workload seed then draws a relabelling of the vertex ids and the order in
which simplices and multivectors are listed.  The program's answers do not
depend on either, so its outputs, with vertex names mapped back through
the relabelling, are the same for every workload seed and can be checked
against digests recorded once (see gate.canonical_trace).

Generators never import mvtrack: the program only sees the written files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

MASK64 = (1 << 64) - 1
HERE = Path(__file__).resolve().parent
REPLAY_FIXTURE = Path("fixtures") / "saddle_collision_nine.json"


class Rng:
    """splitmix64: the same stream on every Python version and platform."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


# --- complexes and fields in base vertex ids --------------------------------

def grid_triangles(n: int) -> list[tuple[int, ...]]:
    """An n-by-n square grid, each square cut along its main diagonal.
    Vertex (r, c) has id r * (n + 1) + c."""
    tris = []
    for r in range(n):
        for c in range(n):
            a, b = r * (n + 1) + c, r * (n + 1) + c + 1
            d, e = a + n + 1, b + n + 1
            tris.append((a, b, e))
            tris.append((a, d, e))
    return tris


def closure(maximal) -> list[tuple[int, ...]]:
    out = set()
    for s in maximal:
        k = len(s)
        for mask in range(1, 1 << k):
            out.add(tuple(s[i] for i in range(k) if mask >> i & 1))
    return sorted(out, key=lambda s: (len(s), s))


def facets(s: tuple) -> list[tuple]:
    return [s[:i] + s[i + 1:] for i in range(len(s))] if len(s) > 1 else []


def gradient_matching(simplices, rng: Rng, keep_single=()) -> list[tuple]:
    """Random face/coface merges: each simplex, in random order, is paired
    with a random facet that is still unpaired.  Every pair is convex, so the
    result is a valid multivector field (gradient-like, not necessarily
    acyclic)."""
    used = set(keep_single)
    pairs = []
    for s in rng.shuffle(list(simplices)):
        if s in used:
            continue
        free = [f for f in facets(s) if f not in used]
        if free:
            f = free[rng.below(len(free))]
            used.update((s, f))
            pairs.append((f, s))
    return pairs


class Partition:
    """A field as simplex -> multivector, edited by split and merge."""

    def __init__(self, parts):
        self.of = {s: frozenset(p) for p in parts for s in p}

    def copy(self) -> "Partition":
        new = Partition(())
        new.of = dict(self.of)
        return new

    def split(self, off) -> "Partition":
        off = frozenset(off)
        whole = self.of[next(iter(off))]
        if not off < whole:
            raise ValueError("split piece must be a proper part of one multivector")
        new = self.copy()
        for piece in (off, whole - off):
            new.of.update(dict.fromkeys(piece, piece))
        return new

    def merge(self, a, b) -> "Partition":
        if self.of[a] == self.of[b]:
            raise ValueError("merge needs two multivectors")
        new = self.copy()
        union = self.of[a] | self.of[b]
        new.of.update(dict.fromkeys(union, union))
        return new

    def apply(self, op) -> "Partition":
        kind, arg = op
        return self.split(arg) if kind == "split" else self.merge(*arg)

    def multivectors(self) -> list[list[tuple]]:
        """Non-singleton multivectors; unlisted simplices are singletons."""
        return sorted(sorted(p) for p in set(self.of.values()) if len(p) > 1)


@dataclass
class Structure:
    """One workload's input in base vertex ids, before relabelling."""
    maximal: list
    initial: list            # multivectors of the first field
    ops: list                # ("split", [simplex..]) | ("merge", (simplex, simplex))
    seed: list
    selectors: list          # ("seed",) | ("mv", field, simplex) | ("set", field, [simplex..])
    cases: str               # protocol case letters `track` must report, in order
    ops_form: bool = False   # write fields as initial/ops records, not as partitions
    labels: bool = False     # write a label table and name vertices by label

    def vertices(self) -> list[int]:
        return sorted({v for s in self.maximal for v in s})

    @property
    def positions(self) -> int:
        """Zigzag length: a continuation step appends six pairs, case f four."""
        return 1 + sum(6 if c in "abcd" else 4 for c in self.cases)

    def partitions(self) -> list[Partition]:
        out = [Partition([[s] for s in closure(self.maximal)] + self.initial)]
        for op in self.ops:
            out.append(out[-1].apply(op))
        return out


def _selectors(rng: Rng, parts: list[Partition], count: int, seeds: int) -> list:
    """`seeds` calls on the seed, then multivectors named by one member (mv:)
    or listed in full (set:), in a fixed shuffled order."""
    out = [("seed",)] * seeds
    while len(out) < count:
        k = rng.below(len(parts))
        simplices = sorted(parts[k].of)
        s = simplices[rng.below(len(simplices))]
        mv = sorted(parts[k].of[s])
        out.append(("mv", k + 1, s) if len(out) % 2 else ("set", k + 1, mv))
    return rng.shuffle(out)


# --- the three workloads ----------------------------------------------------

CONLEY_BATCH = 100   # p90 of 100 calls leaves 10 samples beyond it
CONLEY_SEEDS = 5     # calls on the (possibly large) seed set, kept below the p90 tail


def replay(root: Path) -> Structure:
    """saddle_collision_nine forward, then its last step undone."""
    doc = json.loads((root / REPLAY_FIXTURE).read_text(encoding="utf-8"))
    ops = [("split", op["off"]) if op["op"] == "split" else ("merge", op["mvs"])
           for op in doc["fields"]["ops"]]
    ops = [(kind, [tuple(s) for s in arg]) for kind, arg in ops]
    first = Partition([[s] for s in closure(doc["maximal_simplices"])]
                      + [[tuple(s) for s in mv] for mv in doc["fields"]["initial"]])
    parts = [first]
    for op in ops:
        parts.append(parts[-1].apply(op))
    before, after = parts[-2], parts[-1]
    new = sorted(sorted(p) for p in set(after.of.values()) - set(before.of.values()))
    old = sorted(sorted(p) for p in set(before.of.values()) - set(after.of.values()))
    if len(new) == 1:       # the last step merged old[0] and old[1]: split again
        ops.append(("split", old[0]))
    else:                   # the last step split old[0]: merge the halves again
        ops.append(("merge", (new[0][0], new[1][0])))
    st = Structure(maximal=[tuple(s) for s in doc["maximal_simplices"]],
                   initial=first.multivectors(), ops=ops,
                   seed=[tuple(s) for s in doc["seed"]], selectors=[], cases="daaccafab")
    st.selectors = _selectors(Rng(11), st.partitions(), CONLEY_BATCH, CONLEY_SEEDS)
    return st


GRID_INDEX = HERE / "grid_index.json"


def grid_index(root: Path) -> Structure:
    """12x12 grid, gradient-like field, seed invariant_part(hull(centre box));
    the first step breaks continuation.  The seed set and the three steps
    were derived once with `derive_grid_index.py` and are stored."""
    doc = json.loads(GRID_INDEX.read_text(encoding="utf-8"))
    tris = grid_triangles(doc["n"])
    initial = gradient_matching(closure(tris), Rng(doc["structure_seed"]))
    ops = [(kind, [tuple(s) for s in arg]) for kind, arg in doc["ops"]]
    st = Structure(maximal=tris, initial=[list(p) for p in initial], ops=ops,
                   seed=[tuple(s) for s in doc["seed"]], selectors=[],
                   cases="fab")
    st.selectors = _selectors(Rng(12), st.partitions(), CONLEY_BATCH, CONLEY_SEEDS)
    return st


WALK_N, WALK_OPS = 14, 12


def walk(root: Path) -> Structure:
    """A critical triangle at the centre of a gradient-like grid field, and
    random splits and merges at least two rings of vertices away from it, so
    every step continues the set (cases a and c)."""
    n = WALK_N
    tris = grid_triangles(n)
    centre = (n // 2) * (n + 1) + n // 2
    seed = (centre, centre + 1, centre + n + 2)
    rng = Rng(13)
    first = Partition([[s] for s in closure(tris)]
                      + gradient_matching(closure(tris), rng, keep_single=[seed]))
    field = first

    def far(s):
        return all(max(abs(v // (n + 1) - n // 2), abs(v % (n + 1) - n // 2)) >= 3
                   for v in s)

    cells = [s for s in closure(tris) if far(s)]
    ops = []
    while len(ops) < WALK_OPS:
        s = cells[rng.below(len(cells))]
        part = field.of[s]
        if len(ops) % 2 == 0 and len(part) == 2 and all(far(t) for t in part):
            op = ("split", [s])
        elif len(ops) % 2 == 1 and len(part) == 1:
            free = [f for f in facets(s) if len(field.of[f]) == 1 and far(f)]
            if not free:
                continue
            op = ("merge", (free[rng.below(len(free))], s))
        else:
            continue
        ops.append(op)
        field = field.apply(op)
    st = Structure(maximal=tris, initial=first.multivectors(), ops=ops, seed=[seed],
                   selectors=[], cases="ac" * (WALK_OPS // 2), ops_form=True, labels=True)
    st.selectors = _selectors(Rng(14), st.partitions(), CONLEY_BATCH, CONLEY_SEEDS)
    return st


WORKLOADS = {"replay": replay, "grid-index": grid_index, "walk": walk}


# --- relabelling and writing ------------------------------------------------

class Relabel:
    """The workload seed's vertex permutation and listing order."""

    def __init__(self, st: Structure, seed: int):
        self.rng = Rng(seed * 0x2545F4914F6CDD1D + 0x1234567)
        base = st.vertices()
        self.fwd = dict(zip(base, self.rng.shuffle(list(base))))
        self.back = {v: k for k, v in self.fwd.items()}
        self.labels = st.labels

    def simplex(self, s) -> list:
        """Base simplex -> its form in the file: permuted ids, or labels."""
        ids = sorted(self.fwd[v] for v in s)
        return [f"v{self.back[v]}" for v in ids] if self.labels else ids

    def simplices(self, ss) -> list:
        return self.rng.shuffle([self.simplex(s) for s in ss])

    def token(self, s) -> str:
        return ",".join(map(str, self.simplex(s)))


def write_scene(st: Structure, seed: int, path: Path) -> tuple[Relabel, list[str]]:
    """Write the relabelled scene; return the relabelling and the selectors."""
    rl = Relabel(st, seed)
    doc: dict = {}
    if st.labels:
        doc["vertices"] = {f"v{v}": rl.fwd[v] for v in rl.rng.shuffle(st.vertices())}
    doc["maximal_simplices"] = rl.simplices(st.maximal)
    if st.ops_form:
        doc["fields"] = {
            "initial": rl.rng.shuffle([rl.simplices(mv) for mv in st.initial]),
            "ops": [{"op": "split", "off": rl.simplices(arg)} if kind == "split"
                    else {"op": "merge", "mvs": rl.simplices(arg)}
                    for kind, arg in st.ops]}
    else:
        doc["fields"] = [rl.rng.shuffle([rl.simplices(mv) for mv in part.multivectors()])
                         for part in st.partitions()]
    doc["seed"] = rl.simplices(st.seed)
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    selectors = []
    for sel in st.selectors:
        if sel[0] == "seed":
            selectors.append("seed")
        elif sel[0] == "mv":
            selectors.append(f"mv:{sel[1]}:{rl.token(sel[2])}")
        else:
            selectors.append(f"set:{sel[1]}:" + ";".join(rl.token(s) for s in sel[2]))
    return rl, selectors
