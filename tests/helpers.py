"""Shared test utilities: brute-force oracles and random instance generators.

The oracles deliberately avoid the library's algorithmic shortcuts: the
invariant-part oracle searches for explicit eventually-periodic solutions
and evaluates the essential-solution condition position by position, and
`scc_invariant_part`, the library's former algorithm, intersects forward and
backward reachability from critical simplices and strongly connected
components that meet more than one multivector; the
hull oracle intersects all convex compatible supersets; the zigzag oracles
decompose modules through Hom-space dimensions and through generalized ranks
over windows, and `per_position_barcode` sweeps every position where the
library sweeps one per run of equal pairs; the homology oracles use dense
row elimination (numpy int64, so only for small primes) instead of the
library's sparse column reduction, and reduced homology of a cone
(`cone_pair`) instead of the library's relative chain complex of a pair.
The oracles take zigzag arrows as dense matrices; `sparse_arrows` and
`dense_arrows` convert to and from the library's sparse columns.  The
convexity oracle decides convexity from the mouth, where the library reads
facets, and checks every multivector of a field, where the loader checks
only what each atomic step adds.  The rearrangement oracle diffs the parts
of two fields, where the library reads the step a field records.
`EagerComplex` is the former complex construction, which built every face
table up front, and `kahn_gradient_field` the former gradient-field
generator, which checked every candidate pair by a pass over the complex.
`reference_protocol` is the tracking protocol rebuilt from these oracles and
the paper's definitions, with every emitted pair checked against all four
index-pair conditions.  `scan_refinement_path` is the former
`refinement_path`, which rescanned every multivector id at each step.
`alternating_hull` is the former `hull`, which grew the whole set each round.
`star` is the former `Complex.star`, and `is_compatible` the former
`MultivectorField.is_compatible`, which only the tests read.
`closure_invariant_part` is the former `invariant_part`, which linked each
block to the blocks of every face of its members, where the library links
along facets in a convex set.
`bench_scenes` executes the benchmark's scene generators from source.
`small_runs` enumerates every two-field run on a small complex (each convex
field, each nonempty isolated invariant set, each atomic split or merge)
for the exhaustive reference-protocol test.
`normalizing_parse_plain` is the former `io._parse_plain`, which sorted and
checked every listed simplex where the loader now takes a simplex that names
a member of the complex as listed.
`per_simplex_closure` is the former `Complex._from_normalized` loop, which
added each listed simplex's faces one simplex at a time where the library
now builds them a level at a time over runs that fit under the face bound.
`singleton_field`, `is_full`, `bars_in_dim` and
`reduced_betti` were library wrappers that only the tests called; the last
now reads the library's relative homology of the complex and one vertex.
"""

from __future__ import annotations

import itertools
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np

import mvtrack as mv
from mvtrack import algebra, dynamics
from mvtrack.complexes import facets, proper_faces
from mvtrack.dynamics import IndexPair
from mvtrack.zigzag import (BACKWARD, FORWARD, Bar, Barcode, PairTag, PairZigzag,
                            interval_multiplicities, pair_zigzag_barcode)


# Above 2**32 the old dense int64 elimination overflowed without error.
BIG_P = 2 ** 32 + 15

# The real projective plane, six vertices: its homology has 2-torsion.
RP2 = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
       (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


def oracle_prime(p):
    """The prime for the dense int64 oracles: p, or 3 above 2**31, where
    they overflow; the complexes tested with them have no odd torsion, so
    both give the rational ranks."""
    return p if p < 2 ** 31 else 3


# ---------------------------------------------------- former library wrappers

def singleton_field(cx):
    """The field whose every multivector is a single simplex."""
    return mv.MultivectorField(cx, [[s] for s in cx.simplices])


def is_full(barcode):
    """True iff every bar spans the whole zigzag."""
    return all(b.birth == 1 and b.death == barcode.length for b in barcode.bars)


def bars_in_dim(barcode, k):
    return [b for b in barcode.bars if b.dim == k]


def reduced_betti(cx, p=2):
    """Reduced Betti numbers of a non-empty complex, indexed 0..dim, as the
    library's relative homology of the complex relative to one vertex."""
    return mv.relative_homology(cx, cx.simplices, {(min(vertices(cx)),)}, p)


def vertices(cx):
    """The vertex ids of a complex, in increasing order."""
    return tuple(sorted(s[0] for s in cx.simplices if len(s) == 1))


# ---------------------------------------------------------------- generators

def random_complex(rng, n_vertices=6, n_maximal=3, max_dim=2, max_size=20):
    for _ in range(500):
        count = rng.randint(1, n_maximal)
        maximal = []
        for _ in range(count):
            size = rng.randint(1, max_dim + 1)
            maximal.append(rng.sample(range(n_vertices), size))
        cx = mv.Complex.from_maximal(maximal)
        if len(cx) <= max_size:
            return cx
    raise RuntimeError("could not generate a complex within the size budget")


def random_field(rng, cx, merges=None):
    fld = singleton_field(cx)
    if merges is None:
        merges = rng.randint(0, max(1, len(cx) // 2))
    for _ in range(merges):
        ids = list(fld.ids())
        if len(ids) < 2:
            break
        for _ in range(20):
            a, b = rng.sample(ids, 2)
            if cx.is_convex(fld.part(a) | fld.part(b)):
                fld = fld.merge(a, b)
                break
    return fld


def random_subset(rng, universe, max_size=None):
    pool = sorted(universe)
    limit = len(pool) if max_size is None else min(len(pool), max_size)
    return frozenset(rng.sample(pool, rng.randint(0, limit)))


def random_convex_compatible(rng, fld, max_parts=3):
    ids = list(fld.ids())
    chosen = rng.sample(ids, min(len(ids), rng.randint(1, max_parts)))
    seed = frozenset().union(*(fld.part(i) for i in chosen))
    return mv.hull(fld, seed)


def random_isolated_set(rng, fld, p=2, attempts=30):
    """A nonempty isolated invariant set, or None if none was found."""
    for _ in range(attempts):
        subset = mv.invariant_part(fld, random_convex_compatible(rng, fld), p)
        if subset:
            return subset
    return None


def random_refinement(rng, fld):
    """An atomic refinement of fld, or None if every part is a singleton."""
    targets = [i for i in fld.ids() if len(fld.part(i)) > 1]
    if not targets:
        return None
    ident = rng.choice(targets)
    part = sorted(fld.part(ident))
    for _ in range(30):
        size = rng.randint(1, len(part) - 1)
        off = frozenset(rng.sample(part, size))
        rest = frozenset(part) - off
        if fld.cx.is_convex(off) and fld.cx.is_convex(rest):
            return fld.split(ident, off)
    maximal = [s for s in part if not any(c in part for c in fld.cx.cofacets(s))]
    return fld.split(ident, frozenset({min(maximal)}))


def random_coarsening(rng, fld):
    """An atomic coarsening of fld, or None if no convex merge exists."""
    ids = list(fld.ids())
    if len(ids) < 2:
        return None
    for _ in range(40):
        a, b = rng.sample(ids, 2)
        if fld.cx.is_convex(fld.part(a) | fld.part(b)):
            return fld.merge(a, b)
    return None


def grid_complex(n):
    """An n x n grid of squares, each cut into two triangles along its
    diagonal; vertex (i, j) has id i * (n + 1) + j."""
    triangles = []
    for i in range(n):
        for j in range(n):
            a = i * (n + 1) + j
            triangles += [[a, a + 1, a + n + 2], [a, a + n + 1, a + n + 2]]
    return mv.Complex.from_maximal(triangles)


def _has_closed_path(cx, matched):
    """True iff the Hasse diagram, with the edge of every matched (facet,
    cofacet) pair turned upward, has a directed cycle (Kahn's algorithm)."""
    succ = {s: [] for s in cx.simplices}
    for tau in cx.simplices:
        for rho in facets(tau):
            if matched.get(rho) == tau:
                succ[rho].append(tau)
            else:
                succ[tau].append(rho)
    indegree = {s: 0 for s in cx.simplices}
    for targets in succ.values():
        for t in targets:
            indegree[t] += 1
    ready = [s for s, d in indegree.items() if not d]
    seen = 0
    while ready:
        seen += 1
        for t in succ[ready.pop()]:
            indegree[t] -= 1
            if not indegree[t]:
                ready.append(t)
    return seen < len(cx)


def random_gradient_field(rng, cx):
    """A gradient field: singletons and (facet, cofacet) pairs of an acyclic
    matching, grown greedily from the facet pairs in random order.  The Hasse
    diagram, each edge pointing down except along a matched pair, is kept
    acyclic across candidates: turning the edge tau -> rho upward closes a
    cycle iff tau reaches rho without it."""
    candidates = [(rho, tau) for tau in sorted(cx.simplices) for rho in facets(tau)]
    rng.shuffle(candidates)
    succ = {s: set(facets(s)) for s in cx.simplices}
    matched = {}
    used = set()
    for rho, tau in candidates:
        if rho in used or tau in used:
            continue
        succ[tau].discard(rho)
        if rho in _reachable(succ, [tau]):
            succ[tau].add(rho)
        else:
            succ[rho].add(tau)
            matched[rho] = tau
            used |= {rho, tau}
    return mv.MultivectorField.from_parts(cx, [[rho, tau] for rho, tau in matched.items()],
                                          complete_singletons=True)


def kahn_gradient_field(rng, cx):
    """The former `random_gradient_field`, the oracle for it: one Kahn pass
    over the whole complex per candidate pair."""
    candidates = [(rho, tau) for tau in sorted(cx.simplices) for rho in facets(tau)]
    rng.shuffle(candidates)
    matched = {}
    used = set()
    for rho, tau in candidates:
        if rho in used or tau in used:
            continue
        matched[rho] = tau
        if _has_closed_path(cx, matched):
            del matched[rho]
        else:
            used |= {rho, tau}
    return mv.MultivectorField.from_parts(cx, [[rho, tau] for rho, tau in matched.items()],
                                          complete_singletons=True)


def grid_scene(rng, n=4, steps=4, p=2):
    """Fields on grid_complex(n): a random gradient field, then `steps` random
    atomic splits and merges.  Returns (fields, seed), with a seed isolated
    under the first field at characteristic p, or None if none was found."""
    fields = [random_gradient_field(rng, grid_complex(n))]
    for _ in range(20 * steps):
        if len(fields) > steps:
            break
        move = random_refinement if rng.random() < 0.5 else random_coarsening
        nxt = move(rng, fields[-1])
        if nxt is not None:
            fields.append(nxt)
    seed = random_isolated_set(rng, fields[0], p)
    return None if seed is None else (fields, seed)


def set_changing_steps(rng, fld, current, p=2, steps=3):
    """Up to `steps` fields, each one atomic step from the one before (`fld`
    first), that continue the isolated invariant set `current` and change
    it: a merge of two adjacent multivectors inside it (case b) or a split
    of one of its critical multivectors (case a) that makes a block regular
    with no face or no coface in the rest of the set.  A peel starts only at
    such a block, since every other block keeps its neighbours, so this is
    exactly when S', the invariant part of the set under the new field,
    differs from it.  The steps stop early at an empty set or when no such
    step exists."""
    out = []
    while current and len(out) < steps:
        cx, ident = fld.cx, fld.mv_id

        def loose(block):  # no neighbour in the rest of the convex set on one side
            return not (any(f in current and f not in block for s in block for f in facets(s))
                        and any(c in current and c not in block
                                for s in block for c in cx.cofacets(s)))

        adjacent = {tuple(sorted((ident(f), ident(s)))) for s in current
                    for f in facets(s) if f in current and ident(f) != ident(s)}
        moves = [(fld.merge, (a, b), [fld.part(a) | fld.part(b)]) for a, b in sorted(adjacent)]
        for i in sorted({ident(s) for s in current}):
            part = fld.part(i)
            if len(part) > 1 and fld.is_critical(i, p):
                moves += [(fld.split, (i, frozenset(off)), [frozenset(off), part - set(off)])
                          for k in range(1, len(part))
                          for off in itertools.combinations(sorted(part), k)
                          if min(part) in off]
        rng.shuffle(moves)
        for make, args, blocks in moves:
            if any(map(loose, blocks)) and all(map(cx.is_convex, blocks)):
                nxt = make(*args)
                if any(loose(b) and not nxt.is_critical(min(b), p) for b in blocks):
                    break
        else:
            break
        result = mv.invariant_part(nxt, current, p)
        assert result != current
        out.append(nxt)
        fld, current = nxt, result
    return out


# ------------------------------------------------------ convexity oracles

def mouth_is_convex(cx, subset):
    """The former `Complex.is_convex`: only a mouth simplex (in cl(A) \\ A)
    can lie between two members, so A is convex iff no mouth simplex has a
    face in A.  It fills the closure table of every member and mouth simplex."""
    subset = cx.check_subset(subset)
    return all(subset.isdisjoint(cx.closure_of(rho)) for rho in cx.mouth(subset))


def full_convexity_report(fld):
    """Check every multivector with the mouth oracle, in part-id order, with
    neither the report stored on the field nor its cached ids."""
    problems = []
    for ident in sorted({fld.mv_id(s) for s in fld.cx.simplices}):
        part = fld.part(ident)
        if not mouth_is_convex(fld.cx, part):
            problems.append(f"multivector {sorted(part)} is not convex")
    return mv.CheckReport(not problems, tuple(problems))


def diff_rearrangement(field, other):
    """The former `classify_rearrangement`: the one split or merge that takes
    `field` to `other`, found by diffing their parts."""
    if field.cx != other.cx:
        raise mv.NotAtomicError("fields live on different complexes")
    old, new = set(field.parts()), set(other.parts())
    gone = sorted(old - new, key=sorted)
    born = sorted(new - old, key=sorted)
    if len(gone) == 1 and len(born) == 2 and born[0] | born[1] == gone[0]:
        return mv.AtomicRearrangement("refinement", gone[0], tuple(born))
    if len(gone) == 2 and len(born) == 1 and gone[0] | gone[1] == born[0]:
        return mv.AtomicRearrangement("coarsening", born[0], tuple(gone))
    raise mv.NotAtomicError(
        f"fields differ by {len(gone)} removed / {len(born)} added multivectors")


def scan_refinement_path(field):
    """The former `refinement_path`: at each step, sort every id and split the
    least non-singleton multivector at its least maximal element."""
    path = [field]
    current = field
    while True:
        targets = [i for i in current.ids() if len(current.part(i)) > 1]
        if not targets:
            return path
        ident = targets[0]
        part = current.part(ident)
        sigma = min(s for s in part if not any(c in part for c in current.cx.cofacets(s)))
        current = current.split(ident, {sigma})
        path.append(current)


def bench_scenes():
    """perfbench/scenes.py as a module, run from its source so that nothing is
    written under perfbench/ (the generators import nothing from mvtrack)."""
    path = Path(__file__).parent.parent / "perfbench" / "scenes.py"
    module = sys.modules.get("bench_scenes")
    if module is None:
        module = types.ModuleType("bench_scenes")
        module.__file__ = str(path)
        sys.modules[module.__name__] = module  # dataclasses look the module up
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


# ----------------------------------------------- invariant-part oracles

def step_graph(fld, subset):
    """Successor lists of the dynamics restricted to `subset`."""
    return {s: sorted(fld.fmap(s) & subset) for s in subset}


def _reachable(adj, seeds):
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _reverse(adj):
    rev = {s: [] for s in adj}
    for s, nbrs in adj.items():
        for t in nbrs:
            rev[t].append(s)
    return rev


def strongly_connected_components(adj):
    """Tarjan's algorithm, iterative to sidestep recursion limits."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    counter = 0
    out = []
    for root in adj:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    comp.add(top)
                    if top == node:
                        break
                out.append(comp)
    return out


def _critical_ids(fld, subset, p):
    """The multivectors meeting `subset` that are critical, each asked once:
    criticality is computed on every call, not stored."""
    return {i for i in {fld.mv_id(s) for s in subset} if fld.is_critical(i, p)}


def scc_invariant_part(fld, subset, p=2):
    """The former library reduction: simplices that see an essential core in
    both directions, where the core collects the simplices of critical
    multivectors and every strongly connected component of the step graph
    that meets more than one multivector."""
    subset = frozenset(subset)
    if not subset:
        return frozenset()
    adj = step_graph(fld, subset)
    critical = _critical_ids(fld, subset, p)
    core = {s for s in subset if fld.mv_id(s) in critical}
    for comp in strongly_connected_components(adj):
        if len({fld.mv_id(s) for s in comp}) > 1:
            core |= comp
    if not core:
        return frozenset()
    return frozenset(_reachable(adj, core) & _reachable(_reverse(adj), core))


def closure_invariant_part(fld, subset, p=2):
    """The former `invariant_part`: the peel of every block, each block
    linked to the blocks of every face of its members in the set."""
    cx = fld.cx
    subset = cx.check_subset(subset)
    succ = {fld.mv_id(s): set() for s in subset}
    pred = {b: set() for b in succ}
    for s in subset:
        b = fld.mv_id(s)
        for t in cx.closure_of(s) & subset:
            if fld.mv_id(t) != b:
                succ[b].add(fld.mv_id(t))
                pred[fld.mv_id(t)].add(b)
    seeds = [b for b in succ if not succ[b] or not pred[b]]
    return dynamics._peel(fld, subset, seeds, p, (succ, pred))


def _simple_cycles(adj):
    """All simple directed cycles (as node tuples), each rooted at its least node."""
    nodes = sorted(adj)
    order = {v: i for i, v in enumerate(nodes)}
    out = []
    for start in nodes:
        stack = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            for nxt in adj[node]:
                if order[nxt] < order[start]:
                    continue
                if nxt == start:
                    out.append(path)
                elif nxt not in path:
                    stack.append((nxt, path + (nxt,)))
    return out


def _shortest_path(adj, src, dst):
    if src == dst:
        return (src,)
    parent = {src: None}
    queue = [src]
    while queue:
        node = queue.pop(0)
        for nxt in adj[node]:
            if nxt not in parent:
                parent[nxt] = node
                if nxt == dst:
                    path = [dst]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                queue.append(nxt)
    return None


def _lasso_essential(c1, p1, p2, c2, mv_of, crit):
    """Evaluate the essential-solution condition on the bi-infinite solution
    (c1 repeated) p1 p2 (c2 repeated), using periodicity to resolve the
    infinite quantifiers exactly."""
    i = c1.index(p1[0])
    c1r = c1[i + 1:] + c1[:i + 1]          # one period, ending at p1[0]
    j = c2.index(p2[-1])
    c2r = c2[j:] + c2[:j]                  # one period, starting at p2[-1]
    seq = list(c1r) + list(p1[1:]) + list(p2[1:]) + list(c2r[1:])
    mvs1 = {mv_of[u] for u in c1}
    mvs2 = {mv_of[u] for u in c2}
    for k, node in enumerate(seq):
        if crit[node]:
            continue
        ident = mv_of[node]
        earlier = mvs1 | {mv_of[x] for x in seq[:k]}
        later = mvs2 | {mv_of[x] for x in seq[k + 1:]}
        if earlier <= {ident} or later <= {ident}:
            return False
    return True


def brute_invariant_part(fld, subset, p=2):
    """Definition-level invariant part: search for an eventually-periodic
    essential solution through every simplex."""
    subset = frozenset(subset)
    if not subset:
        return frozenset()
    adj = step_graph(fld, subset)
    critical = _critical_ids(fld, subset, p)
    crit = {s: fld.mv_id(s) in critical for s in subset}
    mv_of = {s: fld.mv_id(s) for s in subset}
    cycles = _simple_cycles(adj)
    assert len(cycles) < 20000, "instance too dense for the brute-force oracle"
    reach = {s: _reachable(adj, [s]) for s in subset}
    result = set()
    for sigma in subset:
        into = [c for c in cycles if any(sigma in reach[u] for u in c)]
        outof = [c for c in cycles if any(u in reach[sigma] for u in c)]
        found = False
        for c1 in into:
            u1 = next(u for u in c1 if sigma in reach[u])
            p1 = _shortest_path(adj, u1, sigma)
            for c2 in outof:
                u2 = next(u for u in c2 if u in reach[sigma])
                p2 = _shortest_path(adj, sigma, u2)
                if _lasso_essential(c1, p1, p2, c2, mv_of, crit):
                    found = True
                    break
            if found:
                break
        if found:
            result.add(sigma)
    return frozenset(result)


# ------------------------------------------------ loader oracle

def normalizing_parse_plain(raw, labels, *_members):
    """The former `io._parse_plain`: every simplex sorted, and checked for a
    repeated vertex, whatever the complex holds.  It takes and ignores the
    member set the library's parser reads, so it can stand in for it."""
    if not set(map(type, raw)) <= {list} or not all(raw):
        return None
    tokens = list(itertools.chain.from_iterable(raw))
    kinds = set(map(type, tokens))
    if kinds == {int}:
        out = list(map(tuple, map(sorted, raw)))
    elif kinds == {str} and labels and labels.keys() >= set(tokens):
        get = labels.__getitem__
        out = [tuple(sorted(map(get, s))) for s in raw]
    else:
        return None
    return out if sum(map(len, map(set, out))) == len(tokens) else None


# ------------------------------------------------ eager complex oracle

class EagerComplex:
    """The former `Complex` construction: every simplex normalized and its
    facets checked, then the sorted, closure and cofacet tables built in
    full.  The library now adopts sets that are closed by construction and
    fills these tables on demand."""

    def __init__(self, simplices):
        sset = frozenset(mv.simplex(s) for s in simplices)
        for s in sset:
            for f in facets(s):
                if f not in sset:
                    raise ValueError(f"not closed under faces: {f} missing (face of {s})")
        self.simplices = sset
        self.dim = max((len(s) - 1 for s in sset), default=-1)
        self.sorted = tuple(sorted(sset))
        self.closure_of = {s: frozenset(proper_faces(s)) | {s} for s in sset}
        cof = {s: [] for s in sset}
        for s in sset:
            for f in facets(s):
                cof[f].append(s)
        self.cofacets = {s: tuple(sorted(v)) for s, v in cof.items()}


def per_simplex_closure(maximal):
    """The former `Complex._from_normalized` after `from_maximal`'s
    normalization: each listed simplex not yet a member adds itself and its
    proper faces, refused before one face is built if it alone has more than
    MAX_FACES, and the listing is refused once it passes MAX_FACES simplices."""
    bound = mv.complexes.MAX_FACES
    sset = set()
    for s in map(mv.simplex, maximal):
        if s not in sset:
            if 2 ** len(s) - 1 <= bound:
                sset.update([s], proper_faces(s))
            if s not in sset or len(sset) > bound:
                raise ValueError(f"the listed simplices have more than MAX_FACES = {bound} faces")
    return frozenset(sset)


def all_faces(maximal):
    """Every non-empty face of the given simplices, by vertex subsets."""
    return {face for m in maximal for k in range(1, len(set(m)) + 1)
            for face in itertools.combinations(sorted(set(m)), k)}


# ------------------------------------------------------- subset enumeration

def all_subsets(cx):
    simplices = sorted(cx.simplices)
    for mask in range(1 << len(simplices)):
        yield frozenset(s for i, s in enumerate(simplices) if mask >> i & 1)


def star(cx, subset):
    """Every simplex having a member as a face, the members included."""
    out = set(cx.check_subset(subset))
    stack = list(out)
    while stack:
        for c in cx.cofacets(stack.pop()):
            if c not in out:
                out.add(c)
                stack.append(c)
    return frozenset(out)


def is_compatible(fld, subset):
    """True iff the set is a union of whole multivectors."""
    subset = fld.cx.check_subset(subset)
    return all(fld.part_of(s) <= subset for s in subset)


def closed_subsets(cx):
    return [sub for sub in all_subsets(cx) if cx.is_closed(sub)]


def brute_hull(fld, seed):
    """Intersection of every convex compatible superset."""
    seed = frozenset(seed)
    out = frozenset(fld.cx.simplices)
    for sub in all_subsets(fld.cx):
        if seed <= sub and is_compatible(fld, sub) and fld.cx.is_convex(sub):
            out &= sub
    return out


def alternating_hull(fld, seed):
    """The former `hull`: alternate adding the multivector of every member
    with the convex hull closure(A) & star(A), the simplices lying between
    two members, over the whole set, until neither adds anything."""
    cx = fld.cx
    out = frozenset(seed)
    while True:
        grown = out.union(*(fld.part_of(s) for s in out))
        grown = cx.closure(grown) & star(cx, grown)
        if grown == out:
            return out
        out = grown


def enumerate_index_pairs(fld, subset, p=2, closed=None):
    """Every (P, E) that is an index pair for `subset` under `fld`."""
    closed = closed_subsets(fld.cx) if closed is None else closed
    out = []
    for pset in closed:
        if not subset <= pset:
            continue
        for eset in closed:
            if eset <= pset and not (subset & eset):
                if dynamics.validate_index_pair(fld, pset, eset, subset, p):
                    out.append((pset, eset))
    return out


def isolated_invariant_sets(fld, p=2):
    """All isolated invariant sets of a field (unions of multivectors that
    are convex and invariant)."""
    ids = fld.ids()
    out = []
    for count in range(len(ids) + 1):
        for combo in itertools.combinations(ids, count):
            union = frozenset().union(*(fld.part(i) for i in combo)) if combo else frozenset()
            if fld.cx.is_convex(union) and mv.invariant_part(fld, union, p) == union:
                out.append(union)
    return out


def _set_partitions(items):
    """Every partition of the list `items` into blocks, each once."""
    if not items:
        yield []
        return
    for blocks in _set_partitions(items[1:]):
        yield [[items[0]], *blocks]
        for i in range(len(blocks)):
            yield [*blocks[:i], [items[0], *blocks[i]], *blocks[i + 1:]]


def convex_fields(cx):
    """Every field on `cx` whose multivectors are all convex, in a fixed order."""
    return [mv.MultivectorField.from_parts(cx, blocks)
            for blocks in _set_partitions(sorted(cx.simplices))
            if all(cx.is_convex(frozenset(block)) for block in blocks)]


def atomic_neighbours(fld):
    """The fields one convex split or merge from `fld`, made by `split` and
    `merge`: each split once, named by the half holding the least simplex of
    the multivector, and each merge of two multivectors with a convex union."""
    cx, out = fld.cx, []
    for a in fld.ids():
        least, *rest = sorted(fld.part(a))
        for k in range(len(rest)):
            for more in itertools.combinations(rest, k):
                off = frozenset((least, *more))
                if cx.is_convex(off) and cx.is_convex(fld.part(a) - off):
                    out.append(fld.split(a, off))
    out += [fld.merge(a, b) for a, b in itertools.combinations(fld.ids(), 2)
            if cx.is_convex(fld.part(a) | fld.part(b))]
    return out


def small_runs(cx, p=2, stride=1):
    """Every `stride`-th two-field run on a small complex, as (fields, seed):
    for each convex field, each nonempty isolated invariant set of it as the
    seed and each of its atomic neighbours as the next field, in a fixed
    order.  Stride 1 is the exhaustive sweep."""
    def every():
        for fld in convex_fields(cx):
            seeds = [seed for seed in isolated_invariant_sets(fld, p) if seed]
            neighbours = atomic_neighbours(fld) if seeds else []
            for seed in seeds:
                for nxt in neighbours:
                    yield [fld, nxt], seed
    return itertools.islice(every(), 0, None, stride)


# ------------------------------------------------------ reference protocol
# Built from the oracles above and the paper's definitions; it takes nothing
# from mvtrack.tracking or mvtrack.dynamics but the IndexPair data type.

def fixpoint_hull(fld, seed):
    """Least convex compatible superset, by iterating the two definitions:
    add the multivector of every member, then every simplex lying between two
    members (by vertex sets).  `brute_hull` enumerates every subset, so it is
    this oracle's oracle on small complexes."""
    out = frozenset(seed)
    while True:
        grown = [set(s) for s in out.union(*(fld.part_of(s) for s in out))]
        grown = frozenset(s for s in fld.cx.simplices
                          if any(a <= set(s) for a in grown) and any(set(s) <= b for b in grown))
        if grown == out:
            return out
        out = grown


def oracle_pair_problems(fld, pair, subset, p=2, nbhd=None):
    """The failed conditions of `pair` as an index pair for `subset` inside
    `nbhd` (P by default): closedness, images, exits, re-entry into N outside
    P, and, unless `subset` is None, Inv(P \\ E) = subset by `scc_invariant_part`."""
    pset, eset = pair.P, pair.E
    n = pset if nbhd is None else frozenset(nbhd)
    checks = [("closedness", all(all_faces(x) <= x for x in (pset, eset, n)) and pset <= n),
              ("images", all(fld.fmap(s) <= n for s in pset - eset)),
              ("exits", all(fld.fmap(s) & n <= eset for s in eset)),
              ("re-entry", all(fld.fmap(s) & n <= pset for s in pset)),
              ("invariant part", subset is None
               or scc_invariant_part(fld, pset - eset, p) == subset)]
    return [name for name, ok in checks if not ok]


def oracle_isolates(fld, nbhd, subset):
    """N isolates S: N is closed, the image of S lies in N, and no path of
    the step graph on N leaves S and comes back."""
    if not all_faces(nbhd) <= nbhd or not all(fld.fmap(s) <= nbhd for s in subset):
        return False
    adj = step_graph(fld, nbhd)
    leaving = {t for s in subset for t in adj[s]} - subset
    return not _reachable(adj, leaving) & subset


def _pushed(fld, pair, nbhd):
    adj = step_graph(fld, nbhd)
    return IndexPair(_reachable(adj, pair.P), _reachable(adj, pair.E))


def reference_protocol(fields, seed, p=2, heuristic_g=False):
    """The tracking protocol from the definitions, as `run_protocol`'s oracle.

    Each step is classified by diffing parts.  Continuation (cases a-d) takes
    one pair (P, E) isolating S under the first field, and S' = Inv(P \\ E)
    under the next: the canonical pair of S in cases a-c, of the hull in case
    d once the hull's invariant part is S.  Failing that, case f connects
    through push-forwards in cl S | cl S' when it isolates both, and case g
    is unresolved or, with `heuristic_g`, emits the raw meet.  The pairs and
    tags are those of `run_protocol`; every pair but the naive meet is
    checked in full, the meet of case f under the common refinement.
    Returns (steps, stopped, barcode), a step being (case, result, pairs, tags).
    """
    cx = fields[0].cx

    def canonical(subset):
        closure = frozenset(all_faces(subset))
        return IndexPair(closure, closure - subset)

    checked = {}  # each distinct check once; holding the field keeps its id unique

    def check(fld, pair, subset, what, nbhd=None):
        key = (id(fld), pair, subset, nbhd)
        if key not in checked:
            checked[key] = fld
            problems = oracle_pair_problems(fld, pair, subset, p, nbhd)
            assert not problems, f"step {index}: {what} fails {problems}"

    def chain(fld, subset, pair):
        pushed = _pushed(fld, canonical(subset), pair.P)
        out = [canonical(subset), pushed, IndexPair(pair.P & pushed.P, pair.E & pushed.E), pair]
        for pr in out:
            check(fld, pr, subset, "chain pair")
        return out

    index, current = 0, frozenset(seed)
    check(fields[0], canonical(current), current, "seed")
    pairs, tags, steps, stopped = [canonical(current)], [PairTag(1, "canonical")], [], "completed"
    for index, (fld, nxt) in enumerate(zip(fields, fields[1:]), start=1):
        move = diff_rearrangement(fld, nxt)
        merged, connecting = move.whole, None
        if move.kind == "refinement" or merged <= current or not merged & current:
            case = "a" if move.kind == "refinement" else "b" if merged <= current else "c"
            connecting = canonical(current)
        else:
            hull_set = fixpoint_hull(nxt, current | merged)
            if scc_invariant_part(fld, hull_set, p) == current:
                case, connecting = "d", canonical(hull_set)
        if connecting is not None:
            result = scc_invariant_part(nxt, connecting.P - connecting.E, p)
            assert case != "c" or result == current, f"step {index}: case c changed the set"
            out, back = chain(fld, current, connecting), chain(nxt, result, connecting)
            new = out[1:] + back[-2::-1]
            roles = [(0, "pushforward"), (0, "meet"), (0, "connecting"),
                     (1, "meet"), (1, "pushforward"), (1, "canonical")]
        else:
            result = scc_invariant_part(nxt, hull_set, p)
            closing = canonical(result)
            ambient = canonical(current).P | closing.P
            if oracle_isolates(fld, ambient, current) and oracle_isolates(nxt, ambient, result):
                case = "f"
                pf1, pf2 = _pushed(fld, canonical(current), ambient), _pushed(nxt, closing, ambient)
                check(fld, pf1, current, "push-forward pair", ambient)
                check(nxt, pf2, result, "push-forward pair", ambient)
                groups = {}
                for s in cx.simplices:
                    groups.setdefault((fld.mv_id(s), nxt.mv_id(s)), []).append(s)
                meet = IndexPair(pf1.P & pf2.P, pf1.E & pf2.E)
                check(mv.MultivectorField.from_parts(cx, groups.values()), meet, None,
                      "meet", ambient)
                check(nxt, closing, result, "canonical pair")
                new = [pf1, meet, pf2, closing]
                roles = [(0, "pushforward"), (1, "meet"), (1, "pushforward"), (1, "canonical")]
            elif heuristic_g:
                case = "g"
                check(nxt, closing, result, "canonical pair")
                new = [IndexPair(canonical(current).P & closing.P,
                                 canonical(current).E & closing.E), closing]
                roles = [(1, "naive-meet"), (1, "canonical")]
            else:
                steps.append(("g", None, [], []))
                stopped = "unresolved"
                break
        new_tags = [PairTag(index + shift, role) for shift, role in roles]
        steps.append((case, result, new, new_tags))
        pairs += new
        tags += new_tags
        current = result
        if not current:
            stopped = "emptied"
            break
    return steps, stopped, pair_zigzag_barcode(PairZigzag(cx, pairs, tags), p)


# ------------------------------------------------ dense elimination oracle
# Dense int64 elimination: exact only while p * p fits in int64.

def _inv_mod(a: int, p: int) -> int:
    return pow(a, p - 2, p)


def row_reduce(mat, p):
    """Reduced row echelon form mod p; returns (rref, pivot column list)."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * _inv_mod(int(a[r, c]), p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank(rows, p=2):
    return len(algebra.row_reduce(rows, p, record=False)[0])


def dense(cols, n_rows):
    """Sparse {row: coeff} columns as a dense n_rows x len(cols) matrix."""
    mat = np.zeros((n_rows, len(cols)), dtype=np.int64)
    for j, col in enumerate(cols):
        for r, x in col.items():
            mat[r, j] = x
    return mat


def sparse_arrows(arrows):
    """Dense zigzag arrows as the library's sparse columns."""
    return [(direction, [{r: int(x) for r, x in enumerate(col) if x}
                         for col in np.asarray(mat).T.tolist()])
            for direction, mat in arrows]


def dense_arrows(dims, arrows):
    """The library's sparse zigzag arrows as dense matrices."""
    return [(direction, dense(cols, dims[i + 1] if direction == FORWARD else dims[i]))
            for i, (direction, cols) in enumerate(arrows)]


def dense_rank(mat, p=2):
    a = np.asarray(mat)
    if a.size == 0:
        return 0
    return len(row_reduce(a, p)[1])


def nullspace(mat, p):
    """Columns form a basis of the kernel of mat over GF(p)."""
    a = np.asarray(mat, dtype=np.int64)
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    rref, pivots = row_reduce(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = (-int(rref[i, fc])) % p
    return basis


def solve(mat, rhs, p):
    """One solution of mat @ x = rhs over GF(p), or None if inconsistent."""
    a = np.asarray(mat, dtype=np.int64)
    b = np.asarray(rhs, dtype=np.int64).reshape(-1, 1)
    if a.shape[1] == 0:
        return None if np.any(b % p) else np.zeros((0,), dtype=np.int64)
    aug, pivots = row_reduce(np.hstack([a, b]), p)
    if a.shape[1] in pivots:
        return None
    x = np.zeros(a.shape[1], dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = aug[i, a.shape[1]]
    return x


def boundary_matrix(chain, lower, p):
    """Boundary operator from span(chain) to span(lower), faces outside `lower` dropped.

    Sign convention: removing the vertex at position i contributes (-1)^i.
    """
    index = {s: i for i, s in enumerate(lower)}
    mat = np.zeros((len(lower), len(chain)), dtype=np.int64)
    for j, s in enumerate(chain):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            row = index.get(face)
            if row is not None:
                mat[row, j] = (mat[row, j] + (-1) ** i) % p
    return mat


def _by_dim(simplices, dim):
    out = [[] for _ in range(dim + 1)]
    for s in sorted(simplices):
        out[len(s) - 1].append(s)
    return out


def _augmented_boundary(by_dim, k, p):
    """Matrix of the k-th boundary map; in degree 0 the augmentation."""
    if k == 0:
        return np.ones((1, len(by_dim[0])), dtype=np.int64)
    return boundary_matrix(by_dim[k], by_dim[k - 1], p)


def dense_relative_betti(cx, pset, eset, p=2):
    """Betti numbers of (P, E) by rank counting on dense boundary matrices."""
    by_dim = _by_dim(frozenset(pset) - frozenset(eset), cx.dim)
    ranks = [0] * (cx.dim + 2)
    for k in range(1, cx.dim + 1):
        if by_dim[k] and by_dim[k - 1]:
            ranks[k] = dense_rank(boundary_matrix(by_dim[k], by_dim[k - 1], p), p)
    return tuple(len(by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(cx.dim + 1))


def dense_reduced_betti(cx, p=2):
    """Reduced Betti numbers by rank counting on dense boundary matrices."""
    by_dim = _by_dim(cx.simplices, cx.dim)
    ranks = [0] * (cx.dim + 2)
    for k in range(cx.dim + 1):
        if by_dim[k]:
            ranks[k] = dense_rank(_augmented_boundary(by_dim, k, p), p)
    return tuple(len(by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(cx.dim + 1))


def dense_induced_rank(small, big, k, p=2):
    """Rank of H_k(small) -> H_k(big) (reduced homology, small a subcomplex):
    dim(Z_k(small) + B_k(big)) - dim B_k(big), all over the k-simplices of big."""
    if k > small.dim:
        return 0
    small_by, big_by = _by_dim(small.simplices, small.dim), _by_dim(big.simplices, big.dim)
    cycles = nullspace(_augmented_boundary(small_by, k, p), p)
    index = {s: i for i, s in enumerate(big_by[k])}
    embedded = np.zeros((len(big_by[k]), cycles.shape[1]), dtype=np.int64)
    for i, s in enumerate(small_by[k]):
        embedded[index[s]] = cycles[i]
    if k + 1 <= big.dim:
        bnd = boundary_matrix(big_by[k + 1], big_by[k], p)
    else:
        bnd = np.zeros((len(big_by[k]), 0), dtype=np.int64)
    return dense_rank(np.hstack([embedded, bnd]), p) - dense_rank(bnd, p)


def cone_pair(cx, pset, eset, apex=None):
    """The complex P together with a cone over E from a fresh apex vertex.

    Reduced homology of the result equals relative_homology(cx, P, E).
    Pass the same apex for every pair of a zigzag so that pair inclusions
    become complex inclusions.  Checks the pair and the apex.  The library
    built its homology bases on these cones before it reduced each pair's
    relative chain complex; the cone oracles below still do.
    """
    pset, eset = algebra._validate_pair(cx, pset, eset)
    if apex is None:
        apex = max(vertices(cx), default=-1) + 1
    if (apex,) in cx.simplices:
        raise ValueError(f"apex {apex} collides with an existing vertex")
    # P, the apex and the joins s + apex for s in E form a closed set; a
    # join needs sorting only below the apex
    coned = set(pset)
    coned.add((apex,))
    coned.update(s + (apex,) if s[-1] < apex else mv.simplex(s + (apex,)) for s in eset)
    cone = mv.Complex.__new__(mv.Complex)
    cone._adopt(frozenset(coned))  # normalized and closed, so unchecked
    return cone


def induced_map_rank(cx, pair_a, pair_b, direction, p=2):
    """Per-dimension rank of the inclusion-induced map between two pairs,
    through the coned complexes and `dense_induced_rank`.

    `direction` names the arrow: FORWARD maps pair_a into pair_b and
    requires that inclusion; BACKWARD the reverse.
    """
    if direction == FORWARD:
        small, big = pair_a, pair_b
    elif direction == BACKWARD:
        small, big = pair_b, pair_a
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if not big.includes(small):
        raise ValueError("pairs are not nested in the claimed direction")
    apex = max(vertices(cx), default=-1) + 1
    small_cx = cone_pair(cx, small.P, small.E, apex=apex)
    big_cx = cone_pair(cx, big.P, big.E, apex=apex)
    return tuple(dense_induced_rank(small_cx, big_cx, k, p) for k in range(cx.dim + 1))


# ------------------------------------------------------- zigzag oracle

def per_position_barcode(zz, p=2):
    """The barcode by a sweep over every position of `zz`, each identity
    arrow between equal consecutive pairs included: the library's sweep
    before it took one position per run of equal pairs."""
    bases = [algebra.HomologyBasis(zz.cx, pair.P, pair.E, p) for pair in zz.distinct]
    betti = [tuple(bases[j].betti) for j in zz.at]
    bars = []
    for k in range(zz.cx.dim + 1):
        dims = [bt[k] for bt in betti]
        if not any(dims):
            continue
        arrows = []
        for i, direction in enumerate(zz.directions):
            a, b = zz.at[i], zz.at[i + 1]
            small, big = (a, b) if direction == FORWARD else (b, a)
            if small == big:
                cols = [{r: 1} for r in range(dims[i])]
            else:
                cols = algebra.induced_map(bases[small], bases[big], k)
            arrows.append((direction, cols))
        for (b, d), m in sorted(interval_multiplicities(dims, arrows, p).items()):
            bars.extend([Bar(k, b + 1, d + 1)] * m)
    bars.sort(key=lambda bar: (bar.dim, bar.birth, bar.death))
    steps = [t.field_index for t in zz.tags]
    step_map = steps if all(s is not None for s in steps) else None
    return Barcode(bars, len(zz), betti, step_map)


def dim_hom(rep_a, rep_b, p=2):
    """Dimension of the space of module morphisms rep_a -> rep_b.

    A morphism is one matrix per position commuting with every arrow; the
    commuting constraints form a linear system over GF(p).
    """
    dims_a, arrows_a = rep_a
    dims_b, arrows_b = rep_b
    n = len(dims_a)
    offs = [0]
    for i in range(n):
        offs.append(offs[-1] + dims_b[i] * dims_a[i])
    total = offs[-1]
    rows = []
    for i in range(n - 1):
        direction, mat_a = arrows_a[i]
        _, mat_b = arrows_b[i]
        if direction == FORWARD:
            src, dst = i, i + 1
        else:
            src, dst = i + 1, i
        # phi_dst @ mat_a == mat_b @ phi_src, entrywise
        for r in range(dims_b[dst]):
            for c in range(dims_a[src]):
                row = np.zeros(total, dtype=np.int64)
                for k in range(dims_a[dst]):
                    row[offs[dst] + r * dims_a[dst] + k] += mat_a[k, c]
                for k in range(dims_b[src]):
                    row[offs[src] + k * dims_a[src] + c] -= mat_b[r, k]
                rows.append(row % p)
    if total == 0:
        return 0
    if not rows:
        return total
    return nullspace(np.array(rows, dtype=np.int64), p).shape[1]


def interval_module(n, directions, birth, death):
    """The interval summand supported on positions [birth, death] (0-based)."""
    dims = [1 if birth <= i <= death else 0 for i in range(n)]
    arrows = []
    for i, direction in enumerate(directions):
        src, dst = (i, i + 1) if direction == FORWARD else (i + 1, i)
        mat = np.ones((dims[dst], dims[src]), dtype=np.int64)
        arrows.append((direction, mat))
    return dims, arrows


def oracle_multiplicities(dims, arrows, p=2):
    """Interval multiplicities through Hom-dimension counts.

    Solves sum_J hom(I, J) * m_J = hom(I, M) over all intervals I; the Hom
    matrix of interval modules is unitriangular in a suitable order, so the
    integer solution is unique and is verified exactly.
    """
    n = len(dims)
    directions = [a[0] for a in arrows]
    intervals = [(b, d) for b in range(n) for d in range(b, n)]
    reps = {iv: interval_module(n, directions, *iv) for iv in intervals}
    target = {iv: dim_hom(reps[iv], (dims, arrows), p) for iv in intervals}
    hom = {(i, j): dim_hom(reps[i], reps[j], p) for i in intervals for j in intervals}
    sol = _solve_rational([[hom[(i, j)] for j in intervals] for i in intervals],
                          [target[i] for i in intervals])
    assert all(x.denominator == 1 for x in sol)
    mult = {iv: int(x) for iv, x in zip(intervals, sol)}
    for i in intervals:  # verify the solution exactly
        assert sum(hom[(i, j)] * mult[j] for j in intervals) == target[i]
    assert all(m >= 0 for m in mult.values())
    for pos in range(n):
        assert sum(m for (b, d), m in mult.items() if b <= pos <= d) == dims[pos]
    return {iv: m for iv, m in mult.items() if m}


def _solve_rational(mat, rhs):
    """The unique solution of a nonsingular square system, by Gauss-Jordan
    elimination over the rationals."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    for c in range(n):
        r = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[r] = aug[r], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n] for row in aug]


def _window_rank(dims, arrows, b, d, p, iso):
    """Rank of limit -> colimit of the module restricted to positions [b, d]."""
    if any(dims[i] == 0 for i in range(b, d + 1)):
        return 0
    if b == d:
        return dims[b]
    if all(iso[i] for i in range(b, d)):
        return dims[b]
    offs = [0]
    for i in range(b, d + 1):
        offs.append(offs[-1] + dims[i])
    total = offs[-1]
    blocks = []
    rel_cols = []
    for i in range(b, d):
        direction, mat = arrows[i]
        if direction == FORWARD:
            src, dst = i - b, i - b + 1
        else:
            src, dst = i - b + 1, i - b
        rows = np.zeros((mat.shape[0], total), dtype=np.int64)
        rows[:, offs[src]:offs[src] + mat.shape[1]] = mat
        rows[:, offs[dst]:offs[dst] + mat.shape[0]] -= np.eye(mat.shape[0], dtype=np.int64)
        blocks.append(rows % p)
        for j in range(mat.shape[1]):
            col = np.zeros(total, dtype=np.int64)
            col[offs[dst]:offs[dst] + mat.shape[0]] = mat[:, j]
            col[offs[src] + j] -= 1
            rel_cols.append(col % p)
    lim = nullspace(np.vstack(blocks), p)
    if lim.shape[1] == 0:
        return 0
    lim_embedded = np.zeros((total, lim.shape[1]), dtype=np.int64)
    lim_embedded[offs[0]:offs[1], :] = lim[offs[0]:offs[1], :]
    rel = np.array(rel_cols, dtype=np.int64).T if rel_cols else np.zeros((total, 0), dtype=np.int64)
    return dense_rank(np.hstack([lim_embedded, rel]), p) - dense_rank(rel, p)


def windowed_multiplicities(dims, arrows, p=2):
    """Interval multiplicities through generalized ranks over windows.

    The rank of the canonical map from the limit to the colimit of the module
    restricted to [b, d] counts the bars containing that window, and
    inclusion-exclusion over the four windows [b-1..b] x [d..d+1] recovers the
    multiplicity of [b, d].  This was the library's algorithm before the
    left-to-right sweep; it costs a nullspace per window.
    """
    n = len(dims)
    iso = [mat.shape[0] == mat.shape[1] and dense_rank(mat, p) == mat.shape[0]
           for _, mat in arrows]
    ranks = {}
    for b in range(n):
        for d in range(b, n):
            r = _window_rank(dims, arrows, b, d, p, iso)
            ranks[(b, d)] = r
            if r == 0:
                break

    def get(b, d):
        return ranks.get((b, d), 0) if 0 <= b and d <= n - 1 else 0

    out = {}
    for b in range(n):
        for d in range(b, n):
            m = get(b, d) - get(b - 1, d) - get(b, d + 1) + get(b - 1, d + 1)
            assert m >= 0, f"negative multiplicity at window [{b}, {d}]"
            if m:
                out[(b, d)] = m
    return out


def random_module(rng, n, max_dim=3, p=2, degenerate=0.0):
    """A random zigzag module: dimensions, alternating arrows, random matrices.

    With probability `degenerate` an arrow is made rank-deficient: the zero
    matrix, or a matrix whose last column repeats its first.
    """
    dims = [rng.randint(0, max_dim) for _ in range(n)]
    arrows = []
    for i in range(n - 1):
        direction = rng.choice([FORWARD, BACKWARD])
        src, dst = (i, i + 1) if direction == FORWARD else (i + 1, i)
        mat = np.array([[rng.randrange(p) for _ in range(dims[src])]
                        for _ in range(dims[dst])], dtype=np.int64).reshape(dims[dst], dims[src])
        if degenerate and rng.random() < degenerate:
            if dims[src] > 1 and rng.random() < 0.5:
                mat[:, -1] = mat[:, 0]
            else:
                mat[:] = 0
        arrows.append((direction, mat))
    return dims, arrows
