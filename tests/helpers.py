"""Shared test utilities: brute-force oracles and random instance generators.

The oracles deliberately avoid the library's algorithmic shortcuts: the
invariant-part oracle searches for explicit eventually-periodic solutions
and evaluates the essential-solution condition position by position; the
hull oracle intersects all convex compatible supersets; the zigzag oracle
decomposes modules through Hom-space dimensions; the homology oracles use
dense row elimination (numpy int64, so only for small primes) instead of
the library's sparse column reduction.
"""

from __future__ import annotations

import itertools

import numpy as np

import mvtrack as mv
from mvtrack.zigzag import BACKWARD, FORWARD


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
    fld = mv.MultivectorField.singleton_field(cx)
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


# ------------------------------------------------ invariant-part oracle

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
    adj = {s: sorted(fld.fmap(s) & subset) for s in subset}
    crit = {s: fld.is_critical(fld.mv_id(s), p) for s in subset}
    mv_of = {s: fld.mv_id(s) for s in subset}
    cycles = _simple_cycles(adj)
    assert len(cycles) < 20000, "instance too dense for the brute-force oracle"
    reach = {s: mv.dynamics._reachable(adj, [s]) for s in subset}
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


# ------------------------------------------------------- subset enumeration

def all_subsets(cx):
    simplices = sorted(cx.simplices)
    for mask in range(1 << len(simplices)):
        yield frozenset(s for i, s in enumerate(simplices) if mask >> i & 1)


def closed_subsets(cx):
    return [sub for sub in all_subsets(cx) if cx.is_closed(sub)]


def brute_hull(fld, seed):
    """Intersection of every convex compatible superset."""
    seed = frozenset(seed)
    out = frozenset(fld.cx.simplices)
    for sub in all_subsets(fld.cx):
        if seed <= sub and fld.is_compatible(sub) and fld.cx.is_convex(sub):
            out &= sub
    return out


def enumerate_index_pairs(fld, subset, p=2, closed=None):
    """Every (P, E) that is an index pair for `subset` under `fld`."""
    closed = closed_subsets(fld.cx) if closed is None else closed
    out = []
    for pset in closed:
        if not subset <= pset:
            continue
        for eset in closed:
            if eset <= pset and not (subset & eset):
                if mv.validate_index_pair(fld, pset, eset, subset, p):
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
            if fld.cx.is_convex(union) and mv.is_invariant(fld, union, p):
                out.append(union)
    return out


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


# ------------------------------------------------------- zigzag oracle

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
    mat = np.array([[hom[(i, j)] for j in intervals] for i in intervals], dtype=float)
    rhs = np.array([target[i] for i in intervals], dtype=float)
    sol = np.linalg.solve(mat, rhs)
    mult = {iv: int(round(x)) for iv, x in zip(intervals, sol)}
    for i in intervals:  # verify the rounded solution exactly
        assert sum(hom[(i, j)] * mult[j] for j in intervals) == target[i]
    assert all(m >= 0 for m in mult.values())
    for pos in range(n):
        assert sum(m for (b, d), m in mult.items() if b <= pos <= d) == dims[pos]
    return {iv: m for iv, m in mult.items() if m}


def random_module(rng, n, max_dim=3, p=2):
    """A random zigzag module: dimensions, alternating arrows, random matrices."""
    dims = [rng.randint(0, max_dim) for _ in range(n)]
    arrows = []
    for i in range(n - 1):
        direction = rng.choice([FORWARD, BACKWARD])
        src, dst = (i, i + 1) if direction == FORWARD else (i + 1, i)
        mat = np.array([[rng.randrange(p) for _ in range(dims[src])]
                        for _ in range(dims[dst])], dtype=np.int64).reshape(dims[dst], dims[src])
        arrows.append((direction, mat))
    return dims, arrows
