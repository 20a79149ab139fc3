"""Derive the stored structure of the grid-index workload (grid_index.json).

Run once from the repository root:

    PYTHONPATH=src:. python3 perfbench/derive_grid_index.py > perfbench/grid_index.json

The seed is invariant_part(hull(centre box)) of the gradient-like field.  The
first step merges a multivector of the seed with a neighbour outside it and
is the first such merge, in id order, for which the protocol takes case f;
the second step splits a two-simplex multivector inside the new set and the
third merges it back.  The benchmark itself only reads the stored result, so
its inputs do not change when the program does.
"""

import json

import mvtrack as mv
from perfbench.scenes import Rng, closure, gradient_matching, grid_triangles

N, STRUCTURE_SEED, BOX = 12, 3, 8


def main():
    tris = grid_triangles(N)
    cx = mv.Complex.from_maximal(tris)
    pairs = gradient_matching(closure(tris), Rng(STRUCTURE_SEED))
    fld = mv.MultivectorField.from_parts(cx, [list(p) for p in pairs], complete_singletons=True)
    lo, hi = N // 2 - BOX // 2, N // 2 + (BOX + 1) // 2
    box = {s for s in cx.simplices
           if all(lo <= v // (N + 1) <= hi and lo <= v % (N + 1) <= hi for v in s)}
    seed = mv.invariant_part(fld, mv.hull(fld, frozenset(box)))
    for a in fld.ids():
        if not fld.part(a) <= seed:
            continue
        near = set()
        for s in fld.part(a):
            near |= set(cx.cofacets(s)) | cx.closure_of(s)
        for b in sorted({fld.mv_id(t) for t in near if t not in seed}):
            nxt = fld.merge(a, b)
            if mv.validate_field(nxt) and mv.track_step(fld, nxt, seed).case == "f":
                result = mv.track_step(fld, nxt, seed).result
                inside = [i for i in nxt.ids() if len(nxt.part(i)) == 2 and nxt.part(i) <= result]
                lo_s, hi_s = sorted(nxt.part(inside[len(inside) // 2]))
                ops = [["merge", [a, b]], ["split", [hi_s]], ["merge", [lo_s, hi_s]]]
                print(json.dumps({"n": N, "structure_seed": STRUCTURE_SEED, "box": BOX,
                                  "seed": sorted(seed), "ops": ops}))
                return
    raise SystemExit("no merge takes case f")


if __name__ == "__main__":
    main()
