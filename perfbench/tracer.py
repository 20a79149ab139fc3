"""Per-layer tracing from outside the program.

`Tracer.install` wraps public functions of each mvtrack module.  A module
that did `from .x import f` holds its own binding of f, so the wrapper is
bound under every name, in every mvtrack module, that refers to the
original; methods are wrapped once on their class.  Nothing in src/ is
changed, and `uninstall` restores every binding.

A wrapped call is one of three kinds:
  span   timed; appends (id, name, start, end, parent id, call id) to
         `spans`, kept in memory and written once at the end of the run;
  timed  timed but not recorded, for functions called tens of thousands of
         times per verb call (a span list would dominate memory);
  count  counted only.
Busy time of a name is the sum of its call durations; self time subtracts
the time of traced calls made inside it.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, metric name, kind)
TARGETS = [
    ("io", "load_scene", "io.load_scene", "span"),
    ("io", "load_zigzag", "io.load_zigzag", "span"),
    ("complexes", "Complex.is_convex", "complexes.is_convex", "timed"),
    ("complexes", "Complex.closure", "complexes.closure", "count"),
    ("fields", "validate_field", "fields.validate_field", "span"),
    ("fields", "classify_rearrangement", "fields.classify_rearrangement", "span"),
    ("fields", "MultivectorField.is_critical", "fields.is_critical", "timed"),
    ("fields", "intersect_fields", "fields.intersect_fields", "span"),
    ("dynamics", "invariant_part", "dynamics.invariant_part", "span"),
    ("dynamics", "is_isolated_invariant_set", "dynamics.is_isolated_invariant_set", "span"),
    ("dynamics", "isolates", "dynamics.isolates", "span"),
    ("dynamics", "push_forward", "dynamics.push_forward", "span"),
    ("dynamics", "validate_index_pair", "dynamics.validate_index_pair", "span"),
    ("dynamics", "validate_index_pair_in_n", "dynamics.validate_index_pair_in_n", "span"),
    ("tracking", "run_protocol", "tracking.run_protocol", "span"),
    ("tracking", "track_step", "tracking.track_step", "span"),
    ("tracking", "hull", "tracking.hull", "span"),
    ("algebra", "relative_homology", "algebra.relative_homology", "span"),
    ("algebra", "HomologyBasis.__init__", "algebra.HomologyBasis", "span"),
    ("algebra", "induced_map", "algebra.induced_map", "span"),
    ("algebra", "row_reduce", "algebra.row_reduce", "count"),
    ("algebra", "nullspace", "algebra.nullspace", "count"),
    ("zigzag", "homology_module", "zigzag.homology_module", "span"),
    ("zigzag", "interval_multiplicities", "zigzag.interval_multiplicities", "span"),
    ("zigzag", "pair_zigzag_barcode", "zigzag.pair_zigzag_barcode", "span"),
]

VERB = "cli.verb"

# The per-layer metrics of one traced pass, with units, in report order.
# A function that some workload never calls (intersect_fields, isolates,
# hull, validate_index_pair_in_n and, on walk, induced_map) is reported by
# its call count only: its time would read 0 on every run of that workload.
PER_LAYER = [
    ("io.load_scene.s", "s"), ("io.load_scene.calls", "count"), ("io.load_zigzag.s", "s"),
    ("complexes.is_convex.calls", "count"), ("complexes.is_convex.s", "s"),
    ("complexes.closure.calls", "count"),
    ("fields.validate_field.s", "s"), ("fields.validate_field.calls", "count"),
    ("fields.classify_rearrangement.s", "s"), ("fields.is_critical.calls", "count"),
    ("fields.is_critical.miss_ratio", "ratio"), ("fields.intersect_fields.calls", "count"),
    ("dynamics.invariant_part.s", "s"), ("dynamics.invariant_part.calls", "count"),
    ("dynamics.validate_index_pair.s", "s"), ("dynamics.validate_index_pair.calls", "count"),
    ("dynamics.validate_index_pair_in_n.calls", "count"), ("dynamics.push_forward.s", "s"),
    ("dynamics.isolates.calls", "count"), ("dynamics.is_isolated_invariant_set.calls", "count"),
    ("tracking.track_step.s", "s"), ("tracking.track_step.self_s", "s"),
    ("tracking.hull.calls", "count"), ("tracking.run_protocol.self_s", "s"),
    ("tracking.case_a", "count"), ("tracking.case_b", "count"), ("tracking.case_c", "count"),
    ("tracking.case_d", "count"), ("tracking.case_f", "count"), ("tracking.case_g", "count"),
    ("algebra.relative_homology.s", "s"), ("algebra.relative_homology.calls", "count"),
    ("algebra.HomologyBasis.s", "s"), ("algebra.HomologyBasis.calls", "count"),
    ("algebra.induced_map.calls", "count"),
    ("algebra.row_reduce.calls", "count"), ("algebra.row_reduce.cells", "count"),
    ("algebra.row_reduce.max_cells", "count"),
    ("zigzag.homology_module.s", "s"), ("zigzag.interval_multiplicities.s", "s"),
    ("zigzag.positions", "count"), ("zigzag.nullspace.calls", "count"),
    ("zigzag.nullspace.max_cols", "count"), ("zigzag.bars", "count"),
    ("cli.verb.self_s", "s"), ("trace.overhead_ratio", "ratio"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []     # [span id, name, start, child time]
        self.call_id = 0
        self._next_id = 0
        self._undo: list[tuple] = []
        self.reset_totals()

    def reset_totals(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()    # derived counters, see _observe

    # --- wrapping -----------------------------------------------------------

    def install(self):
        import mvtrack  # noqa: F401  (loads every submodule)
        modules = [m for name, m in sys.modules.items()
                   if name == "mvtrack" or name.startswith("mvtrack.")]
        for owner, attr, name, kind in TARGETS:
            home = sys.modules["mvtrack." + owner]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, name, kind))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, kind)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def _wrap(self, fn, name, kind):
        tracer = self
        if kind == "count":
            def counted(*args, **kwargs):
                tracer.calls[name] += 1
                tracer._observe(name, args, None)
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        def timed(*args, **kwargs):
            result = tracer._run(fn, name, kind == "span", args, kwargs)
            tracer._observe(name, args, result)
            return result
        timed.__wrapped__ = fn
        return timed

    def _run(self, fn, name, record, args, kwargs):
        stack = self.stack
        parent = stack[-1][0] if stack else None
        if record:
            self._next_id += 1
        # an unrecorded frame passes its parent's id on, so every span's
        # parent is a recorded span
        frame = [self._next_id if record else parent, name, perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - frame[2]
            if stack:
                stack[-1][3] += dur
            self.busy[name] += dur
            self.self_time[name] += dur - frame[3]
            self.calls[name] += 1
            if record:
                self.spans.append((frame[0], name, frame[2], end, parent, self.call_id))

    def run_verb(self, fn, *args):
        """One verb call: a new call id and a `cli.verb` span around it."""
        self.call_id += 1
        return self._run(fn, VERB, True, args, {})

    def _observe(self, name, args, result):
        """Counters that need an argument, a result or the caller; keyed by
        their metric names."""
        caller = self.stack[-1][1] if self.stack else None
        c = self.counts
        if name == "algebra.row_reduce":
            rows, cols = args[0].shape
            c["algebra.row_reduce.cells"] += rows * cols
            c["algebra.row_reduce.max_cells"] = max(c["algebra.row_reduce.max_cells"],
                                                    rows * cols)
        elif name == "algebra.nullspace" and caller == "zigzag.interval_multiplicities":
            c["zigzag.nullspace.calls"] += 1
            c["zigzag.nullspace.max_cols"] = max(c["zigzag.nullspace.max_cols"],
                                                 args[0].shape[1])
        elif name == "algebra.relative_homology" and caller == "fields.is_critical":
            c["fields.is_critical.misses"] += 1
        elif name == "tracking.track_step":
            c["tracking.case_" + result.case] += 1
        elif name == "zigzag.pair_zigzag_barcode":
            c["zigzag.positions"] = max(c["zigzag.positions"], len(args[0]))
            c["zigzag.bars"] = max(c["zigzag.bars"], len(result.bars))

    # --- reporting ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The PER_LAYER values accumulated since the last reset, except the
        overhead ratio, which needs an untraced run."""
        values: dict[str, float] = dict(self.counts)
        for name, n in self.calls.items():
            values[name + ".calls"] = n
            values[name + ".s"] = self.busy[name]
            values[name + ".self_s"] = self.self_time[name]
        values["fields.is_critical.miss_ratio"] = (
            self.counts["fields.is_critical.misses"] / max(self.calls["fields.is_critical"], 1))
        return {m: values.get(m, 0) for m, _unit in PER_LAYER if m != "trace.overhead_ratio"}

    def coverage(self, call_id: int, names) -> float:
        """Time within one verb call covered by spans whose name is in
        `names` (or starts with one of them when it ends in '.'), not
        counting such spans nested inside each other."""
        def match(name):
            return any(name == n or (n.endswith(".") and name.startswith(n)) for n in names)

        spans = {s[0]: s for s in self.spans if s[5] == call_id}
        total = 0.0
        for _sid, name, start, end, parent, _call in spans.values():
            if not match(name):
                continue
            while parent in spans and not match(spans[parent][1]):
                parent = spans[parent][4]
            if parent not in spans:
                total += end - start
        return total
