"""One workload's verb calls, in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json  (written by run.py)

Calls the real CLI in-process through mvtrack.cli.main(argv), one call at a
time (a closed loop with one client).  Each round is a few `validate`
calls, one `track --out`, one `barcode` and a few `conley` calls, which walk
through the selector batch; rounds repeat until the run's seconds are spent
and the whole batch has been called at least once.  With
tracing on, three untraced `track` calls are timed first, then traced passes
of one call per verb plus the whole batch repeat until the time is spent.

Writes the timings, failure counts and (traced) per-layer metrics to the
job's result file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import gate

VERBS = ("validate", "track", "barcode", "conley")


class Job:
    def __init__(self, spec: dict):
        self.spec = spec
        self.work = Path(spec["work"])
        self.scene = str(self.work / "scene.json")
        self.zigzag = str(self.work / "zigzag.json")
        self.out = self.work / "out"
        self.expected = spec["expected"]
        self.observed: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last_barcode: dict | None = None

    def call(self, main, argv) -> tuple[float, int | None, str]:
        """Time one verb call; the output is checked afterwards."""
        buf = io.StringIO()
        code = None
        with contextlib.redirect_stdout(buf):
            start = perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                self.problems.append(traceback.format_exc(limit=3))
            elapsed = perf_counter() - start
        return elapsed, code, buf.getvalue()

    def check(self, key: str, code, outputs: dict[str, str], problems=()):
        """One call's exit code, output digests and other problems: at most
        one failure per call.  Digests are kept for recording."""
        self.attempted += 1
        problems = list(problems) if code == 0 else [f"exit code {code}"]
        for name, text in outputs.items():
            d = gate.digest(text)
            full = f"{key}.{name}"
            self.observed.setdefault(full, d)
            want = self.expected.get(full)
            if code == 0 and not self.spec["record"] and want != d:
                problems.append(f"{full} digest {d}, recorded {want}")
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{key}: " + "; ".join(problems))

    def run_verb(self, verb: str, main, k: int = 0) -> float:
        """Call one verb through `main` and check its output; returns the
        call's wall time."""
        if verb == "validate":
            t, code, out = self.call(main, ["validate", self.scene])
            self.check("validate", code, {"stdout": out})
        elif verb == "barcode":
            t, code, out = self.call(main, ["barcode", self.zigzag])
            self.check("barcode", code, {"stdout": out})
        elif verb == "conley":
            selectors = self.spec["selectors"]
            t, code, out = self.call(main, ["conley", self.scene, selectors[k % len(selectors)]])
            self.check(f"conley.{k % len(selectors)}", code, {"stdout": out})
        else:
            t, code, out = self.call(main, ["track", self.scene, "--out", str(self.out)])
            outputs, problems = {"stdout": out}, []
            if code == 0:
                trace = (self.out / "trace.json").read_text(encoding="utf-8")
                barcode = (self.out / "barcode.json").read_text(encoding="utf-8")
                outputs["trace"] = gate.canonical_trace(trace, self.spec["back"])
                outputs["barcode"] = barcode
                problems = gate.shape_problems(trace, self.spec["cases"], self.spec["positions"])
                self.last_barcode = json.loads(barcode)
            self.check("track", code, outputs, problems)
        return t


def write_zigzag(trace, path: Path):
    """The tracked pairs as a zigzag file for the `barcode` verb."""
    cx = trace.cx
    doc = {"maximal_simplices": [list(s) for s in cx.sorted_simplices() if not cx.cofacets(s)],
           "pairs": [{"p": [list(s) for s in sorted(pr.P)], "e": [list(s) for s in sorted(pr.E)]}
                     for pr in trace.zigzag.pairs]}
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def warm_up(job: Job, cli):
    """One untimed call per verb.  The `track` call also hands over its trace,
    from which the zigzag file for `barcode` is written."""
    captured = []
    original = cli.run_protocol

    def capture(*args, **kwargs):
        captured.append(original(*args, **kwargs))
        return captured[-1]

    cli.run_protocol = capture
    try:
        times = {"track": job.run_verb("track", cli.main)}
    finally:
        cli.run_protocol = original
    if not captured:
        raise SystemExit("warm-up track call produced no trace: " + "; ".join(job.problems))
    write_zigzag(captured[0], Path(job.zigzag))
    for verb in ("validate", "barcode", "conley"):
        times[verb] = job.run_verb(verb, cli.main)
    return captured[0], times


def timed_rounds(job: Job, cli, seconds: float, warm: dict[str, float]) -> dict[str, list]:
    """Round-robin over the verbs, so slow spells of a shared machine touch
    every verb alike.  Within a round, `validate` and `conley` each get
    about a quarter of a `track` call's time, so that cheap verbs are
    sampled across the whole run; `conley` gets more if the rounds would
    otherwise not reach the whole batch."""
    batch = len(job.spec["selectors"])
    quarter = warm["track"] / 4
    repeats = {"validate": max(1, int(quarter / warm["validate"])), "track": 1, "barcode": 1}
    base = sum(n * warm[verb] for verb, n in repeats.items())
    rounds = max(3, int((seconds - batch * warm["conley"]) / base))
    repeats["conley"] = max(math.ceil(batch / rounds), int(quarter / warm["conley"]))
    times: dict[str, list] = {v: [] for v in VERBS}
    start = perf_counter()
    k = 0
    while (perf_counter() - start < seconds or len(times["conley"]) < batch
           or len(times["track"]) < 3):
        for verb, n in repeats.items():
            for _ in range(n):
                times[verb].append(job.run_verb(verb, cli.main, k))
                k += verb == "conley"
    return times


SHARE_GROUPS = {
    # the layer each workload was chosen to exercise
    "zigzag.interval_multiplicities": ["zigzag.interval_multiplicities"],
    "algebra.HomologyBasis+induced_map": ["algebra.HomologyBasis", "algebra.induced_map"],
    "io+fields+dynamics": ["io.", "fields.", "dynamics."],
    **{module: [module + "."] for module in
       ("io", "fields", "dynamics", "tracking", "algebra", "zigzag")},
}


def track_shares(tracer) -> dict[str, float]:
    """Share of the last (track) call's time in each group of spans."""
    from tracer import VERB
    whole = tracer.coverage(tracer.call_id, [VERB])
    return {group: tracer.coverage(tracer.call_id, names) / whole
            for group, names in SHARE_GROUPS.items()}


def traced_passes(job: Job, cli, seconds: float) -> dict:
    from tracer import PER_LAYER, Tracer
    start = perf_counter()
    untraced = [job.run_verb("track", cli.main) for _ in range(3)]
    tracer = Tracer()

    def traced_main(argv):
        return tracer.run_verb(cli.main, argv)

    tracer.install()
    passes, track_times, shares = [], [], {}
    try:
        while not passes or perf_counter() - start < seconds:
            tracer.reset_totals()
            for verb in ("validate", "track", "barcode"):
                t = job.run_verb(verb, traced_main)
                if verb == "track":
                    track_times.append(t)
                    shares = track_shares(tracer)
            for k in range(len(job.spec["selectors"])):
                job.run_verb("conley", traced_main, k)
            passes.append(tracer.layer_metrics())
    finally:
        tracer.uninstall()
    (job.work / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    layer = {m: statistics.median_low(p[m] for p in passes) for m, _ in PER_LAYER
             if m != "trace.overhead_ratio"}
    layer["trace.overhead_ratio"] = statistics.median(track_times) / statistics.median(untraced)
    return {"layer": layer, "passes": len(passes), "track_shares": shares,
            "traced_track_s": statistics.median(track_times),
            "untraced_track_s": statistics.median(untraced)}


def main():
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import mvtrack
    import mvtrack.cli as cli
    if Path(mvtrack.__file__).resolve().parent != (root / "src" / "mvtrack").resolve():
        raise SystemExit(f"imported mvtrack from {mvtrack.__file__}, not from {root / 'src'}")
    job = Job(spec)
    trace, warm = warm_up(job, cli)
    result: dict = {}
    if spec["trace"]:
        result.update(traced_passes(job, cli, spec["seconds"]))
    else:
        result["times"] = timed_rounds(job, cli, spec["seconds"], warm)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the independent check, once per run, outside every timed region
    from mvtrack.algebra import relative_homology
    if job.last_barcode is None:
        job.check("independent", None, {})
    else:
        job.check("independent", 0, {}, gate.independent_check(
            trace.cx, trace.zigzag.pairs, job.last_barcode, relative_homology))
    result.update(attempted=job.attempted, failed=job.failed, problems=job.problems,
                  observed=job.observed)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
