"""mvtrack benchmark: end-to-end verb latencies and per-layer costs.

Run from the repository root:

    python3 perfbench/run.py --workload replay|grid-index|walk --seed N \\
        --seconds S --trace 0|1

The run writes the workload's scene for the seed, times several fresh
interpreters importing mvtrack (setup_s), then starts one child interpreter
(child.py) that calls the CLI verbs in-process and checks every output.
With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  Every metric is printed by name and
unit; the last line is one JSON object with keys correct, attempted, failed
and metrics.

Timings are means over a run's calls of one verb (setup_s: over the fresh
interpreters), not medians.  On a shared virtual machine calls alternate
between fast spells and spells about 1.5x slower, each a few seconds long,
so a short verb's per-call times fall into two modes of similar weight and
a run's median jumps between them: its quartile spread across runs was
0.19-0.34 of the median, against 0.04-0.10 for the mean.  conley_ms.p90 is
taken over at least 100 `conley` calls, so at least ten lie beyond it.

`--record` stores the output digests of this run as the expected ones
(perfbench/expected.json); use it only on a commit whose outputs are known
to be right.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import scenes  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 9
RUN_LIMIT_S = 170

END_TO_END = [("setup_s", "s"), ("track_s", "s"), ("barcode_s", "s"), ("validate_s", "s"),
              ("conley_ms.mean", "ms"), ("conley_ms.p90", "ms"), ("peak_rss_mb", "MB")]


def child_env(root: Path) -> dict:
    """Single-threaded numeric libraries and a fixed hash seed, for the
    benchmark's own child processes only."""
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1",
               VECLIB_MAXIMUM_THREADS="1")
    return env


def setup_seconds(env: dict) -> list[float]:
    """Fresh interpreter until `import mvtrack` returns; the first, untimed
    import writes the bytecode cache."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import mvtrack"], env=env, check=True)
        if i:
            times.append(perf_counter() - start)
    return times


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(scenes.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's output digests as the expected ones")
    args = ap.parse_args()
    begin = perf_counter()

    root = Path.cwd()
    if not (root / "src" / "mvtrack" / "__init__.py").is_file():
        fail(f"no mvtrack sources under {root / 'src'}; run from the repository root")
    if not (root / scenes.REPLAY_FIXTURE).is_file():
        fail(f"missing {scenes.REPLAY_FIXTURE}")
    expected_all = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.is_file() else {}
    if not args.record and args.workload not in expected_all:
        fail(f"no recorded digests for {args.workload} in {EXPECTED}")

    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    structure = scenes.WORKLOADS[args.workload](root)
    relabel, selectors = scenes.write_scene(structure, args.seed, work / "scene.json")
    spec = {"root": str(root), "work": str(work), "result": str(work / "result.json"),
            "seconds": args.seconds, "trace": args.trace, "selectors": selectors,
            "cases": structure.cases, "positions": structure.positions,
            "back": None if structure.labels else {str(k): v for k, v in relabel.back.items()},
            "record": args.record,
            "expected": {} if args.record else expected_all[args.workload]}
    (work / "job.json").write_text(json.dumps(spec), encoding="utf-8")

    env = child_env(root)
    setup = setup_seconds(env)
    try:
        subprocess.run([sys.executable, str(HERE / "child.py"), str(work / "job.json")],
                       env=env, check=True, timeout=RUN_LIMIT_S - (perf_counter() - begin))
    except subprocess.TimeoutExpired:
        fail("child run timed out")
    except subprocess.CalledProcessError as exc:
        fail(f"child run failed with exit code {exc.returncode}")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))

    if args.record:
        expected_all[args.workload] = result["observed"]
        EXPECTED.write_text(json.dumps(expected_all, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")

    if args.trace:
        units = dict(PER_LAYER)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in result["layer"].items()}
        print(f"traced passes: {result['passes']}; traced track {result['traced_track_s']:.4f} s"
              f" vs untraced {result['untraced_track_s']:.4f} s")
        for name, share in result["track_shares"].items():
            print(f"  share of traced track_s in {name}: {share:.3f}")
    else:
        times = result["times"]
        conley_ms = [t * 1000 for t in times["conley"]]
        values = {"setup_s": statistics.fmean(setup),
                  "track_s": statistics.fmean(times["track"]),
                  "barcode_s": statistics.fmean(times["barcode"]),
                  "validate_s": statistics.fmean(times["validate"]),
                  "conley_ms.mean": statistics.fmean(conley_ms),
                  "conley_ms.p90": statistics.quantiles(conley_ms, n=10)[8],
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"samples: setup {len(setup)}, track {len(times['track'])}, barcode "
              f"{len(times['barcode'])}, validate {len(times['validate'])}, "
              f"conley {len(conley_ms)}")
        print("medians (not gated): " + ", ".join(
            f"{verb} {statistics.median(times[verb]):.6g} s" for verb in sorted(times)))
    print(f"workload {args.workload}, seed {args.seed}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  ops_failed = {failed}/{attempted} = {failed / attempted:.4g} (fraction)")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
