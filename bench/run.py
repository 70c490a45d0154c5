#!/usr/bin/env python3
"""The finalg benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--out RESULT.json]

NAME is one of screen-stream, hard-pairs, classify-corpus (BENCHMARK.json
says why each exists), or `all`, which runs the three in turn, each in its
own process.  Inputs come from the seed alone.  With --trace 0 the run
reports end-to-end metrics; with --trace 1 it also decides every batch
again under span tracing and reports per-layer metrics instead.  Every
metric is printed by name and unit; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  --out writes
the full result (versions, seed, per-batch timings, failures, the whole
layer table) to a file.  Run it from the repository root.
"""

import os

# pin BLAS/OpenMP pools before numpy loads; probes inherit the environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("screen-stream", "hard-pairs", "classify-corpus")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result here; with "
                                      "`all`, a directory for one file each")
    return parser.parse_args(argv)


def src_lines() -> int:
    """Line count of the package sources, as the ROADMAP tracks it."""
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((SRC / "finalg").rglob("*.py")))


def run_all(args) -> int:
    """Each workload in a fresh process; one JSON line over all of them."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            cmd += ["--out", str(Path(args.out) / f"{name}.trace{args.trace}.json")]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        last = json.loads(done.stdout.strip().splitlines()[-1])
        correct = correct and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def split_checks(workload: str, layers: dict, entries: int) -> dict:
    """The intended division of work per workload, from the layer table."""
    def ms(name):
        return layers.get(name, {}).get("ms", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0.0)

    search_self = layers.get("isotest.search", {}).get("self_ms", 0.0)
    if workload == "screen-stream":
        return {"fingerprint+truncated.build ms > prune+search ms":
                ms("isotest.fingerprint") + ms("truncated.build")
                > ms("isotest.prune") + search_self}
    if workload == "hard-pairs":
        return {"prune+search+verify ms > fingerprint ms":
                ms("isotest.prune") + search_self + ms("isotest.verify")
                > ms("isotest.fingerprint")}
    return {"truncated.build calls > entries": calls("truncated.build") > entries}


def _as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_one(args) -> int:
    if not (SRC / "finalg" / "__init__.py").is_file():
        print(f"error: no finalg package under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import finalg
    import workloads
    if Path(finalg.__file__).resolve().parent != SRC / "finalg":
        print(f"error: imported finalg from {finalg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                 dir=ROOT / ".bench_work"))
    run = workloads.Run(args.workload, args.seed, args.seconds,
                        bool(args.trace), work, SRC)
    try:
        workloads.RUNNERS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = src_lines()
    e2e = workloads.end_to_end(run)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "repo.src_lines": lines, "batches": len(run.walls),
        "attempted": run.attempted, "failed": len(run.failures),
        "batch_wall_s": run.walls, "measured_batch_wall_s": run.raw_walls,
        "speed_samples": len(run.sampler.took),
        "kernel_s_median": statistics.median(run.sampler.took),
        "setup_samples_s": run.setup_s,
        "verdict_samples": len(run.latencies_ms),
        "end_to_end": _as_json(e2e),
        "failures": run.failures,
    }
    print(f"workload {args.workload}  seed {args.seed}  batches {len(run.walls)}  "
          f"python {result['python']}  numpy {result['numpy']}  "
          f"nproc {result['nproc']}  repo.src_lines {lines}")
    for f in run.failures:
        print(f"FAILED {json.dumps(f)}")
    for k, (v, u) in e2e.items():
        print(f"{k} {v:.6g} {u}")
    if args.trace:
        metrics = workloads.per_layer(run)
        metrics["repo.src_lines"] = (lines, "count")
        result["traced_batch_wall_s"] = run.traced_walls
        result["layers"] = workloads.layer_table(run)
        result["per_layer"] = _as_json(metrics)
        entries = run.attempted / len(run.walls)
        result["split_checks"] = split_checks(args.workload, result["layers"],
                                              entries)
        for k, (v, u) in metrics.items():
            print(f"{k} {v:.6g} {u}")
        for k, ok in result["split_checks"].items():
            print(f"split {'holds' if ok else 'FAILS'}: {k}")
    else:
        metrics = {k: e2e[k] for k in ("setup_s", "wall_s", "verdict_p50_ms",
                                       "peak_rss_mb")}
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n",
                                  encoding="utf-8")
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures),
                      "metrics": _as_json(metrics)}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
