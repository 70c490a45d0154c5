#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark between two checkouts.

Usage: python3 tools/bench_ab.py PARENT_ROOT CHANGE_ROOT --workload W
                                 --seed S --pairs N

Runs `bench/run.py --workload W --seed S --trace 0` from each root in
turn, N pairs, the parent first in even pairs and the change first in odd
ones, for the `run_seconds` that PARENT_ROOT/BENCHMARK.json sets.  One
child process runs at a time.  For every end-to-end metric that
BENCHMARK.json names, it prints each side's median and quartiles, how
many pairs the change won (ties count for neither side), the median's
move against the metric's bound (see `against_bound`), and whether a
gain can be claimed: the change wins at least nine tenths of at least ten
pairs, and the medians differ, in the better direction, by more than the
parent's interquartile range, with no larger share of failed verdicts
than the parent's.  It also prints each side's failed verdicts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def claim_holds(parent, change, better: str, failed: tuple) -> tuple:
    """(wins, holds) for paired runs of one metric: wins counts the pairs
    whose change reads better than its parent, and holds says whether the
    change wins nine tenths of at least ten pairs with medians apart by
    more than the interquartile range of the parent's runs.  `failed` is
    the share of failed verdicts on each side, (parent, change); a change
    that fails a larger share shows no gain."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gap = sign * (statistics.median(parent) - statistics.median(change))
    holds = (len(parent) >= 10 and 10 * wins >= 9 * len(parent)
             and gap > q3 - q1 and failed[1] <= failed[0])
    return wins, holds


def against_bound(parent, change, better: str, bound: float) -> str:
    """"over" when the change's median is worse than the parent's by more
    than `bound`, a share of the parent's median.  Otherwise "within",
    unless either side's interquartile range, taken relative to the
    parent's median, is wider than the bound: the runs then spread too
    widely to tell, and it is "unresolved", except where every run of the
    change reads better than every run of the parent."""
    sign = 1 if better == "lower" else -1
    mp = statistics.median(parent)
    move = (statistics.median(change) - mp) / mp if mp else 0.0
    if sign * move > bound:
        return "over"
    spread = max(q3 - q1 for q1, _, q3 in (
        statistics.quantiles(runs, n=4) for runs in (parent, change)))
    apart = all(sign * (p - c) > 0 for p in parent for c in change)
    return "unresolved" if spread > bound * abs(mp) and not apart else "within"


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run from `root`: its last stdout line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{root}: bench/run.py exited {done.returncode}\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/bench_ab.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs needs at least 2 for quartiles")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(sides[side], args.workload, args.seed,
                                       spec["run_seconds"]))
        print(f"pair {k + 1}: " + "  ".join(
            f"{side} wall_s {runs[side][-1]['metrics']['wall_s']['value']:.4g}"
            for side in order), flush=True)
    print(f"workload {args.workload}  seed {args.seed}  pairs {args.pairs}  "
          f"run_seconds {spec['run_seconds']}")
    shares = []
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        shares.append(failed / attempted if attempted else 0.0)
        print(f"{side}: {failed} of {attempted} verdicts failed")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in runs if all(name in r["metrics"]
                                          for r in runs[side])}
        if len(values) < 2:
            continue
        wins, holds = claim_holds(values["parent"], values["change"],
                                  metric["better"], tuple(shares))
        mp, mc = (statistics.median(values[s]) for s in ("parent", "change"))
        quarts = {s: statistics.quantiles(values[s], n=4) for s in values}
        move = (mc - mp) / mp if mp else 0.0
        status = against_bound(values["parent"], values["change"],
                               metric["better"], metric["bound"])
        print(f"{name} ({metric['unit']}): parent {mp:.6g} "
              f"[{quarts['parent'][0]:.6g}, {quarts['parent'][2]:.6g}]  "
              f"change {mc:.6g} "
              f"[{quarts['change'][0]:.6g}, {quarts['change'][2]:.6g}]  "
              f"median {move:+.1%} (bound {metric['bound']:.0%}, {status})  "
              f"change won {wins} of {args.pairs}  "
              f"gain {'holds' if holds else 'not shown'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
