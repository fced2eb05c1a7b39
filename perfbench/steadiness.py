#!/usr/bin/env python3
"""Steadiness report: is each end-to-end metric steady enough to gate?

usage: python3 perfbench/steadiness.py

Runs `perfbench/run.py --trace 0` on every workload of BENCHMARK.json
in two sets of ten runs, every run with its own seed, then prints for
each metric and set the median, the quartiles (statistics.quantiles,
n=4) and the spread, (q3 - q1) / median, next to the metric's bound
from BENCHMARK.json.  Every spread must stay within the bound and
should stay below a third of it; the second set's median must lie
within the bound of the first set's, in either direction.  The exit
code is 1 when any of that fails.  Run from the root of a checkout;
raw results go to .bench_build/perfbench/steadiness.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # runs per set, each with its own seed
SETS = 2


def run(workload, seed, seconds):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=900,
    )
    out = r.stdout.decode().strip().splitlines()
    res = json.loads(out[-1]) if r.returncode == 0 and out else None
    if res is None or not res["correct"]:
        sys.exit("%s seed %d failed (exit %d)" % (workload, seed, r.returncode))
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    raw = {}
    for w in [x["name"] for x in bench["workloads"]]:
        for s in range(SETS):
            seeds = range(1000 * (s + 1) + 1, 1000 * (s + 1) + 1 + RUNS)
            raw.setdefault(w, []).append(
                [run(w, seed, bench["run_seconds"]) for seed in seeds])
            print("%s: set %d done" % (w, s + 1), file=sys.stderr)
    out = os.path.join(ROOT, ".bench_build", "perfbench", "steadiness.json")
    with open(out, "w") as f:
        json.dump(raw, f, indent=1)

    print("%-12s %-15s %3s %12s %12s %12s %7s %6s %8s" % (
        "workload", "metric", "set", "median", "q1", "q3", "spread",
        "bound", "vs set 1"))
    worst = []
    for w, sets in raw.items():
        for name in sorted(sets[0][0]):
            bound = metrics[name]["bound"]
            first = None
            for i, runs in enumerate(sets):
                vals = [r[name] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                first = med if first is None else first
                drift = med / first - 1
                verdict = ""
                bad = spread > bound
                if bad:
                    verdict = "  SPREAD > BOUND"
                elif spread > bound / 3:
                    verdict = "  spread > bound/3"
                if abs(drift) > bound:
                    bad = True
                    verdict += "  DRIFT > BOUND"
                worst.append(bad)
                print("%-12s %-15s %3d %12.6g %12.6g %12.6g %7.3f %6.2f %+8.3f%s" % (
                    w, name, i + 1, med, q1, q3, spread, bound, drift, verdict))
    return 1 if any(worst) else 0


if __name__ == "__main__":
    sys.exit(main())
