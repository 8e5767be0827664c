#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py WORKLOAD [--runs 10] [--first-seed 1] [--trace 0] [--values]

Runs perfbench/run.py once per seed (from the checkout root) and prints,
per metric, the median, the quartiles (statistics.quantiles, n=4) and
the interquartile distance as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread over a third of its bound
is flagged. --values also prints every run's value of every metric.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--values", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.monotonic()
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, out.returncode, out.stderr[-2000:]))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: incorrect (%d of %d failed)"
                  % (seed, result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done in %.1f s" % (seed, time.monotonic() - start), file=sys.stderr)
    print("%-28s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = " <-- over a third of its bound" if bound is not None and spread > bound / 3 else ""
        print("%-28s %12.5g %12.5g %12.5g %8.4f %6s%s"
              % (name, med, q1, q3, spread, "-" if bound is None else bound, flag))
        if args.values:
            print("    " + " ".join("%.5g" % v for v in vs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
