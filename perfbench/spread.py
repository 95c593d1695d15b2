#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each named workload
(all workloads by default) and prints, for every end-to-end metric, the
median and quartiles of the runs and the spread: the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
the median. A spread at or above a third of the metric's bound is marked
WIDE, as is a failed-operation share that differs between runs.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 --first-seed 1 [workload ...]
    python3 perfbench/spread.py --self-test
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of numbers."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def run_once(bench, workload, seed):
    args = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    done = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def report(bench, workload, results):
    ok = True
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) != 1:
        ok = False
    print(f"{workload}: {len(results)} runs, failed share {sorted(shares)}")
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        median, q1, q3, s = spread(values)
        limit = m["bound"] / 3
        wide = m["name"] != "setup_s" and s >= limit
        ok = ok and not wide
        print(
            f"  {m['name']:<16} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
            f"spread {s:.4f} (bound/3 {limit:.4f}){'  WIDE' if wide else ''}"
        )
    return ok


def self_test():
    median, q1, q3, s = spread([float(v) for v in range(1, 11)])
    assert (median, q1, q3) == (5.5, 2.75, 8.25), (median, q1, q3)
    assert s == 1.0, s
    assert spread([2.0, 2.0, 2.0, 2.0])[3] == 0.0
    print("spread self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run_once(bench, workload, seed) for seed in seeds]
        ok = report(bench, workload, results) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
