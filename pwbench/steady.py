#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs one workload N times, each with another seed, through the command in
BENCHMARK.json, and prints for every metric its median, first and third
quartiles (Python's statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median. End-to-end metrics are
compared with a third of their bound and with the bound itself.

    python3 pwbench/steady.py --workload serve_deep --runs 10
    python3 pwbench/steady.py --workload batch_wiki --runs 5 --first-seed 100
    python3 pwbench/steady.py --workload churn_deep --runs 3 --trace 1

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"seed {seed}: exit code {proc.returncode}\n{proc.stdout}", flush=True)
        return None, elapsed
    return json.loads(lines[-1]), elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values, units, shares, broken = {}, {}, [], 0
    for i in range(args.runs):
        seed = args.first_seed + i
        result, elapsed = run_once(spec["command"], args.workload, seed, seconds, args.trace)
        if result is None:
            broken += 1
            continue
        shares.append(result["failed"] / result["attempted"])
        print(f"seed {seed}: {elapsed:.1f} s wall, attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, trace {args.trace}")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  verdict")
    steady = True
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / abs(med) if med else float("inf")
        verdict = ""
        if name in bounds and name != "setup_s":
            bound = bounds[name]
            if spread < bound / 3:
                verdict = f"ok (< bound/3 = {bound / 3:.4f})"
            else:
                verdict = f"WIDE (bound {bound}, bound/3 = {bound / 3:.4f})"
                steady = False
        print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}  {verdict} "
              f"[{units[name]}]")
    for name, vals in values.items():
        print(f"  {name}: " + " ".join(f"{v:.6g}" for v in vals))
    print(f"failed share per run: {sorted(set(shares))}; runs without a result: {broken}")
    if len(set(shares)) > 1 or broken:
        steady = False
        print("the failed share differs between runs")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
