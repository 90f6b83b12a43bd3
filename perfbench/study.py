#!/usr/bin/env python3
"""Steadiness study: runs each workload once per seed and tabulates the spread.

Usage (from the repository root):
  python3 perfbench/study.py [--runs 10] [--first-seed 101] [--seconds 25]
                             [--workloads a,b,...]

For every end-to-end metric of every workload it prints the median, the
quartiles (statistics.quantiles(values, n=4)), min/max, and the spread
(Q3 - Q1) / median, next to the bound from BENCHMARK.json, as a Markdown
table.  Runs are sequential; each one is `perfbench/run.py` with a new seed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print("| workload | metric | unit | median | Q1 | Q3 | min | max | spread | bound |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        values, units, attempted = {}, {}, []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds)
            attempted.append(result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"<!-- {workload} seed {seed}: attempted {result['attempted']} failed "
                  f"{result['failed']} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()) +
                  " -->", file=sys.stderr, flush=True)
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)  # med is the median
            print(f"| {workload} | {name} | {units[name]} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{min(vs):.6g} | {max(vs):.6g} | {(q3 - q1) / med:.3f} | "
                  f"{bounds.get(name, '-')} |", flush=True)
        print(f"| {workload} | (trials per run) | count | {statistics.median(attempted):g} | | | "
              f"{min(attempted)} | {max(attempted)} | | |", flush=True)


if __name__ == "__main__":
    main()
