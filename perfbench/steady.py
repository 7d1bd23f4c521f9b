#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--trace 0]

It runs seeds 1..runs. For every workload and metric it prints the median,
the first and third quartiles (statistics.quantiles(values, n=4)) and the
quartile distance as a share of the median, next to the metric's bound from
BENCHMARK.json; OVER marks a spread above the bound, >1/3 one above a third
of it. A run
that fails or reports correct=false is shown and makes the exit code 1.
Each run's line also shows the host CPU steal while it measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, ""
    steal = next((l.split(":")[1].split()[0] for l in lines
                  if l.startswith("host steal")), "?")
    return json.loads(lines[-1]), steal


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            result, steal = run_once(workload, seed, args.seconds, args.trace)
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED {result}", flush=True)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} (steal {steal}): " + " ".join(
                f"{k}={v['value']}" for k, v in result["metrics"].items()),
                flush=True)
        rows = {}
        for name, vals in values.items():
            nums = [v for v in vals if v is not None]
            if len(nums) < 2:
                rows[name] = {"values": vals}
                continue
            q1, med, q3 = statistics.quantiles(nums, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name), "values": vals}
        print(f"\n{workload} ({args.runs} seeds)")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, r in rows.items():
            if "median" not in r:
                print(f"  {name:34} too few values: {r['values']}")
                continue
            bound = r["bound"]
            flag = ""
            if bound is not None:
                flag = " OVER" if r["spread"] > bound else (
                    " >1/3" if r["spread"] > bound / 3 else "")
            print(f"  {name:34} {r['median']:14.6g} {r['q1']:14.6g} "
                  f"{r['q3']:14.6g} {r['spread']:8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
