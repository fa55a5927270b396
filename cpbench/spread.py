#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the driver measures it.

Runs the benchmark command of BENCHMARK.json N times (default 10) on each
workload, each time with another --seed, and prints for each end-to-end
metric the distance between the first and the third quartile of its N
values as a share of their median, beside the metric's bound. A benchmark
is steady when every spread is below a third of its bound.

    python3 cpbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME]...

Run it from the root of the repo; it writes nothing but the benchmark's own
output directory.
"""
import argparse
import json
import statistics
import subprocess
import sys

parser = argparse.ArgumentParser()
parser.add_argument("--runs", type=int, default=10)
parser.add_argument("--first-seed", type=int, default=1)
parser.add_argument("--workload", action="append")
args = parser.parse_args()

with open("BENCHMARK.json") as f:
    bench = json.load(f)
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
workloads = args.workload or [w["name"] for w in bench["workloads"]]

worst = 0.0
for workload in workloads:
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"{workload} seed {seed}: " + " ".join(f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)
    print(f"\n{workload}: spread = (Q3 - Q1) / median over {args.runs} seeds")
    for name, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / statistics.median(v)
        share = spread / bounds[name]
        if name != "setup_s":
            worst = max(worst, share)
        print(f"  {name:<14} median {statistics.median(v):<12.6g} spread {spread:7.4f}  bound {bounds[name]:.2f}  ({share:4.0%} of bound)")
    print(flush=True)
print(f"worst spread outside setup_s: {worst:.0%} of its bound (aim: below 33%)")
