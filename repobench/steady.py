#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs each workload k times with a different seed each time, then prints
per metric the median, the quartiles, and the spread (interquartile
distance as a share of the median) against the metric's bound from
BENCHMARK.json. A spread above a third of the bound is flagged.

Run from the repository root:

    python3 repobench/steady.py [-k 10] [--seed0 1] [--trace 0|1] [--values]

Per-layer metrics (--trace 1) have no bound; their spread is printed for
information only.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {result}")
    return result, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", type=int, default=10, help="runs per workload")
    ap.add_argument("--seed0", type=int, default=1, help="first seed")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    opts = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    metrics = spec["end_to_end"] if opts.trace == 0 else spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    workloads = [w["name"] for w in spec["workloads"]]
    flagged = 0
    for w in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for i in range(opts.k):
            seed = opts.seed0 + i
            result, wall = run_once(spec["command"], w, seed, spec["run_seconds"], opts.trace)
            walls.append(wall)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: {wall:.1f} s", file=sys.stderr, flush=True)
        print(f"\n== {w}: {opts.k} runs, wall per run median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  > bound/3"
                flagged += 1
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:<36} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {b:>6}{flag}")
            if opts.values:
                print("      " + " ".join(f"{v:.4g}" for v in vs))
    print(f"\n{flagged} spread(s) above a third of their bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
