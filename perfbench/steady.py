#!/usr/bin/env python3
"""Steadiness check: runs sets of the benchmark and compares each metric
with its bound in BENCHMARK.json.

Usage, from the root of a shoal checkout:

    python3 perfbench/steady.py [--sets 2] [--runs 10] [--workloads a,b]
                                [--seconds S] [--trace 0|1] [--seed-base N]
                                [--values]

Each set runs every chosen workload `--runs` times, each run with its
own seed. For every end-to-end metric it prints each set's median and
spread (the distance between the first and third quartile of the runs,
as Python's statistics.quantiles(values, n=4) gives them, over their
median) and how far the later set's median moved against the first
set's, each next to the metric's bound. A metric fails when a spread
exceeds its bound, or when a later median is worse than the first by
more than the bound. Exits 1 if any metric
fails or any run fails, 0 otherwise.
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
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(first, later, better):
    if first == 0:
        return 0.0 if later == first else float("inf")
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.seed_base + 1000 * s + i
                try:
                    r = run_once(workload, seed, seconds, args.trace)
                except RuntimeError as e:
                    print(f"FAILED RUN {e}")
                    ok = False
                    continue
                if not r["correct"]:
                    print(f"INCORRECT {workload} seed {seed}")
                    ok = False
                results.append(r)
            sets.append(results)
        print(f"== {workload}: {args.sets} set(s) x {args.runs} runs, {seconds} s each")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            values = [[r["metrics"][name]["value"] for r in rs] for rs in sets]
            if any(len(v) < 2 for v in values):
                continue
            meds = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            line = f"  {name:32}"
            for med, sp in zip(meds, spreads):
                line += f" median {med:12.5g} spread {sp:6.3f}"
            if bound is not None:
                moved = max((worse_by(meds[0], m2, m["better"]) for m2 in meds[1:]), default=0.0)
                bad = moved > bound or max(spreads) > bound
                ok = ok and not bad
                line += f" | worse by {moved:+.3f} bound {bound}"
                line += " FAIL" if bad else (" ok" if max(spreads) < bound / 3
                                            else " ok (spread above a third of the bound)")
            print(line)
            if args.values:
                for v in values:
                    print("    " + " ".join(f"{x:.5g}" for x in v))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
