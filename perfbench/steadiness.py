#!/usr/bin/env python3
"""Checks that the benchmark is steady: two sets of runs of one build agree.

    python3 perfbench/steadiness.py

For every workload of BENCHMARK.json it makes two sets of 10 runs of
run_seconds each through perfbench/run.py, each run with its own seed (set k
uses seeds k*1000+1 .. k*1000+10). For every end-to-end metric it prints,
per set, the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, (q3 - q1) / median. A
metric passes when the spread of each set is within its bound and the two
medians differ by no more than the bound times the first median, in either
direction. The exit code is 1 if any check fails.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed with exit code %d"
                           % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d: correct=%s failed=%d"
                           % (workload, seed, result["correct"], result["failed"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [[run_once(workload, k * 1000 + i, seconds) for i in range(1, RUNS + 1)]
                for k in range(1, SETS + 1)]
        print("\n== %s: %d sets of %d runs, %g s each" % (workload, SETS, RUNS, seconds))
        print("%-20s %-5s %4s %14s %14s %14s %8s  %s" % (
            "metric", "unit", "set", "median", "q1", "q3", "spread", "verdict"))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first_median = None
            for k, runs in enumerate(sets, start=1):
                median, q1, q3, spread = summarize([r[name] for r in runs])
                verdict = ["spread ok" if spread <= bound else "SPREAD > BOUND"]
                ok = ok and spread <= bound
                if first_median is None:
                    first_median = median
                else:
                    agree = abs(median - first_median) <= bound * abs(first_median)
                    verdict.append("agrees with set 1" if agree else "DISAGREES WITH SET 1")
                    ok = ok and agree
                print("%-20s %-5s %4d %14.6g %14.6g %14.6g %8.4f  %s" % (
                    name, metric["unit"], k, median, q1, q3, spread, ", ".join(verdict)))
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
