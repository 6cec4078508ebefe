#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics across seeds and across sets.

Runs every workload (or those named) --runs times, each with another seed,
through perfbench/run.py, and prints for every end-to-end metric the median,
the first and third quartile (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json. Also
prints the share of failed operations per run.

With --sets 2 it makes a second, separate set of runs (the next --runs
seeds) and prints, per workload and metric, how much worse the second
set's median is than the first's, as a share of the first, against the
bound, and whether the failed shares of the two sets are equal. Run from the
checkout root:

    python3 perfbench/steadiness.py --runs 10 --sets 2
    python3 perfbench/steadiness.py --runs 5 --workloads serve-cold --seed0 100

--json FILE writes every run's result as well (the reference output the
README quotes is made this way).
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
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    lines = out.strip().splitlines()
    return lines, json.loads(lines[-1])


def run_set(workload, seeds, seconds, metrics):
    """Runs one set; returns (values per metric, failed shares, runs)."""
    values = {name: [] for name in metrics}
    shares = []
    runs = []
    for seed in seeds:
        lines, result = run_once(workload, seed, seconds, 0)
        runs.append({"seed": seed, "result": result,
                     "notes": [l for l in lines if l.startswith("# ")]})
        shares.append(result["failed"] / result["attempted"])
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        print(f"{workload} seed={seed} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
    return values, shares, runs


def print_spread(workload, label, values, shares, metrics, seconds):
    """Prints the quartiles of one set; returns its medians and the largest
    spread / bound."""
    print(f"\n== {workload} {label}: {len(shares)} runs of {seconds} s, "
          f"failed share {sorted(set(shares))}")
    print(f"{'metric':16} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    medians = {}
    worst = 0.0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = metrics[name]["bound"]
        worst = max(worst, spread / bound)
        medians[name] = med
        flag = ""
        if spread > bound:
            flag = "  <-- over the bound"
        elif spread >= bound / 3:
            flag = "  <-- over a third"
        print(f"{name:16} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {bound:6.3f}{flag}")
    return medians, worst


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    record = {}
    worst_spread = 0.0
    worst_drift = 0.0
    for workload in args.workloads:
        sets = []
        for k in range(args.sets):
            first = args.seed0 + k * args.runs
            seeds = range(first, first + args.runs)
            values, shares, runs = run_set(workload, seeds, args.seconds,
                                           metrics)
            label = f"set {k + 1} (seeds {first}..{first + args.runs - 1})"
            medians, worst = print_spread(workload, label, values, shares,
                                          metrics, args.seconds)
            worst_spread = max(worst_spread, worst)
            sets.append((medians, shares))
            record.setdefault(workload, []).append(runs)
        if args.sets == 2:
            (first_medians, first_shares), (second_medians, second_shares) = sets
            print(f"\n== {workload}: set 2 against set 1 "
                  f"(worse = median moved in the metric's bad direction)")
            print(f"{'metric':16} {'median 1':>14} {'median 2':>14} "
                  f"{'worse':>8} {'bound':>6}")
            for name, metric in metrics.items():
                a, b = first_medians[name], second_medians[name]
                worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                worst_drift = max(worst_drift, worse / metric["bound"])
                flag = "  <-- over the bound" if worse > metric["bound"] else ""
                print(f"{name:16} {a:14.6g} {b:14.6g} {worse:8.4f} "
                      f"{metric['bound']:6.3f}{flag}")
            same = sorted(set(first_shares)) == sorted(set(second_shares))
            print(f"failed shares equal across the sets: {same}")
        print(flush=True)
    print(f"largest spread / bound: {worst_spread:.3f}")
    if args.sets == 2:
        print(f"largest set-to-set worsening / bound: {worst_drift:.3f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
