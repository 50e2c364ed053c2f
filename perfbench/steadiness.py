#!/usr/bin/env python3
"""Measures how steady the benchmark is and records it.

Runs the command of BENCHMARK.json on every workload once per seed,
then reports for each end-to-end metric its median, quartiles and
spread (quartile distance over median, as
statistics.quantiles(values, n=4) gives the quartiles), next to the
metric's bound. With --record, the set of runs is stored under its name
in the record file together with nproc; once two sets are stored, the
record also compares their medians against the bounds.

Run from the repository root:

    python3 perfbench/steadiness.py --set first --runs 10 --record perfbench/STEADINESS.json
    python3 perfbench/steadiness.py --set second --runs 10 --record perfbench/STEADINESS.json
    python3 perfbench/steadiness.py --runs 5 --workloads svc_churn      # a quick look
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SEED_BASE = {"first": 1, "second": 101}


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    proc = subprocess.run(args, capture_output=True, text=True, env=env, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: wrong outputs: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", default="trial", help="name of this set of runs")
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--seconds", type=int, help="overrides run_seconds")
    parser.add_argument("--record", help="JSON file to store the set in")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    seconds = opts.seconds or bench["run_seconds"]
    base = SEED_BASE.get(opts.set, 1001)
    seeds = list(range(base, base + opts.runs))

    results = {}
    for workload in workloads:
        runs = [run_once(bench["command"], workload, s, seconds) for s in seeds]
        results[workload] = {
            m["name"]: summarise([r[m["name"]] for r in runs]) for m in metrics
        }
        print(f"{workload} ({len(seeds)} seeds, {seconds} s)")
        for m in metrics:
            s = results[workload][m["name"]]
            mark = "" if m["name"] == "setup_s" or s["spread"] <= m["bound"] / 3 else "  <- above bound/3"
            print(f"  {m['name']:<18} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f} bound {m['bound']}{mark}")
        sys.stdout.flush()

    if not opts.record:
        return
    record = {}
    if os.path.exists(opts.record):
        with open(opts.record) as f:
            record = json.load(f)
    record["nproc"] = os.cpu_count()
    record.setdefault("sets", {})[opts.set] = {
        "seeds": seeds,
        "run_seconds": seconds,
        "workloads": results,
    }
    sets = record["sets"]
    if "first" in sets and "second" in sets:
        comparison = {}
        for workload, first in sets["first"]["workloads"].items():
            second = sets["second"]["workloads"].get(workload)
            if not second:
                continue
            comparison[workload] = {
                m["name"]: {
                    "worse_by": worse_by(first[m["name"]]["median"],
                                         second[m["name"]]["median"], m["better"]),
                    "bound": m["bound"],
                }
                for m in metrics
            }
        record["comparison"] = comparison
    with open(opts.record, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
