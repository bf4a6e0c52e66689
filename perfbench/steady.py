#!/usr/bin/env python3
"""Steadiness runs for the pipeline benchmark.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--first-seed 1]
                                [--workloads W1,W2,...] [--trace 0|1]
                                [--json FILE]

Runs each workload --runs times, each run with its own seed, in alternating
workload order (run i starts at workload i mod n), so a slow phase of the
host is spread over all workloads. For every metric it prints the median,
the first and third quartile (statistics.quantiles(values, n=4)) and the
quartile spread as a share of the median; with BENCHMARK.json at hand it
also prints each end-to-end metric's bound and whether the spread is within
a third of it. The bounds in BENCHMARK.json are set from this output.
--seconds and --workloads default to BENCHMARK.json's run_seconds and
workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    record = next((json.loads(line) for line in lines
                   if line.startswith('{"run_record"')), {})
    return json.loads(lines[-1]), record.get("run_record", {})


def benchmark_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def summarize(workload, results, limit):
    print(f"\n== {workload}: {len(results)} runs")
    failed = {(r["failed"], r["attempted"]) for r in results}
    print(f"   failed/attempted: {sorted(failed)}; correct: "
          f"{all(r['correct'] for r in results)}")
    names = list(results[0]["metrics"])
    rows = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        bound = limit.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "ok" if spread < bound / 3 else "WIDE"
        print(f"   {name:<40} median {med:14.6g} {unit:<9} "
              f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f}"
              + (f"  bound {bound} {verdict}" if bound is not None else ""))
        rows[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                      "spread": spread, "values": values}
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    spec = benchmark_spec()
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every value here")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    records = []
    for i in range(args.runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            seed = args.first_seed + i
            result, record = run_once(w, seed, args.seconds, args.trace)
            results[w].append(result)
            records.append(record)
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: correct "
                  f"{result['correct']} failed {result['failed']}/"
                  f"{result['attempted']}", file=sys.stderr)

    limit = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {w: summarize(w, results[w], limit) for w in workloads}
    if records:
        r = records[0]
        print(f"\nmachine: nproc {r.get('nproc')}, cpu {r.get('cpu')}, "
              f"build {r.get('build_type')}, compiler {r.get('compiler')}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"summary": summary, "records": records}, f, indent=1)


if __name__ == "__main__":
    main()
