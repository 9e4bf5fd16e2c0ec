#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload repeatedly, one seed
per run, and print per metric the median, the quartiles, the spread
(quartile distance over median) and the max/min ratio.

    python3 perfbench/steady.py --runs 10 --seconds 30
    python3 perfbench/steady.py --workloads measure-nref --runs 5 --trace 1

Runs are sequential, one process each, from the repository root.  These
figures are the evidence the bounds in ``BENCHMARK.json`` rest on; a
metric whose spread is above its bound is flagged.  With ``--trace 1`` the
per-layer metrics are summarised instead, and counts that differ between
runs of the same seed are flagged (use ``--same-seed``).
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False, timeout=900)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n"
                 f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), wall


def summarise(values):
    values = sorted(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    ratio = values[-1] / values[0] if values[0] else float("inf")
    return median, q1, q3, spread, ratio


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true",
                        help="repeat --first-seed instead of varying it")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        results, walls = [], []
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            result, wall = run_once(workload, seed, seconds, args.trace)
            results.append(result)
            walls.append(wall)
            values = " ".join(f"{name}={m['value']:.4g}"
                              for name, m in result["metrics"].items())
            print(f"{workload} seed {seed}: {wall:.1f} s wall, "
                  f"correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}, "
                  f"{values}", file=sys.stderr, flush=True)
        print(f"\n{workload}: {args.runs} runs, wall per run "
              f"median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'max/min':>7s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, spread, ratio = summarise(values)
            flag = ""
            if name in bounds and spread > bounds[name]:
                flag = "  ABOVE BOUND"
            elif args.trace and args.same_seed and len(set(values)) > 1 \
                    and results[0]["metrics"][name]["unit"] == "count":
                flag = "  COUNTS DIFFER"
            print(f"  {name:40s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {ratio:7.3f}{flag}")


if __name__ == "__main__":
    main()
