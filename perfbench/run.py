#!/usr/bin/env python3
"""Benchmark of the recommender pipeline: one workload per invocation.

    python3 perfbench/run.py --workload measure-nref --seed 1 \\
        --seconds 30 --trace 0

Run from the root of the repository; the program is imported from
``src/``.  Progress and check failures go to standard error.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, timed with no
instrumentation installed.  With ``--trace 1`` timing wrappers from
``perfbench/layers.py`` are installed around the layers' public functions
and the metrics are the per-layer ones, plus ``trace.*`` figures for the
wrappers' own cost.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import the program from ``src/`` with every ``REPRO_*`` knob unset,
    so runs use the default settings: serial, no shards, no morsels."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program under {ROOT / 'src'}")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None):
    args = parse_args(argv)
    load_program()
    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(pipeline.WORKLOADS)}")
    if args.trace:
        import layers

        tracer = layers.LayerTracer()
        start = time.perf_counter()
        with tracer.installed():
            run = pipeline.Run(args.workload, args.seed, args.seconds,
                               tracer).execute()
        wall = time.perf_counter() - start
        metrics = tracer.metrics(run.reports)
        calls = tracer.wrapped_calls()
        overhead = calls * layers.wrapper_cost_s()
        metrics["trace.run_s"] = (wall, "s")
        metrics["trace.wrapped_calls"] = (calls, "count")
        metrics["trace.wrapper_overhead_s"] = (overhead, "s")
    else:
        run = pipeline.Run(args.workload, args.seed, args.seconds).execute()
        metrics = run.end_to_end()
    for error in run.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{run.query_samples()} query samples, {run.compared} answers "
          f"compared with sqlite3", file=sys.stderr)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
