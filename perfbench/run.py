#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Runs one workload from the checkout's ``src/``, checks its outputs,
prints every metric by name with its unit and sample count, and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` reports the per-layer metrics of a traced run (see
``perfbench/README.md``).  Exits 1 when a correctness check fails,
2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import (
    BenchError, environment, import_repro, make_workdir, remove_workdir,
    stop_children,
)

WORKLOADS = ("granularity-10k", "deployment-10k", "jobs-http", "resume-large")
END_TO_END = ("ops_per_s", "setup_s", "peak_rss_mb")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import_repro()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.workload in ("granularity-10k", "deployment-10k"):
        from experiments import run
    elif args.workload == "jobs-http":
        from jobs_http import run
    else:
        from resume import run

    workdir = make_workdir(args.workload)
    try:
        outcome = run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_children()
        remove_workdir(workdir)
    outcome.env.update(environment(outcome.env.get("executor", "serial")))
    outcome.env.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace,
    )
    if args.trace:
        from layers import PER_LAYER

        names = [name for name, _ in PER_LAYER]
    else:
        names = END_TO_END
    result = outcome.report(names)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
