"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload's user commands untraced and reports the
end-to-end metrics; ``--trace 1`` runs the separate traced pass and reports
the per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
correctness check makes ``correct`` false; a run that cannot measure at all
exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import sys

from common import BenchError, Workdir, note, require_program, result_line


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["characterize", "serve", "simulate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_program()
        with Workdir(f"{args.workload}-{args.seed}") as work:
            if args.trace:
                from traced import run_traced

                outcome, metrics = run_traced(args.seed, work)
            else:
                from workloads import run_workload

                outcome, metrics = run_workload(args.workload, args.seed, args.seconds, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in outcome.problems:
        note(f"check failed: {problem}")
    print(result_line(outcome, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
