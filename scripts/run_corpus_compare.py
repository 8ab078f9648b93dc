#!/usr/bin/env python3
"""Sweep a generated corpus through solver-versus-oracle comparison.

Generates the acceptance corpus (``small_corpus`` of
``perfbench/workloads.py``), runs the certified checks at each quantum, and
writes one CSV row per (instance, eta). Exits nonzero if any check fails.

Example:
    python scripts/run_corpus_compare.py --count 50 --etas 0.05 0.1 0.2 \
        --csv corpus_report.csv --subroutine oracle
"""

import argparse
import sys
from pathlib import Path

from concurflow.compare import csv_header, row_to_csv, run_compare
from concurflow.generator import generate_instance
from concurflow.solver import _SUBROUTINES

# The corpus is perfbench's acceptance recipe, imported read-only.
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import small_corpus  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--etas", type=float, nargs="+", default=[0.05, 0.1, 0.2])
    parser.add_argument("--bound-range", type=float, nargs=2, default=(0.5, 3.0),
                        metavar=("LO", "HI"))
    parser.add_argument("--subroutine", choices=tuple(_SUBROUTINES), default="oracle")
    parser.add_argument("--csv", default=None)
    args = parser.parse_args()

    instances = small_corpus(generate_instance, args.count, tuple(args.bound_range))
    rows = []
    failures = 0
    for inst in instances:
        for eta in args.etas:
            row = run_compare(inst, eta, subroutine=args.subroutine)
            rows.append(row)
            if not row.all_passed:
                failures += 1
                failing = [c.name for c in row.checks if not c.passed]
                print(f"FAIL {inst.name} eta={eta}: {failing}", file=sys.stderr)

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(csv_header() + "\n")
            for row in rows:
                handle.write(row_to_csv(row) + "\n")

    solver_s = sum(r.solver_seconds for r in rows)
    oracle_s = sum(r.oracle_seconds for r in rows)
    print(
        f"{len(rows)} runs over {len(instances)} instances: {failures} failures, "
        f"solver {solver_s:.2f}s, oracle {oracle_s:.2f}s"
    )
    if args.csv:
        print(f"rows written to {args.csv}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
