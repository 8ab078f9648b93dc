#!/usr/bin/env python3
"""Sweep a generated corpus through solver-versus-oracle comparison.

Generates seeded instances, runs the certified checks at each quantum, and
writes one CSV row per (instance, eta). Exits nonzero if any check fails.

Example:
    python scripts/run_corpus_compare.py --count 50 --etas 0.05 0.1 0.2 \
        --csv corpus_report.csv --subroutine oracle
"""

import argparse
import sys

from concurflow.compare import csv_header, row_to_csv, run_compare
from concurflow.generator import GenerationError, generate_instance
from concurflow.solver import _SUBROUTINES

PARAM_CYCLE = (
    (6, 9, 2, 4),
    (7, 11, 3, 4),
    (8, 13, 3, 5),
    (5, 8, 2, 5),
    (8, 14, 3, 6),
)


def build_corpus(count, seed_base, bound_range):
    instances = []
    seed = seed_base
    while len(instances) < count and seed < seed_base + 20 * count:
        n_nodes, n_edges, k, max_paths = PARAM_CYCLE[seed % len(PARAM_CYCLE)]
        try:
            instances.append(
                generate_instance(seed, n_nodes, n_edges, k, max_paths, bound_range)
            )
        except GenerationError:
            pass
        seed += 1
    if len(instances) < count:
        raise SystemExit(f"only generated {len(instances)} of {count} instances")
    return instances


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--etas", type=float, nargs="+", default=[0.05, 0.1, 0.2])
    parser.add_argument("--bound-range", type=float, nargs=2, default=(0.5, 3.0),
                        metavar=("LO", "HI"))
    parser.add_argument("--subroutine", choices=tuple(_SUBROUTINES), default="oracle")
    parser.add_argument("--csv", default=None)
    args = parser.parse_args()

    instances = build_corpus(args.count, args.seed_base, tuple(args.bound_range))
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
