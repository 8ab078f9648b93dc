#!/usr/bin/env python3
"""Time the baseline solves that are too slow or too large to be workloads.

Two tables of single runs, on instances of generator seed 3, kept in
README.md as reference points only; no workload and no bound depends on
them:

* ``solve`` at eta=0.1 with the default ``fptas`` subroutine and with the
  exact ``oracle`` subroutine (about 7 minutes, nearly all of it fptas);
* the exact ``oracle`` solve at eta=0.05 on one 16-node, 50-edge,
  8-commodity graph truncated to 20, 60 and 150 paths per commodity, with
  the generator's time.

    python3 perfbench/reference.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

FPTAS_ROWS = (  # generate_instance(3, nodes, edges, k, max_paths)
    (8, 14, 3, 6),
    (12, 30, 5, 10),
    (16, 50, 8, 20),
)
ORACLE_MAX_PATHS = (20, 60, 150)


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def main() -> int:
    sys.path.insert(0, str(SRC))
    from concurflow import generate_instance, serialize_instance, solve

    print("| instance | paths | eta | fptas s | fptas calls | oracle s | oracle calls |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for shape in FPTAS_ROWS:
        system = generate_instance(3, *shape).path_system
        cells = []
        for subroutine in ("fptas", "oracle"):
            report, seconds = timed(solve, system, 0.1, subroutine=subroutine)
            cells += [f"{seconds:.3f}", str(report.subroutine_calls)]
        row = ",".join(map(str, shape))
        print(f"| ({row}) | {system.path_count} | 0.1 | {' | '.join(cells)} |", flush=True)

    print()
    print("| instance | paths | KB | generate s | eta | oracle s | oracle calls |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for max_paths in ORACLE_MAX_PATHS:
        instance, gen_seconds = timed(generate_instance, 3, 16, 50, 8, max_paths)
        system = instance.path_system
        report, seconds = timed(solve, system, 0.05, subroutine="oracle")
        kb = len(serialize_instance(instance)) / 1024
        print(
            f"| (16,50,8,{max_paths}) | {system.path_count} | {kb:.0f} | {gen_seconds:.3f} | 0.05 "
            f"| {seconds:.3f} | {report.subroutine_calls} |",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
