#!/usr/bin/env python3
"""Record every output of the perfbench workloads, to compare two checkouts byte for byte.

    python3 scripts/byte_identity.py --src <checkout>/src --seeds 1 2 3 --out ids.json

For every case of the four perfbench workloads (or those named with
``--workloads``) at each seed, it writes one JSON record with:

- ``compare`` workloads: the ``serialize_solution`` text of the workload's
  named subroutine and the ``repr`` of ``lp_emcfpsc`` (ratio, total value
  and flow values);
- ``mmfpb`` workloads: the ``repr`` of the ``solve_mmfpb`` values;
- every ``solve_lp`` call the case makes, as its pivot count and a digest
  of the bytes of ``x``; and the ``iterations`` of every ``pack_paths`` call.

The cases come from ``perfbench/workloads.py`` of this checkout, imported
read-only; the program comes from ``--src``. So the check of a change
against its parent is two runs, one per ``--src``, and one ``cmp`` of the
two files. ``--limit`` keeps the first few cases of each workload and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _Clock:
    """The clock ``build_cases`` reads; nothing is timed here."""

    def __call__(self) -> float:
        return 0.0

    def retime(self) -> None:
        pass


@contextmanager
def recording(calls: list):
    """Append one entry to ``calls`` for each ``solve_lp`` and ``pack_paths`` call.

    ``oracle`` and ``solve_mmfpb`` look both names up at call time; ``solve``
    binds its named subroutines at import, so its table is patched too.
    """
    import concurflow.oracle
    import concurflow.packing
    import concurflow.solver

    solve_lp = concurflow.oracle.solve_lp
    pack_paths = concurflow.packing.pack_paths

    def lp(*args, **kwargs):
        result = solve_lp(*args, **kwargs)
        calls.append(["lp", result.iterations, hashlib.sha256(result.x.tobytes()).hexdigest()])
        return result

    def pack(*args, **kwargs):
        result = pack_paths(*args, **kwargs)
        calls.append(["pack", result.iterations])
        return result

    table = concurflow.solver._SUBROUTINES
    saved = dict(table)
    concurflow.oracle.solve_lp = lp
    concurflow.packing.pack_paths = pack
    table["fptas"] = pack
    try:
        yield
    finally:
        concurflow.oracle.solve_lp = solve_lp
        concurflow.packing.pack_paths = pack_paths
        table.update(saved)


def case_record(workload, case) -> dict:
    import concurflow

    calls: list = []
    with recording(calls):
        instance = concurflow.parse_instance(case.text)
        system = instance.path_system
        bounds = system.network.bounds()
        if workload.kind == "compare":
            report = concurflow.solve(system, case.param, subroutine=workload.subroutine)
            lam, total, flow = concurflow.lp_emcfpsc(system, bounds)
            outputs = {
                "solution": concurflow.serialize_solution(report, instance),
                "lp_emcfpsc": repr((lam, total, flow.values)),
            }
        else:
            flow = concurflow.solve_mmfpb(system, bounds, case.param)
            outputs = {"solve_mmfpb": repr(flow.values)}
    return {"case": case.key, **outputs, "calls": calls}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="src/ of the checkout under test")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", help="default: all perfbench workloads")
    parser.add_argument("--limit", type=int, help="first cases per workload and seed")
    parser.add_argument("--out", help="output file (default: stdout)")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "concurflow" / "__init__.py").is_file():
        print(f"byte_identity: no concurflow sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import concurflow
    from workloads import WORKLOADS, Api, build_cases

    found = Path(concurflow.__file__).resolve()
    if not found.is_relative_to(src):
        print(f"byte_identity: concurflow came from {found}, not {src}", file=sys.stderr)
        return 2
    names = args.workloads or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"byte_identity: unknown workloads {unknown}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    records = []
    for name in names:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            cases, _ = build_cases(workload, seed, Api(), _Clock())
            for case in cases[: args.limit]:
                records.append({"workload": name, "seed": seed, **case_record(workload, case)})
    text = json.dumps(records, indent=0) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"byte_identity: {len(records)} cases", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
