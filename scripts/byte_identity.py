#!/usr/bin/env python3
"""Record every output of the perfbench workloads, to compare two checkouts byte for byte.

    python3 scripts/byte_identity.py --src <checkout>/src --seeds 1 2 3 --out ids.json

For every case of the four perfbench workloads (or those named with
``--workloads``) at each seed, it writes one JSON record with:

- a digest of the parsed path system: every step's ``(edge_id, forward)``
  and the compiled ``grouped.edges``, ``rows`` and ``lengths``;
- ``compare`` workloads: the ``serialize_solution`` text of the workload's
  named subroutine, the ``repr`` of ``lp_emcfpsc`` (ratio, total value
  and flow values), and ``[name, passed, repr(margin)]`` for each of the
  five ``certified_checks``;
- ``mmfpb`` workloads: the ``repr`` of the ``solve_mmfpb`` values;
- every ``solve_lp`` call the case makes, as its pivot count and a digest
  of the bytes of ``x``; the ``iterations`` of every ``pack_paths`` call,
  early stops included; and the layout of every engine call,
  taken from ``GroupedProblem.build``, as a digest of the matrix
  ``edges``, the bytes of ``caps``, ``a`` and ``g`` (with their shapes)
  and ``keep``.

The cases come from ``perfbench/workloads.py`` of this checkout, imported
read-only; the program comes from ``--src``. So the check of a change
against its parent is two runs, one per ``--src``, and one ``cmp`` of the
two files. ``--limit`` keeps the first few cases of each workload and seed.

When the files differ, ``--diff`` says where:

    python3 scripts/byte_identity.py --diff parent.json change.json

prints, per workload, the cases whose ``system``, ``lp_emcfpsc``,
``solve_mmfpb``, checks or call list differ; of the differing ``lp_emcfpsc``
records, how many differ in the ratio and the largest relative difference
in the total value; of the differing call lists, those that differ only in
the steps of ``pack`` entries, with the number of such entries and their
iterations on each side; and the solution lines that differ, counted by
their first word. It exits 1 when anything differs.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import sys
from contextlib import contextmanager
from itertools import zip_longest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _Clock:
    """The clock ``build_cases`` reads; nothing is timed here."""

    def __call__(self) -> float:
        return 0.0

    def retime(self) -> None:
        pass


def layout_digest(problem) -> str:
    """A digest of one engine call's layout: edges, caps, a, g and keep."""
    matrix = problem.matrix
    digest = hashlib.sha256(repr((matrix.edges, matrix.a.shape, matrix.g.shape)).encode())
    for arr in (matrix.caps, matrix.a, matrix.g, problem.keep):
        digest.update(arr.tobytes())
    return digest.hexdigest()


def system_digest(system) -> str:
    """A digest of one parsed path system: its oriented steps and compiled rows."""
    grouped = system.grouped
    steps = [
        [[(step[0], step[1]) for step in path.steps] for path in group] for group in system.paths
    ]
    arrays = (grouped.rows, grouped.lengths)
    digest = hashlib.sha256(repr((steps, grouped.edges, [a.dtype.str for a in arrays])).encode())
    for arr in arrays:
        digest.update(arr.tobytes())
    return digest.hexdigest()


@contextmanager
def recording(calls: list):
    """Append one entry to ``calls`` per ``solve_lp``, ``pack_paths`` and layout.

    ``oracle``, ``solve_mmfpb`` and ``solve``'s named subroutines look both
    names up at call time, so what ``solve`` runs is recorded, early stops
    included. Both engines read their input through ``GroupedProblem.build``,
    a classmethod patched on the class.
    """
    import concurflow.netmodel
    import concurflow.oracle
    import concurflow.packing

    solve_lp = concurflow.oracle.solve_lp
    pack_paths = concurflow.packing.pack_paths
    problem_class = concurflow.netmodel.GroupedProblem
    build = problem_class.__dict__["build"]
    bound_build = problem_class.build

    def layout(cls, *args, **kwargs):
        problem = bound_build(*args, **kwargs)
        calls.append(["layout", layout_digest(problem)])
        return problem

    def lp(*args, **kwargs):
        result = solve_lp(*args, **kwargs)
        calls.append(["lp", result.iterations, hashlib.sha256(result.x.tobytes()).hexdigest()])
        return result

    def pack(*args, **kwargs):
        result = pack_paths(*args, **kwargs)
        calls.append(["pack", result.iterations])
        return result

    concurflow.oracle.solve_lp = lp
    concurflow.packing.pack_paths = pack
    problem_class.build = classmethod(layout)
    try:
        yield
    finally:
        concurflow.oracle.solve_lp = solve_lp
        concurflow.packing.pack_paths = pack_paths
        problem_class.build = build


def case_record(workload, case) -> dict:
    import concurflow

    calls: list = []
    with recording(calls):
        instance = concurflow.parse_instance(case.text)
        system = instance.path_system
        parsed = system_digest(system)
        bounds = system.network.bounds()
        if workload.kind == "compare":
            report = concurflow.solve(system, case.param, subroutine=workload.subroutine)
            lam, total, flow = concurflow.lp_emcfpsc(system, bounds)
            checks = concurflow.certified_checks(report, bounds, lam, total)
            outputs = {
                "solution": concurflow.serialize_solution(report, instance),
                "lp_emcfpsc": repr((lam, total, flow.values)),
                "checks": [[c.name, c.passed, repr(c.margin)] for c in checks],
            }
        else:
            flow = concurflow.solve_mmfpb(system, bounds, case.param)
            outputs = {"solve_mmfpb": repr(flow.values)}
    return {"case": case.key, "system": parsed, **outputs, "calls": calls}


def step_pairs(a: list, b: list) -> list[tuple[list, list]]:
    """The differing entry pairs of two call lists if all are ``pack`` pairs, else none."""
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    if len(a) != len(b) or not all(x[0] == y[0] == "pack" for x, y in pairs):
        return []
    return pairs


def emcfpsc_moves(pairs: list[tuple[str, str]]) -> str:
    """How far differing ``lp_emcfpsc`` records moved: ratios that differ, largest relative total change."""
    ratios, largest = 0, 0.0
    for ra, rb in pairs:
        (lam_a, total_a, _), (lam_b, total_b, _) = ast.literal_eval(ra), ast.literal_eval(rb)
        ratios += lam_a != lam_b
        if total_a != total_b:
            largest = max(largest, abs(total_a - total_b) / max(abs(total_a), abs(total_b)))
    return f" (lambda {ratios}, V_opt up to {largest:.2g} relative)"


def diff_lines(a: list[dict], b: list[dict]) -> tuple[list[str], bool]:
    """Per workload, what differs between two record lists; and whether anything does."""
    fields = ("system", "lp_emcfpsc", "solve_mmfpb", "checks", "calls")
    index = lambda records: {(r["workload"], r["seed"], r["case"]): r for r in records}  # noqa: E731
    a_cases, b_cases = index(a), index(b)
    lines, differs = [], False
    for workload in dict.fromkeys(r["workload"] for r in a + b):
        keys = [key for key in {**a_cases, **b_cases} if key[0] == workload]
        shared = [key for key in keys if key in a_cases and key in b_cases]
        counts = dict.fromkeys(fields, 0)
        packs = [0, 0, 0, 0]  # cases, pack entries, iterations in a, in b
        words: dict[str, int] = {}
        moved = []  # differing lp_emcfpsc record pairs
        for key in shared:
            ra, rb = a_cases[key], b_cases[key]
            for field in fields:
                counts[field] += ra.get(field) != rb.get(field)
            if "lp_emcfpsc" in ra and "lp_emcfpsc" in rb and ra["lp_emcfpsc"] != rb["lp_emcfpsc"]:
                moved.append((ra["lp_emcfpsc"], rb["lp_emcfpsc"]))
            pairs = step_pairs(ra["calls"], rb["calls"])
            if pairs:
                packs[0] += 1
                packs[1] += len(pairs)
                packs[2] += sum(x[1] for x, _ in pairs)
                packs[3] += sum(y[1] for _, y in pairs)
            texts = (ra.get("solution", ""), rb.get("solution", ""))
            for la, lb in zip_longest(*(text.splitlines() for text in texts), fillvalue=""):
                if la != lb:
                    word = (la or lb).split(" ", 1)[0]
                    words[word] = words.get(word, 0) + 1
        only = len(keys) - len(shared)
        differs = differs or only > 0 or any(counts.values()) or bool(words)
        parts = ", ".join(
            f"{field} {count}" + (emcfpsc_moves(moved) if field == "lp_emcfpsc" and count else "")
            for field, count in counts.items()
        )
        solution = ", ".join(f"{word} {count}" for word, count in words.items()) or "none"
        lines.append(
            f"{workload}: {len(shared)} cases in both, {only} in one only; "
            f"cases differing in {parts}; calls differing only in pack steps: "
            f"{packs[0]} cases, {packs[1]} pack entries, {packs[2]} -> {packs[3]} iterations; "
            f"solution lines differing: {solution}"
        )
    return lines, differs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="src/ of the checkout under test")
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--workloads", nargs="+", help="default: all perfbench workloads")
    parser.add_argument("--limit", type=int, help="first cases per workload and seed")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two output files")
    args = parser.parse_args(argv)
    if args.diff:
        lines, differs = diff_lines(*(json.loads(Path(name).read_text()) for name in args.diff))
        print("\n".join(lines))
        return int(differs)
    if args.src is None or args.seeds is None:
        parser.error("--src and --seeds are required unless --diff is given")
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
