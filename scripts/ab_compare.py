#!/usr/bin/env python3
"""Time two checkouts on the same perfbench cases, interleaved in one process.

    python3 scripts/ab_compare.py --a <parent>/src --b <change>/src --workload corpus-oracle

Both ``concurflow`` packages are loaded side by side, as ``concurflow_a`` and
``concurflow_b``, so that both sides share one interpreter, one heap and the
same moments of the machine's speed. The cases come from
``perfbench/workloads.py`` of this checkout, built with side A's generator,
as ``scripts/byte_identity.py`` takes them. Each round runs every case once
on each side; which side goes first alternates from case to case and from
round to round. A ``solve_mmfpb`` case is parsed once per side, before the
rounds, as ``perfbench/run.py`` does, so its compiled paths and layouts
are reused from round to round. The two sides must give the same output
for every case (the solution text and exact optima, or the ``solve_mmfpb``
values); a difference stops the run with exit code 1.

It prints, per side, the median, p75 and mean seconds of one operation, and
the median over operations of the ratio B / A of their times. Times are wall
clock from ``time.perf_counter``, not perfbench's reference seconds.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _Clock:
    """The clock the workload functions read: wall seconds, never retimed."""

    def __call__(self) -> float:
        return time.perf_counter()

    def retime(self) -> None:
        pass


def load_package(src: Path, name: str):
    """Import ``src/concurflow`` as the top-level package ``name``."""
    init = src / "concurflow" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def side_api(package) -> SimpleNamespace:
    """The functions a perfbench operation calls, taken from ``package``."""
    names = ("generate_instance", "serialize_instance", "parse_instance", "solve",
             "serialize_solution", "lp_emcfpsc", "certified_checks", "solve_mmfpb")
    api = SimpleNamespace(**{name: getattr(package, name) for name in names})
    api.subroutine = lambda name: name
    return api


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="src/ of the first checkout (the base)")
    parser.add_argument("--b", required=True, help="src/ of the second checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="perfbench workload seed")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--limit", type=int, help="first cases of the workload only")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sources = [Path(args.a).resolve(), Path(args.b).resolve()]
    for src in sources:
        if not (src / "concurflow" / "__init__.py").is_file():
            print(f"ab_compare: no concurflow sources at {src}", file=sys.stderr)
            return 2
    packages = [load_package(src, f"concurflow_{side}") for src, side in zip(sources, "ab")]
    apis = [side_api(package) for package in packages]

    # workloads.py imports ``concurflow``; let it see side A while it loads.
    sys.path.insert(0, str(PERFBENCH))
    saved = sys.modules.get("concurflow")
    sys.modules["concurflow"] = packages[0]
    try:
        import workloads
    finally:
        if saved is None:
            del sys.modules["concurflow"]
        else:
            sys.modules["concurflow"] = saved
    if args.workload not in workloads.WORKLOADS:
        print(f"ab_compare: unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    clock = _Clock()
    cases, _ = workloads.build_cases(workload, args.seed, apis[0], clock)
    cases = cases[: args.limit]

    systems = None
    if workload.kind != "compare":  # solve_mmfpb takes a path system: parse once per side
        systems = [{case.key: api.parse_instance(case.text).path_system for case in cases}
                   for api in apis]

    def operation(side: int, case):
        if workload.kind == "compare":
            return workloads.run_compare(case, workload, apis[side], clock)
        return workloads.run_mmfpb(case, systems[side][case.key], apis[side], clock)

    times: list[list[float]] = [[], []]
    for round_ in range(args.rounds):
        for i, case in enumerate(cases):
            order = (0, 1) if (i + round_) % 2 == 0 else (1, 0)
            outcomes = {side: operation(side, case) for side in order}
            if outcomes[0].output != outcomes[1].output:
                print(f"ab_compare: outputs differ on {case.key}", file=sys.stderr)
                return 1
            for side in (0, 1):
                times[side].append(outcomes[side].op_s)

    print(f"{args.workload} seed {args.seed}: {len(cases)} cases x {args.rounds} rounds, "
          "outputs equal")
    for label, src, samples in zip("AB", sources, times):
        p75 = statistics.quantiles(samples, n=4)[2] if len(samples) > 1 else samples[0]
        print(f"{label} {src}: median {statistics.median(samples):.6f} s, "
              f"p75 {p75:.6f} s, mean {statistics.fmean(samples):.6f} s")
    ratio = statistics.median(b / a for a, b in zip(*times))
    print(f"median per-operation ratio B/A: {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
