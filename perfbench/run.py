#!/usr/bin/env python3
"""Seeded benchmark of the concurflow pipeline, run in one process.

    python3 perfbench/run.py --workload corpus-oracle --seed 1 --seconds 10 --trace 0

The benchmark imports concurflow from ``src/`` of the checkout it sits in
and calls only its public functions. With ``--trace 0`` it times whole
rounds of the workload's operations for ``--seconds`` seconds (and at least
``MIN_OPS`` operations and ``MIN_ROUNDS`` rounds) and prints the end-to-end
metrics. With ``--trace 1`` it alternates untraced and traced rounds for
``--seconds`` seconds (and at least ``MIN_ROUNDS`` traced rounds), prints
the per-layer metrics and writes the spans to ``perfbench/out/``. Either
way every output is checked by the HiGHS referee after the timed part, and
the last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Times are in reference seconds (machine.py).
See README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from machine import Clock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5  # at least; set-up repeats until SETUP_SECONDS have passed.
# Five, not three: large-oracle's set-up is one 2-3 s generate_instance call
# that the clock can re-time only at its ends, so its median needs more samples.
SETUP_SECONDS = 1.0
MAX_SETUP_REPEATS = 100
MIN_OPS = 40  # so op_s.p75 has at least ten samples above it in every run
MIN_ROUNDS = 2  # so every case is repeated and its repeat checked byte for byte,
# and a traced run compares its exact counters between two traced rounds


class Runner:
    """Runs whole rounds of operations over the cases and checks their outputs.

    Keeps each case's first output and reports in ``problems`` any later
    output that differs from it, any failed certified check and any
    operation that raised.
    """

    def __init__(self, cases, clock: Clock) -> None:
        self.cases = cases
        self.clock = clock
        self.first: dict = {}
        self.problems: set = set()
        self.op_s: list[float] = []
        self.solve_s: list[float] = []
        self.attempted = 0
        self.failed = 0

    def round(self, op) -> tuple[float, float]:
        """One operation per case: (summed operation time, median speed factor)."""
        busy = 0.0
        factors = []
        for case in self.cases:
            self.attempted += 1
            self.clock.retime()
            factors.append(self.clock.factor)
            try:
                outcome = op(case)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, and the run goes on
                self.failed += 1
                self.problems.add(f"{case.key}: operation raised {type(exc).__name__}")
                if self.failed == 1:
                    traceback.print_exc()
                continue
            self.op_s.append(outcome.op_s)
            self.solve_s.append(outcome.solve_s)
            busy += self.op_s[-1]
            if not outcome.checks_passed:
                self.problems.add(f"{case.key}: concurflow's certified_checks failed")
            if self.first.setdefault(case.key, outcome.output) != outcome.output:
                self.problems.add(f"{case.key}: output differs from the first run of the same input")
        return busy, statistics.median(factors)


def make_op(workload, cases, api, clock):
    from concurflow import parse_instance
    from workloads import run_compare, run_mmfpb

    if workload.kind == "compare":
        return lambda case: run_compare(case, workload, api, clock)
    # solve_mmfpb takes a path system: parse once, outside the operations.
    systems = {case.key: parse_instance(case.text).path_system for case in cases}
    return lambda case: run_mmfpb(case, systems[case.key], api, clock)


def referee_problems(workload, runner: Runner) -> set:
    """Check every case's first output against HiGHS optima; repeats equal it byte for byte."""
    import referee
    from concurflow import parse_instance

    problems = set()
    solved: dict[str, tuple] = {}
    for case in runner.cases:
        output = runner.first.get(case.key)
        if output is None:  # the operation failed; it is counted in "failed"
            continue
        if case.text not in solved:
            instance = parse_instance(case.text)
            mats = referee.Matrices(instance.path_system)
            try:
                optima = (
                    referee.emcfpsc_optima(mats)
                    if workload.kind == "compare"
                    else referee.mmfpb_optimum(mats)
                )
            except referee.RefereeError as exc:
                problems.add(f"{case.key}: {exc}")
                continue
            solved[case.text] = (instance, mats, optima)
        instance, mats, optima = solved[case.text]
        if workload.kind == "compare":
            failures = referee.check_compare(output[0], instance, mats, optima, output[1:])
        else:
            failures = referee.check_mmfpb(output, mats, optima, case.param)
        problems.update(f"{case.key}: {failure}" for failure in failures)
    return problems


def timed_run(workload, seed: int, seconds: float) -> dict:
    from workloads import Api, build_cases

    api = Api()
    clock = Clock()
    problems: set = set()
    setup_s: list[float] = []
    texts = None
    while len(setup_s) < SETUP_REPEATS or (
        sum(setup_s) < SETUP_SECONDS and len(setup_s) < MAX_SETUP_REPEATS
    ):
        cases, elapsed = build_cases(workload, seed, api, clock)
        setup_s.append(elapsed)
        if texts is not None and texts != [c.text for c in cases]:
            problems.add("set-up made different instance text from the same seed")
        texts = [c.text for c in cases]

    runner = Runner(cases, clock)
    op = make_op(workload, cases, api, clock)
    started = time.perf_counter()
    rounds = 0
    while (
        time.perf_counter() - started < seconds
        or runner.attempted < MIN_OPS
        or rounds < MIN_ROUNDS
    ):
        runner.round(op)
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems |= runner.problems | referee_problems(workload, runner)
    if not runner.op_s:  # the first failure's traceback is printed above
        raise SystemExit(f"perfbench: all {runner.failed} operations failed; no figures to report")
    # Harrell-Davis estimates: a weighted mean of all order statistics. The
    # sample median or p75 of a few dozen distinct cases can sit in a gap
    # between two cases' times and jump across it from one seed to the next.
    from scipy.stats.mstats import hdquantiles

    op_p50, op_p75 = (float(q) for q in hdquantiles(runner.op_s, prob=(0.5, 0.75)))
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_s.p50": (op_p50, "s"),
        "op_s.p75": (op_p75, "s"),
        "ops_per_s": (len(runner.op_s) / sum(runner.op_s), "1/s"),
        "solve_s.p50": (float(hdquantiles(runner.solve_s, prob=(0.5,))[0]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return result(runner.attempted, runner.failed, problems, metrics)


def traced_run(workload, seed: int, seconds: float) -> dict:
    import tracing
    from workloads import Api, build_cases

    clock = Clock()
    tracer = tracing.Tracer()
    traced_api = tracing.traced_api(tracer)
    setup_factor = clock.factor
    with tracing.patched(tracer):
        cases, _ = build_cases(workload, seed, traced_api, clock)
    setup_spans = tracer.take()
    runner = Runner(cases, clock)
    plain_op = make_op(workload, cases, Api(), clock)
    traced_op = tracer.wrap(make_op(workload, cases, traced_api, clock), "bench.op")
    # Alternate untraced and traced rounds so that drift in the machine's
    # speed reaches both sides of the tracing overhead alike.
    rounds: list[dict] = []
    first_round: list[list] = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        plain_busy, _ = runner.round(plain_op)
        with tracing.patched(tracer):
            busy, factor = runner.round(traced_op)
        spans = tracer.take()
        first_round = first_round or spans
        rounds.append(tracing.layer_metrics(setup_spans, setup_factor, spans, factor))
        rounds[-1]["trace.overhead_s"] = busy - plain_busy
        for name in tracing.EXACT_COUNTERS:
            if rounds[-1][name] != rounds[0][name]:
                runner.problems.add(f"{name} differs between rounds of the same inputs")
    problems = runner.problems | referee_problems(workload, runner)

    layers = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    write_trace(workload.name, seed, layers, setup_spans, first_round)
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    return result(runner.attempted, runner.failed, problems, metrics)


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "us" if name.endswith("us_per_iter") else "count"


def write_trace(workload: str, seed: int, layers: dict, setup_spans: list, round_spans: list) -> None:
    """One JSON file: the per-layer figures, and the spans in measured seconds."""
    import tracing

    def by_layer(spans):
        own: dict[str, float] = {}
        for span, t in zip(spans, tracing.self_times(spans)):
            layer = span[0].split(".", 1)[0]
            own[layer] = own.get(layer, 0.0) + t
        return own

    def rebased(spans):
        t0 = spans[0][2] if spans else 0.0
        return [[s[0], s[1], s[2] - t0, s[3] - t0, s[4]] for s in spans]

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "per_layer": layers,
        "span_fields": ["kind", "parent", "start_s", "end_s", "counters"],
        "setup_self_s_by_layer": by_layer(setup_spans),
        "round_self_s_by_layer": by_layer(round_spans),
        "setup_spans": rebased(setup_spans),
        "first_round_spans": rebased(round_spans),
    }))
    print(f"trace written to {path}", file=sys.stderr)


def result(attempted: int, failed: int, problems: set, metrics: dict) -> dict:
    for problem in sorted(problems):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark of the concurflow pipeline.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "concurflow" / "__init__.py").is_file():
        print(f"perfbench: no concurflow sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run = traced_run if args.trace else timed_run
    outcome = run(WORKLOADS[args.workload], args.seed, args.seconds)
    print(f"{args.workload} seed {args.seed}: {outcome['attempted']} operations attempted, "
          f"{outcome['failed']} failed")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
