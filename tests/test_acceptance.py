"""Acceptance suite: one gating test and one printed verdict per criterion.

1. Certified-bound suite over a 50-instance corpus at three quanta.
2. Bounded-flow subroutine factor against the exact LP on the same corpus.
3. Analytic golden instances for the exact oracle.
4. Loop bounds and growth factors for subroutine calls and iterations.
5. Byte-identical `gen` and `solve` outputs across repeated runs.

The corpus runs use the exact-LP subroutine inside the solver: the
certified bounds only rely on the subroutine's value contract, which the
LP meets at factor 1, and the packing subroutine's own contract is gated
separately (criterion 2) at practical accuracy targets. Criterion 1 is
required to finish inside 60 seconds, which a quantum of 0.05 against
summed bounds up to 9 makes unreachable for the packing loop's
quadratic-in-accuracy iteration count.
"""

import math
import time
from itertools import islice

import pytest

from concurflow.cli import cli_main
from concurflow.compare import capacity_slack, run_compare
from concurflow.generator import generate_instance
from concurflow.netmodel import CAP_TOLERANCE, GroupedResult, branch_values, flow_value
from concurflow.oracle import lp_emcfp_lambda, lp_emcfpsc, lp_grouped_max, lp_mmfpb_exact
from concurflow.packing import pack_paths, solve_mmfpb
from concurflow.simplex import left_sum
from concurflow.solver import solve
from conftest import (
    ACCEPTANCE_LINES, corpus_instances, make_network, make_system, t1_system, t2_system, t3_system,
)

ETAS = (0.05, 0.1, 0.2)
SUBROUTINE_EPS = (0.05, 0.1, 0.25)
CORPUS_SIZE = 50


def _verdict(number, name, ok, detail):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="session")
def corpus():
    instances = corpus_instances(CORPUS_SIZE)
    for inst in instances:
        assert len(inst.network.nodes) <= 8
        assert len(inst.network.edges) <= 14
        assert inst.k <= 3
        assert inst.path_system.path_count <= 20
    assert len(instances) == CORPUS_SIZE
    return instances


@pytest.fixture(scope="session")
def corpus_rows(corpus):
    started = time.perf_counter()
    rows = [
        run_compare(inst, eta, subroutine="oracle")
        for inst in corpus
        for eta in ETAS
    ]
    return rows, time.perf_counter() - started


def test_criterion_1_certified_bound_suite(corpus_rows):
    rows, elapsed = corpus_rows
    failures = [
        (row.instance, row.eta, check.name, check.margin)
        for row in rows
        for check in row.checks
        if not check.passed
    ]
    ok = not failures and elapsed < 60.0
    _verdict(
        1,
        "certified-bound suite",
        ok,
        f"{len(rows)} runs, {len(failures)} failed checks, {elapsed:.1f}s",
    )
    assert elapsed < 60.0
    assert not failures, failures[:10]


def _scaled_oracle(capacities, groups, bounds, eps):
    """The exact flow scaled by 1/(1+eps): feasible, total OPT/(1+eps)."""
    exact = lp_grouped_max(capacities, groups, bounds)
    x = exact.x / (1.0 + eps)
    x.flags.writeable = False
    flat = iter(x.tolist())  # summed per group, then across groups, as the engines sum
    total = float(left_sum([float(left_sum(islice(flat, size))) for size in groups.sizes]))
    return GroupedResult(x, total, exact.iterations, exact.upper)


def test_certified_checks_hold_under_a_contract_adversary(corpus):
    # Not a numbered criterion: the checks are meant to follow from the
    # subroutine contract alone (a feasible flow of total >= OPT/(1+eps)),
    # so they must hold for a subroutine that delivers no more than that.
    failures = [
        (row.instance, row.eta, check.name, check.margin)
        for inst in corpus
        for eta in ETAS
        for row in [run_compare(inst, eta, subroutine=_scaled_oracle)]
        for check in row.checks
        if not check.passed
    ]
    assert not failures, failures[:10]


def test_criterion_2_subroutine_contract(corpus):
    failures = []
    runs = 0
    for inst in corpus:
        system = inst.path_system
        bounds = system.network.bounds()
        opt, _ = lp_mmfpb_exact(system, bounds)
        for eps in SUBROUTINE_EPS:
            runs += 1
            flow = solve_mmfpb(system, bounds, eps)
            value = flow_value(flow)
            if value < opt / (1.0 + eps) - 1e-9:
                failures.append((inst.name, eps, value, opt))
            if capacity_slack(flow) < -CAP_TOLERANCE:
                failures.append((inst.name, eps, "infeasible"))
            for v, b in zip(branch_values(flow), bounds):
                if v > b + 1e-9:
                    failures.append((inst.name, eps, "bound exceeded"))
    _verdict(
        2,
        "subroutine contract",
        not failures,
        f"{runs} solves vs exact LP, {len(failures)} failures",
    )
    assert not failures, failures[:10]


def test_criterion_3_analytic_golden_instances():
    cases = [
        ("shared-edge", t1_system(), 1 / 3, 1.0),
        ("disjoint-edges", t2_system(), 0.5, 1.5),
        ("bound-limited", t3_system(), 1.0, 1.0),
    ]
    worst = 0.0
    for name, system, want_ratio, want_value in cases:
        ratio, value, flow = lp_emcfpsc(system)
        assert ratio == pytest.approx(want_ratio, abs=1e-9), name
        assert value == pytest.approx(want_value, abs=1e-9), name
        assert capacity_slack(flow) >= -CAP_TOLERANCE, name
        worst = max(worst, abs(ratio - want_ratio), abs(value - want_value))
    # The disjoint instance saturates strictly beyond ratio * total demand.
    lam = lp_emcfp_lambda(t2_system())
    _, sat_value, _ = lp_emcfpsc(t2_system())
    assert sat_value > lam * 2.0 + 1e-6
    _verdict(3, "analytic golden instances", True, f"worst deviation {worst:.2e}")


def test_criterion_4_loop_and_growth_properties(corpus_rows):
    rows, _ = corpus_rows
    loop_violations = []
    for row in rows:
        report = row.report
        if report.l_star > math.floor(1.0 / row.eta) + 1:
            loop_violations.append((row.instance, row.eta, "l_star", report.l_star))
        if report.h_star > math.floor(row.sum_bounds / row.eta) + 1:
            loop_violations.append((row.instance, row.eta, "h_star", report.h_star))

    # Subroutine-call growth when the quantum halves, on a fixed instance.
    t2 = t2_system()
    calls = {eta: solve(t2, eta, subroutine="oracle").subroutine_calls for eta in (0.1, 0.05)}
    call_ratio = calls[0.05] / calls[0.1]

    # Packing iteration growth when the accuracy target halves.
    diamond = _diamond_system()
    iters = {
        eps: pack_paths(diamond.grouped.capacities, diamond.grouped, None, eps).iterations
        for eps in (0.1, 0.05)
    }
    iter_ratio = iters[0.05] / iters[0.1]

    ok = not loop_violations and 1.5 <= call_ratio <= 2.5 and 2.0 <= iter_ratio <= 8.0
    _verdict(
        4,
        "loop/complexity properties",
        ok,
        f"{len(loop_violations)} loop-bound violations, call growth {call_ratio:.2f}, "
        f"iteration growth {iter_ratio:.2f}",
    )
    assert not loop_violations, loop_violations[:10]
    assert 1.5 <= call_ratio <= 2.5
    assert 2.0 <= iter_ratio <= 8.0


def test_criterion_5_determinism(tmp_path):
    seeds = (11, 12, 13)
    gen_args = ["--nodes", "6", "--edges", "9", "--commodities", "2",
                "--max-paths", "3", "--bound-range", "0.5", "1.0"]
    mismatches = []
    for seed in seeds:
        gen_files = []
        for run in (0, 1):
            out = tmp_path / f"gen-{seed}-{run}.flow"
            assert cli_main(["gen", "--seed", str(seed), *gen_args, "--output", str(out)]) == 0
            gen_files.append(out.read_bytes())
        if gen_files[0] != gen_files[1]:
            mismatches.append((seed, "gen"))

        instance_file = tmp_path / f"gen-{seed}-0.flow"
        sol_files = []
        for run in (0, 1):
            out = tmp_path / f"sol-{seed}-{run}.txt"
            code = cli_main(
                ["solve", "--input", str(instance_file), "--eta", "0.2",
                 "--output", str(out)]
            )
            assert code == 0
            sol_files.append(out.read_bytes())
        if sol_files[0] != sol_files[1]:
            mismatches.append((seed, "solve"))
    _verdict(
        5,
        "determinism",
        not mismatches,
        f"3 seeds x (gen, solve) x 2 runs, {len(mismatches)} mismatches",
    )
    assert not mismatches


def test_default_subroutine_end_to_end():
    # Not a numbered criterion: the default packing subroutine drives the
    # full pipeline on cheap instances and the same certified checks hold.
    picks = [
        (t1_system(), 0.2),
        (t3_system(), 0.25),
        (generate_instance(11, 6, 9, 2, 3, bound_range=(0.5, 1.0)).path_system, 0.2),
    ]
    for system, eta in picks:
        report = solve(system, eta)  # default subroutine
        bounds = system.network.bounds()
        assert capacity_slack(report.flow) >= -CAP_TOLERANCE
        for v, b in zip(branch_values(report.flow), bounds):
            assert v <= b + 1e-9
        assert report.value_lower - 1e-7 <= report.value <= report.value_upper + 1e-7
        assert report.min_ratio_value >= report.min_ratio_lower - 1e-7
        lam, v_opt, _ = lp_emcfpsc(system, bounds)
        assert lam <= report.l_star * report.eta + 1e-7
        assert v_opt <= (report.l_star * sum(bounds) + report.h_star) * report.eta + 1e-7


def _diamond_system():
    net = make_network(
        ["s", "a", "b", "t"],
        [
            ("e1", "s", "a", 1.0, True),
            ("e2", "s", "b", 0.8, True),
            ("e3", "a", "t", 0.9, True),
            ("e4", "b", "t", 1.2, True),
            ("e5", "a", "b", 0.5, False),
        ],
        [("s", "t", 1.0), ("s", "t", 2.0)],
    )
    return make_system(
        net,
        [
            [["e1", "e3"], ["e2", "e4"], ["e1", "e5", "e4"]],
            [["e2", "e5", "e3"], ["e1", "e3"]],
        ],
    )
