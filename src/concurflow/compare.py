"""Solver-versus-oracle comparison harness.

Runs the approximation pipeline and the exact two-stage LP on the same
instance and evaluates the five certified checks:

    feasible          capacities hold and every branch stays within its bound
    value_sandwich    total value inside the closed-form level interval
    min_ratio_lb      worst service ratio at least the certified floor
    lambda_localized  exact best ratio at most l_star * eta
    vopt_localized    exact saturated value at most (l_star*sum(b)+h_star)*eta

A check passes when its margin is no worse than the stated tolerance; a
failing check in a row is meant to be impossible to miss (the CLI exits
nonzero). Rows render to a fixed, documented CSV column set, quoted by the
``csv`` module's minimal rule.
"""

from __future__ import annotations

import csv
import io
import time
import warnings
from dataclasses import dataclass

from .instance_io import Instance
from .netmodel import branch_values, edge_loads, min_ratio
from .oracle import OracleError, lp_emcfpsc
from .solver import SolveReport, Subroutine, solve

BOUND_TOL = 1e-9
INTERVAL_TOL = 1e-7

ORACLE_SIZE_WARNING = 200

CSV_COLUMNS = (
    "instance",
    "eta",
    "k",
    "sum_bounds",
    "lambda_star",
    "v_opt",
    "l_star",
    "h_star",
    "value",
    "min_ratio",
    "feasible_ok",
    "value_sandwich_ok",
    "min_ratio_lb_ok",
    "lambda_localized_ok",
    "vopt_localized_ok",
    "margin_feasible",
    "margin_value_lower",
    "margin_value_upper",
    "margin_min_ratio",
    "margin_lambda",
    "margin_vopt",
    "solver_seconds",
    "oracle_seconds",
    "status",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float


@dataclass(frozen=True)
class CompareRow:
    instance: str
    eta: float
    k: int
    sum_bounds: float
    lambda_star: float | None
    v_opt: float | None
    report: SolveReport
    checks: tuple[CheckResult, ...]
    solver_seconds: float
    oracle_seconds: float
    oracle_failed: bool

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def status(self) -> str:
        if self.oracle_failed:
            return "oracle-failed"
        return "ok" if self.all_passed else "check-failed"

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def certified_checks(
    report: SolveReport,
    bounds: tuple[float, ...],
    lambda_star: float | None,
    v_opt: float | None,
) -> tuple[CheckResult, ...]:
    """Evaluate the five certified checks; margins exclude the tolerances."""
    flow = report.flow
    caps = flow.system.capacities()
    margin_feasible = min(
        (caps[eid] - load for eid, load in edge_loads(flow).items()),
        default=0.0,
    )
    margin_feasible = min(
        margin_feasible,
        min(b - v for v, b in zip(branch_values(flow), bounds)),
    )
    feasible = CheckResult("feasible", margin_feasible >= -BOUND_TOL, margin_feasible)

    lower_gap = report.value - report.value_lower
    upper_gap = report.value_upper - report.value
    sandwich = CheckResult(
        "value_sandwich",
        lower_gap >= -INTERVAL_TOL and upper_gap >= -INTERVAL_TOL,
        min(lower_gap, upper_gap),
    )

    ratio_gap = min_ratio(flow, bounds) - report.min_ratio_lower
    ratio = CheckResult("min_ratio_lb", ratio_gap >= -INTERVAL_TOL, ratio_gap)

    if lambda_star is None or v_opt is None:
        lam = CheckResult("lambda_localized", False, float("nan"))
        vopt = CheckResult("vopt_localized", False, float("nan"))
    else:
        lam_gap = report.l_star * report.eta - lambda_star
        lam = CheckResult("lambda_localized", lam_gap >= -INTERVAL_TOL, lam_gap)
        ceiling = (report.l_star * sum(bounds) + report.h_star) * report.eta
        vopt_gap = ceiling - v_opt
        vopt = CheckResult("vopt_localized", vopt_gap >= -INTERVAL_TOL, vopt_gap)
    return (feasible, sandwich, ratio, lam, vopt)


def run_compare(
    instance: Instance,
    eta: float,
    subroutine: str | Subroutine = "fptas",
) -> CompareRow:
    """Solve, oracle-solve, and check one instance; never raises for oracle trouble."""
    system = instance.path_system
    if system.path_count > ORACLE_SIZE_WARNING:
        warnings.warn(
            f"instance {instance.name!r} has {system.path_count} paths; "
            f"the exact oracle is intended for at most {ORACLE_SIZE_WARNING}",
            stacklevel=2,
        )
    bounds = system.network.bounds()

    t0 = time.perf_counter()
    report = solve(system, eta, subroutine=subroutine)
    solver_seconds = time.perf_counter() - t0

    lambda_star: float | None = None
    v_opt: float | None = None
    oracle_failed = False
    t1 = time.perf_counter()
    try:
        lambda_star, v_opt, _ = lp_emcfpsc(system, bounds)
    except OracleError:
        oracle_failed = True
    oracle_seconds = time.perf_counter() - t1

    checks = certified_checks(report, bounds, lambda_star, v_opt)
    return CompareRow(
        instance=instance.name,
        eta=eta,
        k=system.k,
        sum_bounds=sum(bounds),
        lambda_star=lambda_star,
        v_opt=v_opt,
        report=report,
        checks=checks,
        solver_seconds=solver_seconds,
        oracle_seconds=oracle_seconds,
        oracle_failed=oracle_failed,
    )


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def row_to_csv(row: CompareRow) -> str:
    def opt(x):
        return "" if x is None else repr(x)

    by_name = {c.name: c for c in row.checks}
    fields = [
        row.instance,
        repr(row.eta),
        str(row.k),
        repr(row.sum_bounds),
        opt(row.lambda_star),
        opt(row.v_opt),
        str(row.report.l_star),
        str(row.report.h_star),
        repr(row.report.value),
        repr(row.report.min_ratio_value),
        str(int(by_name["feasible"].passed)),
        str(int(by_name["value_sandwich"].passed)),
        str(int(by_name["min_ratio_lb"].passed)),
        str(int(by_name["lambda_localized"].passed)),
        str(int(by_name["vopt_localized"].passed)),
        repr(by_name["feasible"].margin),
        repr(row.report.value - row.report.value_lower),
        repr(row.report.value_upper - row.report.value),
        repr(by_name["min_ratio_lb"].margin),
        repr(by_name["lambda_localized"].margin),
        repr(by_name["vopt_localized"].margin),
        f"{row.solver_seconds:.6f}",
        f"{row.oracle_seconds:.6f}",
        row.status,
    ]
    # Minimal quoting: only a name with a comma or quote is quoted.
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(fields)
    return out.getvalue()
