"""Solver-versus-oracle comparison harness.

Runs the approximation pipeline and the exact two-stage LP on the same
instance and evaluates the five certified checks:

    feasible          capacities hold and every branch stays within its bound
    value_sandwich    total value inside the closed-form level interval
    min_ratio_lb      worst service ratio at least the certified floor
    lambda_localized  exact best ratio at most min_ratio_upper = l_star * eta
    vopt_localized    exact saturated value at most (l_star*sum(b)+h_star)*eta

A check passes when its margin is at least minus its tolerance:
``netmodel.CAP_TOLERANCE`` for ``feasible`` (``capacity_slack`` for edges,
the one capacity test), and ``INTERVAL_TOL`` for the four interval checks. A
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
from typing import Callable

from .instance_io import Instance
from .netmodel import CAP_TOLERANCE, Flow, branch_values, edge_loads, min_ratio
from .oracle import OracleError, lp_emcfpsc
from .simplex import left_sum
from .solver import SolveReport, Subroutine, solve

INTERVAL_TOL = 1e-7

ORACLE_SIZE_WARNING = 200


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
        return {c.name: c for c in self.checks}[name]


def capacity_slack(flow: Flow) -> float:
    """Least capacity minus load over the edges used (0.0 with none); ``>= -CAP_TOLERANCE`` passes."""
    caps = flow.system.capacities()
    return min((caps[eid] - load for eid, load in edge_loads(flow).items()), default=0.0)


def certified_checks(
    report: SolveReport,
    bounds: tuple[float, ...],
    lambda_star: float | None,
    v_opt: float | None,
) -> tuple[CheckResult, ...]:
    """Evaluate the five certified checks; margins exclude the tolerances."""
    flow = report.flow
    margin_feasible = min(capacity_slack(flow), min(b - v for v, b in zip(branch_values(flow), bounds)))
    feasible = CheckResult("feasible", margin_feasible >= -CAP_TOLERANCE, margin_feasible)

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
        lam_gap = report.min_ratio_upper - lambda_star
        lam = CheckResult("lambda_localized", lam_gap >= -INTERVAL_TOL, lam_gap)
        vopt_gap = (report.l_star * left_sum(bounds) + report.h_star) * report.eta - v_opt
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
        sum_bounds=left_sum(bounds),
        lambda_star=lambda_star,
        v_opt=v_opt,
        report=report,
        checks=checks,
        solver_seconds=solver_seconds,
        oracle_seconds=oracle_seconds,
        oracle_failed=oracle_failed,
    )


def _opt(x: float | None) -> str:
    return "" if x is None else repr(x)


def _passed(name: str) -> Callable[[CompareRow], str]:
    return lambda row: str(int(row.check(name).passed))


def _margin(name: str) -> Callable[[CompareRow], str]:
    return lambda row: repr(row.check(name).margin)


# The CSV columns in order, each with the rendering of its field.
_CSV_FIELDS: tuple[tuple[str, Callable[[CompareRow], str]], ...] = (
    ("instance", lambda row: row.instance),
    ("eta", lambda row: repr(row.eta)),
    ("k", lambda row: str(row.k)),
    ("sum_bounds", lambda row: repr(row.sum_bounds)),
    ("lambda_star", lambda row: _opt(row.lambda_star)),
    ("v_opt", lambda row: _opt(row.v_opt)),
    ("l_star", lambda row: str(row.report.l_star)),
    ("h_star", lambda row: str(row.report.h_star)),
    ("value", lambda row: repr(row.report.value)),
    ("min_ratio", lambda row: repr(row.report.min_ratio_value)),
    *((f"{name}_ok", _passed(name)) for name in (
        "feasible", "value_sandwich", "min_ratio_lb", "lambda_localized", "vopt_localized"
    )),
    ("margin_feasible", _margin("feasible")),
    ("margin_value_lower", lambda row: repr(row.report.value - row.report.value_lower)),
    ("margin_value_upper", lambda row: repr(row.report.value_upper - row.report.value)),
    ("margin_min_ratio", _margin("min_ratio_lb")),
    ("margin_lambda", _margin("lambda_localized")),
    ("margin_vopt", _margin("vopt_localized")),
    ("solver_seconds", lambda row: f"{row.solver_seconds:.6f}"),
    ("oracle_seconds", lambda row: f"{row.oracle_seconds:.6f}"),
    ("status", lambda row: row.status),
)
CSV_COLUMNS = tuple(column for column, _ in _CSV_FIELDS)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def row_to_csv(row: CompareRow) -> str:
    # Minimal quoting: only a name with a comma or quote is quoted.
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(render(row) for _, render in _CSV_FIELDS)
    return out.getvalue()
