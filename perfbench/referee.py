"""Independent referee for benchmark outputs, run outside the timed part.

The referee rebuilds every LP from an edge-by-path incidence matrix that it
derives from the path system (each path's edge ids and the network's
capacities) and solves it with HiGHS through ``scipy.optimize.linprog``.
It then checks the user-visible output against those optima: the solution
text for ``compare`` operations and the returned flow for ``solve_mmfpb``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

BOUND_TOL = 1e-9  # capacity and demand-bound slack, as in concurflow.compare
INTERVAL_TOL = 1e-7  # slack on the certified intervals, as in concurflow.compare
AGREE_TOL = 1e-6  # allowed gap between concurflow's exact oracle and HiGHS
STAGE_SLACK = 1e-9  # ratio slack of the second (saturation) stage


class RefereeError(RuntimeError):
    """HiGHS did not solve a referee LP to optimality."""


class Matrices:
    """Incidence ``a`` (edges x paths), capacities, group matrix ``g``, bounds."""

    def __init__(self, system):
        edge_ids = sorted({s.edge_id for group in system.paths for p in group for s in p.steps})
        row = {eid: i for i, eid in enumerate(edge_ids)}
        n = system.path_count
        self.a = np.zeros((len(edge_ids), n))
        self.g = np.zeros((system.k, n))
        col = 0
        for ci, group in enumerate(system.paths):
            for path in group:
                for step in path.steps:
                    self.a[row[step.edge_id], col] = 1.0
                self.g[ci, col] = 1.0
                col += 1
        self.caps = np.array([system.network.edge(eid).capacity for eid in edge_ids])
        self.bounds = np.array(system.network.bounds())


def _maximize(objective, a_ub, b_ub) -> float:
    res = linprog(-np.asarray(objective), A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RefereeError(f"HiGHS failed: {res.message}")
    return float(-res.fun)


def emcfpsc_optima(mats: Matrices) -> tuple[float, float]:
    """(lambda*, V_opt): the best worst ratio, then the best total at that ratio."""
    k, n = mats.g.shape
    zero = np.zeros((mats.a.shape[0], 1))
    a_ub = np.block([[mats.a, zero], [mats.g, np.zeros((k, 1))], [-mats.g, mats.bounds[:, None]]])
    b_ub = np.concatenate([mats.caps, mats.bounds, np.zeros(k)])
    lam = _maximize(np.eye(n + 1)[n], a_ub, b_ub)
    rows, rhs = [mats.a, mats.g], [mats.caps, mats.bounds]
    floor = lam - STAGE_SLACK
    if floor > 0:
        rows.append(-mats.g)
        rhs.append(-floor * mats.bounds)
    return lam, _maximize(np.ones(n), np.vstack(rows), np.concatenate(rhs))


def mmfpb_optimum(mats: Matrices) -> float:
    return _maximize(np.ones(mats.a.shape[1]), np.vstack([mats.a, mats.g]), np.concatenate([mats.caps, mats.bounds]))


def _solution_fields(text: str, instance) -> tuple[dict[str, float], np.ndarray]:
    """The scalar records and the flow vector (path order of the instance) of a solution."""
    scalars: dict[str, float] = {}
    offsets = {}
    pos = 0
    for cid, group in zip(instance.commodity_ids, instance.path_system.paths):
        offsets[cid] = pos
        pos += len(group)
    x = np.full(pos, np.nan)
    for line in text.splitlines():
        kind, *args = line.split()
        if kind == "flow":
            x[offsets[args[0]] + int(args[1])] = float(args[2])
        elif kind in ("eta", "l_star", "h_star", "value"):
            scalars[kind] = float(args[0])
    return scalars, x


def _feasibility_failures(mats: Matrices, x: np.ndarray) -> list[str]:
    failures = []
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        return ["flow vector incomplete or negative"]
    excess = float(np.max(mats.a @ x - mats.caps, initial=-np.inf))
    if excess > BOUND_TOL:
        failures.append(f"capacity exceeded by {excess:.3g}")
    over = float(np.max(mats.g @ x - mats.bounds))
    if over > BOUND_TOL:
        failures.append(f"demand bound exceeded by {over:.3g}")
    return failures


def check_compare(text: str, instance, mats: Matrices, optima, program_optima) -> list[str]:
    """The five certified inequalities, against HiGHS optima, from the solution text."""
    lam, v_opt = optima
    failures = []
    for name, ours, theirs in zip(("lambda*", "V_opt"), program_optima, optima):
        if abs(ours - theirs) > AGREE_TOL * max(1.0, abs(theirs)):
            failures.append(f"oracle {name} {ours!r} disagrees with HiGHS {theirs!r}")
    scalars, x = _solution_fields(text, instance)
    failures += _feasibility_failures(mats, x)
    if failures:
        return failures
    eta, l, h = scalars["eta"], scalars["l_star"], scalars["h_star"]
    big_b, small_b = float(mats.bounds.sum()), float(mats.bounds.min())
    branch = mats.g @ x
    value = float(branch.sum())
    if abs(value - scalars["value"]) > BOUND_TOL * max(1.0, value):
        failures.append(f"reported value {scalars['value']!r} is not the flow total {value!r}")
    lower = ((l - 1) * big_b + h - 1) * eta - 2 * eta
    upper = ((l - 1) * big_b + h) * eta
    if not lower - INTERVAL_TOL <= value <= upper + INTERVAL_TOL:
        failures.append(f"value {value!r} outside [{lower!r}, {upper!r}]")
    floor = (l - 1) * eta - 2 * eta / small_b
    if float(np.min(branch / mats.bounds)) < floor - INTERVAL_TOL:
        failures.append(f"worst ratio below the floor {floor!r}")
    if lam > l * eta + INTERVAL_TOL:
        failures.append(f"lambda* {lam!r} above l_star*eta")
    if v_opt > (l * big_b + h) * eta + INTERVAL_TOL:
        failures.append(f"V_opt {v_opt!r} above (l_star*B + h_star)*eta")
    return failures


def check_mmfpb(values, mats: Matrices, opt: float, eps: float) -> list[str]:
    """Feasibility, V_i <= b_i, and value >= opt/(1+eps)."""
    x = np.array([v for group in values for v in group])
    failures = _feasibility_failures(mats, x)
    if not failures and float(x.sum()) < opt / (1.0 + eps) - BOUND_TOL:
        failures.append(f"value {float(x.sum())!r} below opt/(1+eps) with opt {opt!r}")
    return failures
