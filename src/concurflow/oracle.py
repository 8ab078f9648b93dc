"""Exact LP reference solvers over path variables.

Desk-scale solvers used to verify everything the approximation pipeline
certifies: maximum total path flow with per-commodity caps, the best worst
service ratio, and the two-stage variant that saturates total value at the
optimal ratio. All of them reduce to small dense LPs with one variable per
path, solved by the in-package simplex.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from .netmodel import Flow, GroupedProblem, GroupedResult, PathMatrix, PathSystem
from .simplex import SimplexError, solve_lp

# Slack subtracted from the stage-1 ratio before stage 2 re-imposes it,
# absorbing stage-1 rounding so the stage-2 region never comes up empty.
STAGE_SLACK = 1e-9


class OracleError(RuntimeError):
    """The reference LP failed to solve; results must not be trusted."""


def _clip(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, 0.0)


def _path_rows(
    matrix: PathMatrix,
    bounds: Sequence[float | None],
    ratio: bool = False,
    floor: float = 0.0,
) -> list:
    """The rows of every path LP here, all over one incidence matrix.

    In order: one ``V_e <= cap_e`` row per edge; then, per group with a
    bound that is neither ``None`` nor 0, ``V_g <= b_g``, followed when
    ``floor > 0`` and the group has paths by ``V_g >= floor * b_g``; last,
    with ``ratio``, one ``ratio * b_g - V_g <= 0`` row per group. With
    ``ratio`` variable 0 is the ratio and the path columns follow.
    """
    a, g = matrix.a, matrix.g
    if ratio:
        a = np.hstack((np.zeros((a.shape[0], 1)), a))
        g = np.hstack((np.zeros((g.shape[0], 1)), g))
    rows = [(coeffs, "<=", cap) for coeffs, cap in zip(a, matrix.caps)]
    for i, bound in enumerate(bounds):
        if bound is None or bound == 0:
            continue
        rows.append((g[i], "<=", bound))
        if floor > 0 and g[i].any():
            rows.append((g[i], ">=", floor * bound))
    if ratio:
        for i, bound in enumerate(bounds):
            coeffs = 0.0 - g[i]  # not -g[i]: absent paths keep a +0.0 coefficient
            coeffs[0] = bound
            rows.append((coeffs, "<=", 0.0))
    return rows


def lp_grouped_max(
    capacities: dict[Hashable, float],
    groups: Sequence[Sequence[Sequence[Hashable]]],
    bounds: Sequence[float | None] | None,
) -> GroupedResult:
    """Maximize total value over grouped paths under edge caps and group bounds.

    ``groups[g]`` is a list of paths, each a sequence of edge keys into
    ``capacities``; ``bounds[g]`` caps the group's total value (``None`` or
    ``+inf`` means unbounded, 0 drops the group). Input is read as by
    :func:`pack_paths`, through ``GroupedProblem``. This is the engine behind
    the public solvers and is also callable directly with synthetic groups.
    """
    problem = GroupedProblem.build(capacities, groups, bounds)
    n = problem.matrix.a.shape[1]
    if not n:
        return problem.result([], 0)
    try:
        res = solve_lp(np.ones(n), _path_rows(problem.matrix, problem.bounds))
    except SimplexError as exc:
        raise OracleError(f"path LP failed: {exc}") from exc
    return problem.result(_clip(res.x), res.iterations)


def lp_mmfp_exact(system: PathSystem) -> tuple[float, Flow]:
    """Exact maximum total path flow (no per-commodity bounds)."""
    result = lp_grouped_max(system.grouped.capacities, system.grouped, None)
    return result.total, Flow(system, result.values)


def lp_mmfpb_exact(system: PathSystem, bounds: Sequence[float] | None = None) -> tuple[float, Flow]:
    """Exact maximum total path flow with per-commodity value caps.

    ``bounds`` defaults to the network's commodity bounds; entries must be
    finite and nonnegative.
    """
    if bounds is None:
        bounds = system.network.bounds()
    if np.inf in bounds:  # lp_grouped_max would read it as unbounded
        raise ValueError("bounds must be finite, got inf")
    result = lp_grouped_max(system.grouped.capacities, system.grouped, bounds)
    return result.total, Flow(system, result.values)


def lp_emcfp_lambda(system: PathSystem, bounds: Sequence[float] | None = None) -> float:
    """Exact best worst-case service ratio ``max min_i V_i / b_i`` with V_i <= b_i.

    A commodity with an empty path list pins the ratio to zero.
    """
    if bounds is None:
        bounds = system.network.bounds()
    if len(bounds) != system.k:
        raise ValueError("bounds length does not match the commodity count")
    for b in bounds:
        if not b > 0:
            raise ValueError(f"bounds must be positive, got {b}")
    objective = np.zeros(system.path_count + 1)
    objective[0] = 1.0
    try:
        res = solve_lp(objective, _path_rows(system.matrix, bounds, ratio=True))
    except SimplexError as exc:
        raise OracleError(f"ratio LP failed: {exc}") from exc
    return float(min(max(res.value, 0.0), 1.0))


def lp_emcfpsc(system: PathSystem, bounds: Sequence[float] | None = None) -> tuple[float, float, Flow]:
    """Two-stage exact solve: best ratio first, then maximum total value at it.

    Stage 2 re-imposes ``V_i >= (ratio - STAGE_SLACK) * b_i`` and maximizes
    the total value, returning ``(ratio, total, flow)``.
    """
    if bounds is None:
        bounds = system.network.bounds()
    lam = lp_emcfp_lambda(system, bounds)
    n = system.path_count
    if n == 0:
        return lam, 0.0, Flow.zero(system)
    # An empty group forces ratio 0 and gets no floor row.
    rows = _path_rows(system.matrix, bounds, floor=lam - STAGE_SLACK)
    try:
        res = solve_lp(np.ones(n), rows)
    except SimplexError as exc:
        raise OracleError(f"saturation LP failed: {exc}") from exc
    x = _clip(res.x)
    flat = iter(x.tolist())
    flow = Flow(system, tuple(tuple(next(flat) for _ in group) for group in system.paths))
    return lam, float(x.sum()), flow
