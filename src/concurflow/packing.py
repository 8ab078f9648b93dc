"""Fractional-packing approximation for explicit path flows.

The solver repeatedly routes along the currently cheapest path of an
edge-length system, inflating the lengths of the edges it touches, and
finally rescales the accumulated raw flow to a feasible one. Per-commodity
value caps are enforced structurally: each bounded group gets a private
virtual edge of capacity equal to its bound appended to all of its paths,
so the plain packing loop limits the group total like any other capacity.

Delivered factor: at least ``1/(1+eps)`` of the optimum. Internally the
loop runs at ``eps/3``, which over-delivers enough to absorb the scheme's
own losses; the oracle-gap tests pin this down against the exact LP.

Numerics: the canonical initial length scale ``delta`` underflows double
precision once the internal epsilon gets small, so lengths are stored with
``delta`` factored out and the loop renormalizes by exact powers of two,
tracking the dual objective in log space. Each path's length update is one
precomputed row, ``1 + eps * bottleneck / cap`` on its edges and exactly 1.0
elsewhere; multiplying the whole length vector by it is exact off the path,
because ``x * 1.0 == x`` for every double. All arithmetic is deterministic;
ties in path selection resolve to the lowest (group, path) index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .netmodel import Flow, GroupedProblem, GroupedResult, PathSystem

# Lengths renormalize by 2**-_RENORM_SHIFT whenever the scaled dual
# objective passes 2**_RENORM_SHIFT; exact in binary floating point.
_RENORM_SHIFT = 332


class PackingError(RuntimeError):
    """Iteration cap exceeded, or a result short of its own dual bound."""


@dataclass(frozen=True)
class FptasConfig:
    """Resolved parameters of one packing run.

    ``log_delta`` is the natural log of the initial length scale (the scale
    itself may underflow a double, so it is never materialized).
    """

    eps_user: float
    eps_int: float
    log_delta: float
    max_iterations: int

    @classmethod
    def for_run(cls, eps: float, m: int) -> "FptasConfig":
        if not 0.0 < eps <= 0.5:
            raise ValueError(f"eps must lie in (0, 1/2], got {eps}")
        eps_int = min(eps / 3.0, 0.5)
        try:
            max_iterations = 10 * math.ceil(m * math.log(m + 1) / eps_int**2) + 100
        except (ZeroDivisionError, OverflowError):  # eps_int**2 underflows, or the cap overflows
            raise ValueError(f"eps {eps} is too small: the packing iteration cap is not finite") from None
        log_delta = math.log1p(eps_int) - math.log((1.0 + eps_int) * m) / eps_int
        return cls(eps, eps_int, log_delta, max_iterations)


def pack_paths(
    capacities: dict[Hashable, float],
    groups: Sequence[Sequence[Sequence[Hashable]]],
    bounds: Sequence[float | None] | None,
    eps: float,
) -> GroupedResult:
    """Approximately maximize total value over grouped paths.

    ``groups[g]`` lists paths as sequences of edge keys into ``capacities``;
    ``bounds[g]`` caps the group total (``None`` or ``+inf`` for unbounded,
    ``0`` shuts the group off). ``GroupedProblem`` checks the input and drops
    the paths that cannot carry flow; values come back in the input layout.

    The final lengths certify the result: ``upper = D(l)/alpha(l)``, the
    capacity-weighted length over the shortest path length, bounds the
    optimum by weak duality, and a total below ``upper/(1+eps)`` raises
    ``PackingError``.
    """
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must lie in (0, 1/2], got {eps}")
    problem = GroupedProblem.build(capacities, groups, bounds)
    matrix = problem.matrix
    if not matrix.a.shape[1]:
        return problem.result([], 0)

    # Columns: the real edges, then one virtual bound edge per bounded group
    # that keeps a path.
    has_paths = matrix.g.any(axis=1)
    bounded = [g for g, b in enumerate(problem.bounds) if b is not None and has_paths[g]]
    cap_arr = np.concatenate((matrix.caps, [problem.bounds[g] for g in bounded]))
    # C order matters: np.dot rounds differently on an F-order incidence.
    incidence = np.ascontiguousarray(np.vstack((matrix.a, matrix.g[bounded])).T)
    n_paths, m = incidence.shape
    config = FptasConfig.for_run(eps, m)
    eps_int = config.eps_int

    edge_cols = [np.flatnonzero(row) for row in incidence]
    bottleneck = [cap_arr[cols].min().item() for cols in edge_cols]
    # One length-growth row per path; see "Numerics" above for why it is exact.
    grow = np.ones((n_paths, m))
    for p, cols in enumerate(edge_cols):
        grow[p, cols] = 1.0 + eps_int * (bottleneck[p] / cap_arr[cols])

    # Lengths with delta factored out; the true length is delta * 2**shift * stored.
    length = 1.0 / cap_arr
    raw = [0.0] * n_paths
    path_len = np.empty(n_paths)
    dot, argmin = incidence.dot, path_len.argmin

    theta = -config.log_delta  # stop once log of the true dual objective >= 0
    dual = float(m)  # stored-scale dual objective, sum of cap * length
    shifts = 0
    renorm_cut = 2.0**_RENORM_SHIFT

    def threshold() -> float:
        exponent = theta - shifts * (_RENORM_SHIFT * math.log(2.0))
        return math.exp(exponent) if exponent < 700.0 else math.inf

    stop_at = threshold()
    iterations = 0
    while dual < stop_at:
        if iterations >= config.max_iterations:
            raise PackingError(
                f"packing exceeded {config.max_iterations} iterations (m={m}, eps={eps})"
            )
        iterations += 1
        dot(length, out=path_len)
        p = argmin()
        f = bottleneck[p]
        raw[p] += f
        dual += eps_int * f * path_len.item(p)
        length *= grow[p]
        if dual > renorm_cut:
            length *= 2.0**-_RENORM_SHIFT
            dual *= 2.0**-_RENORM_SHIFT
            shifts += 1
            stop_at = threshold()

    # Weak duality bound; the ratio does not depend on the stored scale.
    upper = float(cap_arr @ length) / dot(length).min().item()

    scale_down = math.log((1.0 + eps_int) * m) / (eps_int * math.log1p(eps_int))
    values = np.array(raw) / scale_down

    # Clip once so feasibility holds exactly despite rounding in the scale.
    loads = incidence.T @ values
    factor = 1.0
    for col in range(m):
        if loads[col] > cap_arr[col] > 0.0:
            factor = min(factor, cap_arr[col] / loads[col])
    if factor < 1.0:
        values = values * factor

    result = problem.result(values, iterations, upper)
    if result.total < upper / (1.0 + eps):
        raise PackingError(
            f"packing total {result.total} is below its dual bound {upper} / (1 + {eps})"
        )
    return result


def solve_mmfp(system: PathSystem, eps: float) -> Flow:
    """Feasible flow within factor ``1/(1+eps)`` of the maximum total value."""
    result = pack_paths(system.grouped.capacities, system.grouped, None, eps)
    return Flow(system, result.values)


def solve_mmfpb(system: PathSystem, bounds: Sequence[float], eps: float) -> Flow:
    """Like :func:`solve_mmfp` but with per-commodity value caps ``bounds``."""
    result = pack_paths(system.grouped.capacities, system.grouped, list(bounds), eps)
    return Flow(system, result.values)
