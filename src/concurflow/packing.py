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
because ``x * 1.0 == x`` for every double. The loop runs in blocks of
``_BLOCK_STEPS`` steps with the iteration cap checked between blocks; a
block stops at the step that reaches the stop threshold, so the steps, and
the cap's meaning, are those of a loop that checks both before every step.
All arithmetic is deterministic; ties in path selection resolve to the
lowest (group, path) index.

Stopping early: a caller that only asks whether the total reaches some
``target`` can pass it. Between blocks the run then stops once either of
two bounds on the full run's total is below ``target``:

- the dual bound ``D(l)/alpha(l)``, the capacity-weighted length over the
  shortest path length (Garg and Koenemann, FOCS 1998), which bounds the
  optimum by weak duality and so every feasible total;
- the reach bound. Every later step adds ``eps * f * len(p)`` to the dual
  objective for ``f`` units of raw flow, path lengths never shrink, and the
  loop ends at the first step that takes the objective past its stop. So
  the raw flow still to come is at most the objective's distance to the
  stop over ``eps`` times the shortest length, plus one largest
  bottleneck.

A cheap filter on the last step's path lengths, whose shortest is never
longer than the current one, comes first; exact lengths confirm it, and a
bound counts only when it is below ``target`` by a relative margin far
above its rounding. A stopped run returns its flow so far, clipped and
scaled like a full run's, with the dual bound as ``upper``; its total lies
below ``target``, as the full run's would. A run that does not stop is the
full run, bit for bit.
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
# Steps of the packing loop between two checks of the iteration cap and of
# the early stop.
_BLOCK_STEPS = 32
# An early stop needs a bound below its target by this relative margin.
_STOP_MARGIN = 1e-9


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
    *,
    target: float | None = None,
) -> GroupedResult:
    """Approximately maximize total value over grouped paths.

    ``groups[g]`` lists paths as sequences of edge keys into ``capacities``;
    ``bounds[g]`` caps the group total (``None`` or ``+inf`` for unbounded,
    ``0`` shuts the group off). ``GroupedProblem`` checks the input and drops
    the paths that cannot carry flow; values come back in the input layout.

    The final lengths certify the result: ``upper = D(l)/alpha(l)``, the
    capacity-weighted length over the shortest path length, bounds the
    optimum by weak duality, and a total below ``upper/(1+eps)`` raises
    ``PackingError``. So does a run past its iteration cap; the message
    gives the iterations, the dual objective's progress to its stop on a log
    scale (1 at the stop), the scaled total so far and the dual bound.

    With ``target``, the run stops as soon as the full run is sure to end
    below it (see "Stopping early" above). A stopped run's result has its
    iterations so far and a total below ``target``, or ``PackingError`` is
    raised; a run that does not stop is the full run, bit for bit.
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
    rows = list(grow)  # the row views, made once rather than once per step

    # Lengths with delta factored out; the true length is delta * 2**shift * stored.
    length = 1.0 / cap_arr
    raw = [0.0] * n_paths
    path_len = np.empty(n_paths)
    dot, argmin, item = incidence.dot, path_len.argmin, path_len.item

    theta = -config.log_delta  # stop once log of the true dual objective >= 0
    dual = float(m)  # stored-scale dual objective, sum of cap * length
    shifts = 0
    renorm_cut = 2.0**_RENORM_SHIFT

    def threshold() -> float:
        exponent = theta - shifts * (_RENORM_SHIFT * math.log(2.0))
        return math.exp(exponent) if exponent < 700.0 else math.inf

    scale_down = math.log((1.0 + eps_int) * m) / (eps_int * math.log1p(eps_int))
    last_step = max(bottleneck)
    cap = config.max_iterations
    stop_at = threshold()
    iterations = 0
    stopped = False
    while dual < stop_at:
        if iterations >= cap:
            progress = (math.log(dual) + shifts * _RENORM_SHIFT * math.log(2.0)) / theta
            raise PackingError(
                f"packing exceeded {cap} iterations (m={m}, eps={eps}): "
                f"log-scale progress {progress:.4f}, scaled total {sum(raw) / scale_down!r}, "
                f"dual bound {_dual_bound(cap_arr, incidence, length)!r}"
            )
        for step in range(min(_BLOCK_STEPS, cap - iterations)):
            dot(length, out=path_len)
            p = argmin()
            f = bottleneck[p]
            raw[p] += f
            dual += eps_int * f * item(p)
            length *= rows[p]
            if dual > renorm_cut:
                length *= 2.0**-_RENORM_SHIFT
                dual *= 2.0**-_RENORM_SHIFT
                shifts += 1
                stop_at = threshold()
            if dual >= stop_at:
                break
        iterations += step + 1
        if target is not None and dual < stop_at:
            # Filter on the last step's lengths, then confirm on exact ones.
            # The raw flow so far plus the final step's most; the steps
            # before it add at most to_go / (eps_int * shortest).
            raw_most, to_go = sum(raw) + last_step, stop_at - dual
            shortest = path_len.min().item()
            bound = min(dual / shortest, (raw_most + to_go / (eps_int * shortest)) / scale_down)
            if bound * (1.0 + _STOP_MARGIN) < target:
                shortest = dot(length).min().item()
                objective = float(cap_arr @ length)
                bound = min(objective / shortest, (raw_most + to_go / (eps_int * shortest)) / scale_down)
                if bound * (1.0 + _STOP_MARGIN) < target:
                    stopped = True
                    break

    upper = _dual_bound(cap_arr, incidence, length)
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
    if stopped:
        if not result.total < target:
            raise PackingError(f"packing stopped early at total {result.total}, not below {target}")
    elif result.total < upper / (1.0 + eps):
        raise PackingError(
            f"packing total {result.total} is below its dual bound {upper} / (1 + {eps})"
        )
    return result


def _dual_bound(cap_arr: np.ndarray, incidence: np.ndarray, length: np.ndarray) -> float:
    """``D(l)/alpha(l)``: a bound on the optimum by weak duality, at any stored scale."""
    return float(cap_arr @ length) / incidence.dot(length).min().item()


def solve_mmfp(system: PathSystem, eps: float) -> Flow:
    """Feasible flow within factor ``1/(1+eps)`` of the maximum total value."""
    result = pack_paths(system.grouped.capacities, system.grouped, None, eps)
    return Flow(system, result.values)


def solve_mmfpb(system: PathSystem, bounds: Sequence[float], eps: float) -> Flow:
    """Like :func:`solve_mmfp` but with per-commodity value caps ``bounds``."""
    result = pack_paths(system.grouped.capacities, system.grouped, list(bounds), eps)
    return Flow(system, result.values)
