"""Fractional-packing approximation for explicit path flows.

The solver repeatedly routes along the currently cheapest path of an
edge-length system, inflating the lengths of the edges it touches, and
finally rescales the accumulated raw flow to a feasible one. It packs the
rows of the bounded LP that ``GroupedProblem`` builds, the one the exact
engine solves: the edges, then one virtual edge per bounded group that
keeps a path, of capacity equal to its bound and on all of its paths, so
the plain packing loop limits the group total like any other capacity.

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

Ending early: between blocks the run reads the exact lengths once and
takes the dual bound ``D(l)/alpha(l)``, the capacity-weighted length over
the shortest path length. It caps the optimum by weak duality (Garg and
Koenemann, FOCS 1998). When every kept path lies in a bounded group, the
sum of the bound rows' bounds caps it too, and the run takes the smaller
of the two; a group with no kept path has no row and adds nothing. The
flow so far over its worst load-to-capacity ratio is feasible, bound
columns included, so once its total, shrunk by a relative margin far
above its rounding, is within ``1+eps`` of that bound, the run returns it,
clipped like a full run's, with the bound as ``upper``. The paper's stop
stays as the backstop, so no run takes more steps than the loop without
this exit, and every result meets the same ``(1+eps)`` check. A run with
an unbounded group that keeps a path never reads the bounds' sum.

A caller that only asks whether the total reaches some ``target`` can pass
it. The run then also stops once the dual bound is below ``target`` by the
same margin: no feasible total reaches ``target``. A stopped run returns
its flow so far, clipped and scaled like a full run's, with the dual bound
as ``upper``. No stop fires on a run whose total reaches ``target``, as
its dual bound is at least that total, and the exit above never reads
``target``, so such a run is bit for bit the run without ``target``.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping, Sequence

import numpy as np

from .netmodel import Flow, GroupedPaths, GroupedProblem, GroupedResult, PathSystem, _check_finite
from .simplex import left_sum

# Lengths renormalize by 2**-_RENORM_SHIFT whenever the scaled dual
# objective passes 2**_RENORM_SHIFT; exact in binary floating point.
_RENORM_SHIFT = 332
# Steps of the packing loop between two checks of the iteration cap and of
# the early exits.
_BLOCK_STEPS = 32
# An early exit needs its test met by this relative margin.
_STOP_MARGIN = 1e-9


class PackingError(RuntimeError):
    """Iteration cap exceeded, or a result that contradicts its bound or its early stop."""


def _iteration_cap(m: int, eps_int: float) -> int:
    """Packing steps allowed to one run over ``m`` rows at internal accuracy ``eps_int``."""
    return 10 * math.ceil(m * math.log(m + 1) / eps_int**2) + 100


def pack_paths(
    capacities: Mapping[Hashable, float],
    groups: GroupedPaths,
    bounds: Sequence[float | None] | None,
    eps: float,
    *,
    target: float | None = None,
) -> GroupedResult:
    """Approximately maximize total value over grouped paths.

    ``groups`` is a ``GroupedPaths`` and ``capacities`` its ``capacities``
    view; ``bounds[g]`` caps group g's total (``None`` or ``+inf`` for
    unbounded, ``0`` shuts the group off). ``GroupedProblem`` checks the
    input and drops the paths that cannot carry flow; ``x`` covers them all.

    The final lengths certify the result: ``upper = D(l)/alpha(l)``, the
    capacity-weighted length over the shortest path length, bounds the
    optimum by weak duality, and a total below ``upper/(1+eps)`` raises
    ``PackingError``. So does a run past its iteration cap; the message
    gives the iterations, the dual objective's progress to its stop on a log
    scale (1 at the stop), the scaled total so far and the dual bound. The
    run ends at the first block whose scaled flow is within ``1+eps`` of its
    bound, or at the paper's stop (see "Ending early" above). That bound is
    the dual bound or, when every kept path lies in a bounded group and it
    is smaller, the sum of the bound rows' bounds; a run that ends there
    returns that sum as ``upper``.

    With ``target``, the run also stops as soon as its dual bound, read on
    exact lengths every block, shows that the optimum is below ``target``.
    A stopped run's result has its iterations so far, that dual bound as
    ``upper`` and a total below ``target``, or ``PackingError`` is raised.
    A run that does not stop is the run without ``target``, bit for bit.
    """
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must lie in (0, 1/2], got {eps}")
    problem = GroupedProblem.build(capacities, groups, bounds)
    if not problem.matrix.a.shape[1]:
        return problem.result([], 0)
    cap_arr = np.array([rhs for *_, rhs in problem.rows])
    # C order matters: np.dot rounds differently on an F-order incidence.
    incidence = np.ascontiguousarray(np.vstack(problem.blocks).T)
    n_paths, m = incidence.shape
    eps_int = eps / 3.0  # the internal accuracy (module docstring)
    try:
        cap = _iteration_cap(m, eps_int)
    except (ZeroDivisionError, OverflowError):  # eps_int**2 underflows, or the cap overflows
        raise ValueError(f"eps {eps} is too small: the packing iteration cap is not finite") from None

    on = incidence > 0.0
    # The bound rows follow the edge rows. With every kept path in one, no
    # feasible total exceeds their bounds' sum.
    n_edges = problem.matrix.a.shape[0]
    bound_sum = left_sum(cap_arr[n_edges:].tolist()) if on[:, n_edges:].any(axis=1).all() else math.inf
    bottleneck_arr = np.where(on, cap_arr, math.inf).min(axis=1)
    bottleneck = bottleneck_arr.tolist()
    # One length-growth row per path; see "Numerics" above for why it is exact.
    grow = np.where(on, 1.0 + eps_int * (bottleneck_arr[:, None] / cap_arr), 1.0)
    rows = list(grow)  # the row views, made once rather than once per step

    # Lengths with delta factored out; the true length is delta * 2**shift * stored.
    length = 1.0 / cap_arr
    # delta = (1+eps_int) * ((1+eps_int)*m) ** (-1/eps_int) may underflow a
    # double, so only its log, -theta, is kept. A run that ends at the paper's
    # stop divides its raw flow by log base 1+eps_int of (1+eps_int)/delta.
    log_term = math.log((1.0 + eps_int) * m)
    theta = log_term / eps_int - math.log1p(eps_int)  # stop once log of the true dual objective >= 0
    scale_down = log_term / (eps_int * math.log1p(eps_int))
    dual = float(m)  # stored-scale dual objective, sum of cap * length
    shifts = 0
    raw = [0.0] * n_paths
    path_len = np.empty(n_paths)
    dot, argmin, item = incidence.dot, path_len.argmin, path_len.item
    renorm_cut = 2.0**_RENORM_SHIFT

    def threshold() -> float:
        exponent = theta - shifts * (_RENORM_SHIFT * math.log(2.0))
        return math.exp(exponent) if exponent < 700.0 else math.inf

    def dual_bound() -> float:
        """``D(l)/alpha(l)``: a bound on the optimum by weak duality, at any stored scale."""
        return float(cap_arr @ length) / path_len.min().item()

    stop_at = threshold()
    iterations = 0
    stopped = False
    congestion = 0.0  # the worst load-to-capacity ratio of the raw flow, when last read
    dot(length, out=path_len)  # path_len always holds the current lengths' path lengths
    while dual < stop_at:
        if iterations >= cap:
            progress = (math.log(dual) + shifts * _RENORM_SHIFT * math.log(2.0)) / theta
            raise PackingError(
                f"packing exceeded {cap} iterations (m={m}, eps={eps}): "
                f"log-scale progress {progress:.4f}, scaled total {left_sum(raw) / scale_down!r}, "
                f"dual bound {dual_bound()!r}"
            )
        for step in range(min(_BLOCK_STEPS, cap - iterations)):
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
            dot(length, out=path_len)
            if dual >= stop_at:
                break
        iterations += step + 1
        if dual < stop_at:
            upper = dual_bound()
            if target is not None and upper * (1.0 + _STOP_MARGIN) < target:
                stopped = True
                break
            so_far = left_sum(raw)
            ceiling = min(upper, bound_sum)
            # Loads never fall, so the congestion last read is at most the current
            # one, and the gap test on it passes whenever the current one's does.
            if not congestion or so_far / congestion * (1.0 - _STOP_MARGIN) >= ceiling / (1.0 + eps):
                congestion = (np.array(raw) @ incidence / cap_arr).max().item()
                if so_far / congestion * (1.0 - _STOP_MARGIN) >= ceiling / (1.0 + eps):
                    scale_down, upper = congestion, ceiling
                    break
    else:
        upper = dual_bound()
    values = np.array(raw) / scale_down

    # Clip once so feasibility holds exactly despite rounding in the scale.
    loads = incidence.T @ values
    over = loads > cap_arr  # every column's capacity is positive
    if over.any():
        values *= (cap_arr[over] / loads[over]).min()

    result = problem.result(values, iterations, upper)
    if stopped:
        if not result.total < target:
            raise PackingError(f"packing stopped early at total {result.total}, not below {target}")
    elif result.total < upper / (1.0 + eps):
        raise PackingError(
            f"packing total {result.total} is below its bound {upper} / (1 + {eps})"
        )
    return result


def solve_mmfp(system: PathSystem, eps: float) -> Flow:
    """Feasible flow within factor ``1/(1+eps)`` of the maximum total value."""
    result = pack_paths(system.grouped.capacities, system.grouped, None, eps)
    return Flow(system, result.x)


def solve_mmfpb(system: PathSystem, bounds: Sequence[float], eps: float) -> Flow:
    """Like :func:`solve_mmfp` but with per-commodity value caps ``bounds``, each finite."""
    _check_finite(bounds)
    result = pack_paths(system.grouped.capacities, system.grouped, list(bounds), eps)
    return Flow(system, result.x)
