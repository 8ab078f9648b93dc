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
``target`` can pass it. Between blocks the run then reads the exact
lengths once and stops once the dual bound ``D(l)/alpha(l)``, the
capacity-weighted length over the shortest path length, is below
``target`` by a relative margin far above its rounding. That bound caps
the optimum by weak duality (Garg and Koenemann, FOCS 1998), so a stop
certifies that no feasible total, the full run's included, reaches
``target``. A stopped run returns its flow so far, clipped and scaled like
a full run's, with the dual bound as ``upper``.

The pass side bounds the full run's total from below:

- a feasible total ``F`` is at most the optimum. Before the first step,
  ``F`` is the greedy flow's total: each path in turn takes the least
  residual capacity on its columns, bound columns included, and the total
  is shrunk by the margin to absorb the residuals' rounding. After a
  block, ``F`` is the larger of that and the flow so far over its worst
  load-to-capacity ratio;
- each later step adds ``eps * f * alpha(l) <= eps * f * D(l) / OPT`` to
  the dual objective ``D``, and the loop runs until ``D`` reaches its stop,
  so the raw flow still to come is at least ``F * ln(stop / D) / eps``.
  The log is taken in log space, from the stop's exponent, since the
  stored stop is ``+inf`` until the lengths have renormalized far enough;
- the raw flow so far plus that, scaled down, bounds the full run's
  unclipped total, and the scaling makes that flow feasible, so the clip
  only undoes rounding.

The bound is checked once before the first step, ahead of the growth rows,
and after the fail check of every block, where a filter with the dual
bound, which no feasible total exceeds, in ``F``'s place comes first. Once
the bound reaches ``target`` by the same margin, the run pauses and
returns a :class:`Passing`: the full run is sure to reach ``target``, and
its flow is computed only if someone reads it. A run that neither stops
nor pauses is the full run, bit for bit, and so is a paused run that is
finished.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Hashable, Mapping, Sequence

import numpy as np

from .netmodel import Flow, GroupedPaths, GroupedProblem, GroupedResult, PathSystem

# Lengths renormalize by 2**-_RENORM_SHIFT whenever the scaled dual
# objective passes 2**_RENORM_SHIFT; exact in binary floating point.
_RENORM_SHIFT = 332
# Steps of the packing loop between two checks of the iteration cap and of
# the early stop.
_BLOCK_STEPS = 32
# An early stop needs a bound below its target by this relative margin.
_STOP_MARGIN = 1e-9


class PackingError(RuntimeError):
    """Iteration cap exceeded, or a result that contradicts its dual bound or its early verdict."""


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
    capacities: Mapping[Hashable, float],
    groups: GroupedPaths,
    bounds: Sequence[float | None] | None,
    eps: float,
    *,
    target: float | None = None,
) -> GroupedResult | Passing:
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
    scale (1 at the stop), the scaled total so far and the dual bound.

    With ``target``, the run stops as soon as its dual bound, read on exact
    lengths every block, shows that the optimum is below ``target``, and
    pauses as soon as the full run is sure to reach it, checked before the
    first step with a greedy flow's total as the feasible total and then
    every block (see "Stopping early" above). A stopped run's result has
    its iterations so far, that dual bound as ``upper`` and a total below
    ``target``, or ``PackingError`` is raised. A paused run comes back as a
    :class:`Passing` holding the iterations so far, 0 when it paused before
    the first step; its ``finish()``, or reading any result field, runs the
    loop on to the full run's result, bit for bit. A ``Passing`` that is
    never finished never meets the iteration cap or the ``(1+eps)`` check;
    finishing it runs both, and checks that its total did reach ``target``.
    A run that neither stops nor pauses is the full run, bit for bit.
    """
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must lie in (0, 1/2], got {eps}")
    problem = GroupedProblem.build(capacities, groups, bounds)
    if not problem.matrix.a.shape[1]:
        return problem.result([], 0)
    run = _run(problem, eps, target)
    try:
        least, iterations = next(run)
    except StopIteration as done:
        return done.value
    return Passing(run, iterations, least)


class Passing:
    """A packing run paused once its full run is sure to reach its target.

    ``iterations`` counts the steps run before the pause, 0 when a greedy
    flow certified the pass before the first step, and ``least`` is the
    certified lower bound on the full run's total, at least the target.
    ``finish()`` resumes the same loop and returns the full run's
    ``GroupedResult``, bit for bit; it runs the loop once, however often it
    is called. Any other result field (``x``, ``total``, ``upper``, ...)
    is read from ``finish()``.
    """

    __slots__ = ("iterations", "least", "_run", "_result")

    def __init__(self, run: Generator, iterations: int, least: float) -> None:
        self.iterations = iterations
        self.least = least
        self._run = run
        self._result: GroupedResult | None = None

    def finish(self) -> GroupedResult:
        if self._result is None:
            if self._run is None:
                raise PackingError("a paused packing run that failed to finish cannot be read")
            run, self._run = self._run, None
            try:
                next(run)  # a resumed run never pauses again
            except StopIteration as done:
                self._result = done.value
        return self._result

    def __getattr__(self, name: str):
        if name.startswith("_"):  # a slot not yet set, as during copying
            raise AttributeError(name)
        return getattr(self.finish(), name)

    def __repr__(self) -> str:
        return f"Passing(iterations={self.iterations}, least={self.least!r})"


def _run(
    problem: GroupedProblem, eps: float, target: float | None
) -> Generator[tuple[float, int], None, GroupedResult]:
    """The packing loop of :func:`pack_paths`, as a generator that returns its result.

    With ``target``, it yields ``(least, iterations)`` once, when it pauses,
    and checks no bound after that.
    """
    cap_arr, incidence = _columns(problem)
    n_paths, m = incidence.shape
    config = FptasConfig.for_run(eps, m)
    eps_int = config.eps_int

    # Lengths with delta factored out; the true length is delta * 2**shift * stored.
    length = 1.0 / cap_arr
    theta = -config.log_delta  # stop once log of the true dual objective >= 0
    dual = float(m)  # stored-scale dual objective, sum of cap * length
    shifts = 0

    def log_stop() -> float:
        """The log of the stop at the stored scale, finite where the stop is not."""
        return theta - shifts * (_RENORM_SHIFT * math.log(2.0))

    scale_down = math.log((1.0 + eps_int) * m) / (eps_int * math.log1p(eps_int))

    def pass_bound(so_far: float, feasible: float, log_to_go: float) -> float:
        """The raw flow so far plus at least ``feasible * log_to_go / eps_int`` still to come, scaled down."""
        return (so_far + feasible * log_to_go / eps_int) / scale_down

    certified = None  # the target a paused run was sure to reach
    if target is not None:
        # Before the first step, with the greedy flow's total as the feasible
        # total; it stands in for a poorer one later on too.
        floor = sum(_greedy_flow(cap_arr, incidence)) * (1.0 - _STOP_MARGIN)
        least = pass_bound(0.0, floor, log_stop() - math.log(max(dual, float(cap_arr @ length))))
        if least >= target * (1.0 + _STOP_MARGIN):
            yield least, 0
            certified, target = target, None

    on = incidence > 0.0
    bottleneck_arr = np.where(on, cap_arr, math.inf).min(axis=1)
    bottleneck = bottleneck_arr.tolist()
    # One length-growth row per path; see "Numerics" above for why it is exact.
    grow = np.where(on, 1.0 + eps_int * (bottleneck_arr[:, None] / cap_arr), 1.0)
    rows = list(grow)  # the row views, made once rather than once per step

    raw = [0.0] * n_paths
    path_len = np.empty(n_paths)
    dot, argmin, item = incidence.dot, path_len.argmin, path_len.item
    renorm_cut = 2.0**_RENORM_SHIFT

    def threshold() -> float:
        exponent = log_stop()
        return math.exp(exponent) if exponent < 700.0 else math.inf

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
            # The fail bound on exact lengths: the dual bound caps the optimum.
            objective = float(cap_arr @ length)
            upper = objective / dot(length, out=path_len).min().item()
            if upper * (1.0 + _STOP_MARGIN) < target:
                stopped = True
                break
            # The pass bound, with a filter that has the dual bound, which no
            # feasible total exceeds, in the feasible total's place.
            so_far = sum(raw)
            log_to_go = log_stop() - math.log(max(dual, objective))
            if pass_bound(so_far, upper, log_to_go) >= target:
                congestion = (np.array(raw) @ incidence / cap_arr).max().item()
                feasible = max(so_far / congestion * (1.0 - _STOP_MARGIN), floor)
                least = pass_bound(so_far, feasible, log_to_go)
                if least >= target * (1.0 + _STOP_MARGIN):
                    yield least, iterations
                    certified, target = target, None

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
    elif certified is not None and result.total < certified:
        raise PackingError(f"packing paused as sure to reach {certified}, but ended at {result.total}")
    return result


def _columns(problem: GroupedProblem) -> tuple[np.ndarray, np.ndarray]:
    """Column capacities and the path-by-column incidence of one packing run.

    Columns are the real edges, then one virtual bound edge per bounded
    group that keeps a path.
    """
    matrix = problem.matrix
    has_paths = matrix.g.any(axis=1)
    bounded = [g for g, b in enumerate(problem.bounds) if b is not None and has_paths[g]]
    cap_arr = np.concatenate((matrix.caps, [problem.bounds[g] for g in bounded]))
    # C order matters: np.dot rounds differently on an F-order incidence.
    incidence = np.ascontiguousarray(np.vstack((matrix.a, matrix.g[bounded])).T)
    return cap_arr, incidence


def _greedy_flow(cap_arr: np.ndarray, incidence: np.ndarray) -> list[float]:
    """A feasible flow: each path in turn takes the least residual capacity on its columns.

    Feasible up to the rounding of the residuals, a few units in the last
    place of a capacity.
    """
    paths, cols = np.nonzero(incidence)
    cols = cols.tolist()
    residual = cap_arr.tolist()
    flow = []
    start = 0
    for end in np.searchsorted(paths, np.arange(1, len(incidence) + 1)).tolist():
        path = cols[start:end]
        f = min([residual[c] for c in path])
        for c in path:
            residual[c] -= f
        flow.append(f)
        start = end
    return flow


def _dual_bound(cap_arr: np.ndarray, incidence: np.ndarray, length: np.ndarray) -> float:
    """``D(l)/alpha(l)``: a bound on the optimum by weak duality, at any stored scale."""
    return float(cap_arr @ length) / incidence.dot(length).min().item()


def solve_mmfp(system: PathSystem, eps: float) -> Flow:
    """Feasible flow within factor ``1/(1+eps)`` of the maximum total value."""
    result = pack_paths(system.grouped.capacities, system.grouped, None, eps)
    return Flow.from_array(system, result.x)


def solve_mmfpb(system: PathSystem, bounds: Sequence[float], eps: float) -> Flow:
    """Like :func:`solve_mmfp` but with per-commodity value caps ``bounds``."""
    result = pack_paths(system.grouped.capacities, system.grouped, list(bounds), eps)
    return Flow.from_array(system, result.x)
