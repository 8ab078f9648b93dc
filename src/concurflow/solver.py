"""Two-level search solver for saturated concurrent path flows.

Given a path system, per-commodity demand bounds ``b`` and a quantum
``eta``, the solver certifies two levels. An outer search raises a common
service level in steps of ``eta`` until the bounded-flow subroutine can no
longer nearly saturate the scaled demands, fixing the terminal count
``l_star``. An auxiliary network then splits every commodity's sink into a
dedicated sink (capacity pinned to the certified per-commodity share) and
one shared overflow sink; an inner search grows the overflow budget in
steps of ``eta`` until value stops keeping up, fixing ``h_star``. The
auxiliary network is two copies of the base system's compiled step rows,
one per sink kind, and projection adds each path's two copies, giving an
output whose total value, per-commodity caps, and worst service ratio are all
sandwiched by closed-form functions of ``l_star``, ``h_star`` and ``eta``.

The inner search needs no call of its own at budget 0: there the
auxiliary problem is the outer search's last passing call, with the
dedicated copies carrying its values and the overflow copy nothing, so
``solve`` hands that flow from one search to the other. It meets the
dedicated bounds and passed the outer test at level ``l_star - 1``, all
that the value and ratio floors ask of the result when ``h_star = 1``.

The subroutine is the packing approximation by default; an exact LP
subroutine can be substituted for deterministic trace tests. Only the
bounds change between the calls of one search, so its calls all reuse one
compiled path system: ``PathSystem.grouped``, or the auxiliary groups.
Each search call asks one question, whether the total reaches
``sum(bounds)/(1+eps)``, so the default subroutine hands the packing loop
that target (see ``packing``). A call whose full run is sure to fall short
stops early, and a call whose full run is sure to pass pauses and comes
back as a ``packing.Passing``. A search reads a pause as a pass without
its total and keeps only its last passing call, whose values it reads once,
when it ends; so only that call's loop runs to its end. Levels, call
counts and flows are those of full runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .netmodel import (
    Flow,
    GroupedPaths,
    GroupedResult,
    PathSystem,
    branch_values,
    flow_value,
    min_ratio,
)
from . import oracle, packing

# Strict "value fell below target" comparisons use this absolute slack;
# exact equality counts as still passing.
BELOW_TOL = 1e-12


# Called as (capacities, groups, bounds, eps). The searches pass a
# ``GroupedPaths`` as ``groups`` and its ``capacities`` snapshot beside it,
# so the engines reuse its compiled columns on every call. A search reads
# only whether the total reaches ``sum(bounds)/(1+eps)`` (less
# ``BELOW_TOL``), and keeps the flow of the last call that does. A
# ``packing.Passing`` may stand for the result: the search takes its
# certified ``least`` as the verdict and reads its flow only if it keeps it.
Subroutine = Callable[[Mapping, Sequence, list, float], GroupedResult]


def _fptas(
    capacities: Mapping, groups: Sequence, bounds: list, eps: float
) -> GroupedResult | packing.Passing:
    """The packing engine, stopped or paused once its full run's verdict is sure.

    A call that stops is below the test as the full run would be, and one
    that pauses finishes as the full run, so the searches see the full
    runs' verdicts and flows.
    """
    target = sum(bounds) / (1.0 + eps) - BELOW_TOL
    return packing.pack_paths(capacities, groups, bounds, eps, target=target)


def _oracle(capacities: Mapping, groups: Sequence, bounds: list, eps: float) -> GroupedResult:
    return oracle.lp_grouped_max(capacities, groups, bounds)


# Both look their engine up in its module at call time, so a patched
# ``packing.pack_paths`` or ``oracle.lp_grouped_max`` reaches ``solve``.
_SUBROUTINES: dict[str, Subroutine] = {"fptas": _fptas, "oracle": _oracle}


def resolve_subroutine(subroutine: str | Subroutine) -> Subroutine:
    if callable(subroutine):
        return subroutine
    try:
        return _SUBROUTINES[subroutine]
    except KeyError:
        raise ValueError(
            f"unknown subroutine {subroutine!r}; expected one of {sorted(_SUBROUTINES)}"
        ) from None


def _passes(result: GroupedResult | packing.Passing, target: float) -> bool:
    """Whether a call's total reaches a search's ``target``, less ``BELOW_TOL``.

    A paused packing run answers from its certified lower bound, so its
    loop does not run on; only a bound short of ``target`` reads the total.
    """
    if isinstance(result, packing.Passing) and result.least >= target - BELOW_TOL:
        return True
    return result.total >= target - BELOW_TOL


def _check_bounds(bounds: Sequence[float]) -> None:
    for b in bounds:
        if not (math.isfinite(b) and b > 0.0):
            raise ValueError(f"bounds must be positive and finite, got {b}")


def compute_epsilon(eta: float, bounds: Sequence[float]) -> float:
    """Subroutine accuracy derived once from the quantum and total demand."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    _check_bounds(bounds)
    return min(eta / sum(bounds), 0.5)


@dataclass(frozen=True)
class LstarResult:
    l_star: int
    calls: int
    # Per-path values of the last passing call, level ``l_star - 1``; all
    # zeros when no level passed, as the engines return under zero bounds.
    values: tuple[tuple[float, ...], ...]


def find_lstar(
    system: PathSystem,
    bounds: Sequence[float],
    eta: float,
    eps: float,
    subroutine: str | Subroutine = "fptas",
) -> LstarResult:
    """Outer search: first level l at which scaled demands stop saturating.

    Stops at the first l >= 1 with ``l * eta > 1`` (no subroutine call) or
    with subroutine value strictly below ``sum(l*eta*b) / (1+eps)``.
    Returns the terminal l, the number of subroutine calls made and the
    flow of the last level that passed.
    """
    run = resolve_subroutine(subroutine)
    paths = system.grouped
    passed = None
    calls = 0
    l = 0
    while True:
        l += 1
        if l * eta > 1.0:
            break
        scale = l * eta
        scaled = [scale * b for b in bounds]
        result = run(paths.capacities, paths, scaled, eps)
        calls += 1
        if not _passes(result, sum(scaled) / (1.0 + eps)):
            break
        passed = result
    values = tuple((0.0,) * size for size in paths.sizes) if passed is None else passed.values
    return LstarResult(l, calls, values)


@dataclass(frozen=True)
class AuxNetwork:
    """Sink-splitting extension fixed by the outer search level.

    ``groups`` is the base system's step rows twice, with a sink row after
    each path of commodity i: ``("ded", i)`` of capacity
    ``dedicated_bounds[i-1] = (l_star - 1) * eta * b_i`` in the dedicated
    copy, ``("ovf", i)`` of capacity ``b_i - dedicated_bounds[i-1]`` in the
    overflow copy. Tuple keys never collide with the string ids of the base
    edges. The subroutine sees ``k + 1`` groups: one per dedicated sink
    (bounded by its capacity) plus a single overflow group, the base paths
    in commodity order, whose bound is the inner loop's moving budget.
    """

    base: PathSystem
    dedicated_bounds: tuple[float, ...]
    groups: GroupedPaths

    @property
    def capacities(self) -> Mapping[Hashable, float]:
        return self.groups.capacities


def build_auxiliary(
    system: PathSystem,
    bounds0: Sequence[float],
    l_star: int,
    eta: float,
) -> AuxNetwork:
    """Construct the sink-splitting extension for a finished outer search."""
    if l_star < 1:
        raise ValueError(f"l_star must be >= 1, got {l_star}")
    if len(bounds0) != system.k:
        raise ValueError("bounds length does not match the commodity count")
    _check_bounds(bounds0)
    scale = (l_star - 1) * eta
    if scale > 1.0:
        raise ValueError(f"(l_star - 1) * eta = {scale} exceeds 1")

    dedicated_bounds = tuple(scale * b for b in bounds0)
    capacities = system.capacities()
    for i, (b, dedicated) in enumerate(zip(bounds0, dedicated_bounds), start=1):
        capacities["ded", i] = dedicated
        capacities["ovf", i] = b - dedicated

    # Each path of the two copies takes its steps, then its sink's row: the
    # dedicated sinks' rows follow the base edges, the overflow ones k on.
    base, k, n = system.grouped, system.k, system.path_count
    sinks = np.repeat(np.arange(len(base.edges), len(base.edges) + 2 * k), base.sizes * 2)
    lengths = np.concatenate((base.lengths, base.lengths))
    rows = np.repeat(sinks, lengths + 1)  # every place of a path holds its sink row,
    steps = np.arange(2 * base.rows.size) + np.repeat(np.arange(2 * n), lengths)
    rows[steps] = np.concatenate((base.rows, base.rows))  # then the steps fill all but the last
    labels = tuple((kind, i) for kind in ("ded", "ovf") for i in range(1, k + 1))
    groups = GroupedPaths(capacities, base.sizes + (n,), base.edges + labels, rows, lengths + 1)
    return AuxNetwork(system, dedicated_bounds, groups)


@dataclass(frozen=True)
class HstarResult:
    h_star: int
    aux_values: tuple[tuple[float, ...], ...]
    calls: int


def find_hstar(
    aux: AuxNetwork,
    eta: float,
    eps: float,
    sum_b0: float,
    subroutine: str | Subroutine = "fptas",
    start: Sequence[Sequence[float]] | None = None,
) -> HstarResult:
    """Inner search: first overflow budget the auxiliary value cannot keep up with.

    Stops at the first h >= 1 with ``h * eta > sum_b0`` or with subroutine
    value strictly below ``(sum(dedicated bounds) + h*eta) / (1+eps)``;
    returns the flow of the last passing budget. At budget 0 the auxiliary
    problem is the base system's under the dedicated bounds, the outer
    search's call at level ``l_star - 1``, so its flow, ``start`` (per-path
    values of the base groups, ``LstarResult.values``), is the result when
    the very first budget fails: the dedicated copies carry it and the
    overflow copy carries zeros; a ``start`` of another shape raises
    ``ValueError``. Without ``start`` one counted call on
    ``aux.base.grouped`` computes it.
    """
    run = resolve_subroutine(subroutine)
    calls = 0
    if start is None:
        base = aux.base.grouped
        start = run(base.capacities, base, list(aux.dedicated_bounds), eps).values
        calls += 1
    elif [len(group) for group in start] != [len(group) for group in aux.base.paths]:
        raise ValueError("start must hold one value per path of each commodity")
    caps, groups = aux.capacities, aux.groups
    sum_dedicated = sum(aux.dedicated_bounds)
    passed = None
    h = 0
    while True:
        h += 1
        budget = h * eta
        if budget > sum_b0:
            break
        result = run(caps, groups, [*aux.dedicated_bounds, budget], eps)
        calls += 1
        if not _passes(result, (sum_dedicated + budget) / (1.0 + eps)):
            break
        passed = result
    values = (*start, (0.0,) * aux.base.path_count) if passed is None else passed.values
    return HstarResult(h, values, calls)


def project_flow(aux_values: Sequence[Sequence[float]], aux: AuxNetwork) -> Flow:
    """Collapse an auxiliary flow back onto the original paths.

    Each original path receives the sum of its dedicated and overflow
    copies; the overflow group is cut into per-commodity slices by the base
    group lengths. Totals and per-commodity values are conserved exactly.
    """
    overflow = iter(aux_values[-1])
    return Flow(aux.base, tuple(
        tuple(float(d) + float(o) for d, o in zip(dedicated, islice(overflow, len(group))))
        for dedicated, group in zip(aux_values, aux.base.paths)
    ))


@dataclass(frozen=True)
class SolveReport:
    """Solver outcome plus the certified intervals implied by the levels."""

    eta: float
    eps: float
    bounds0: tuple[float, ...]
    l_star: int
    h_star: int
    flow: Flow
    value: float
    value_lower: float
    value_upper: float
    min_ratio_value: float
    min_ratio_lower: float
    min_ratio_upper: float
    subroutine_calls: int
    wall_time_s: float

    @property
    def branch_totals(self) -> tuple[float, ...]:
        return branch_values(self.flow)


def solve(
    system: PathSystem,
    eta: float,
    bounds: Sequence[float] | None = None,
    subroutine: str | Subroutine = "fptas",
) -> SolveReport:
    """Run the full pipeline and return the flow with its certified report."""
    started = time.perf_counter()
    if bounds is None:
        bounds = system.network.bounds()
    if system.k == 0:
        raise ValueError("need at least one commodity")
    if len(bounds) != system.k:
        raise ValueError("bounds length does not match the commodity count")
    eps = compute_epsilon(eta, bounds)
    run = resolve_subroutine(subroutine)
    bounds0 = tuple(float(b) for b in bounds)

    outer = find_lstar(system, bounds0, eta, eps, run)
    aux = build_auxiliary(system, bounds0, outer.l_star, eta)
    inner = find_hstar(aux, eta, eps, sum(bounds0), run, start=outer.values)
    flow = project_flow(inner.aux_values, aux)

    sum_b = sum(bounds0)
    l_star, h_star = outer.l_star, inner.h_star
    value = flow_value(flow)
    return SolveReport(
        eta=eta,
        eps=eps,
        bounds0=bounds0,
        l_star=l_star,
        h_star=h_star,
        flow=flow,
        value=value,
        value_lower=((l_star - 1) * sum_b + (h_star - 1)) * eta - 2 * eta,
        value_upper=((l_star - 1) * sum_b + h_star) * eta,
        min_ratio_value=min_ratio(flow, bounds0),
        min_ratio_lower=(l_star - 1) * eta - 2 * eta / min(bounds0),
        min_ratio_upper=l_star * eta,
        subroutine_calls=outer.calls + inner.calls,
        wall_time_s=time.perf_counter() - started,
    )
