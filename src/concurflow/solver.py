"""Two-level search solver for saturated concurrent path flows.

Given a path system, per-commodity demand bounds ``b`` and a quantum
``eta``, the solver certifies two levels. An outer search raises a common
service level in steps of ``eta`` until the bounded-flow subroutine can no
longer nearly saturate the scaled demands, fixing the terminal count
``l_star``. An auxiliary network then splits every commodity's flow into a
dedicated part, pinned to its certified share, and one shared overflow
sink; an inner search grows the overflow budget in steps of ``eta`` until
value stops keeping up, fixing ``h_star``. The auxiliary network is the base
system's compiled step rows and capacities twice, with one sink row per
overflow copy; the dedicated share is the group's bound. Projection adds the
two halves of the inner search's flat flow, giving an output whose total
value, per-commodity caps, and worst service ratio are all sandwiched by
closed-form functions of ``l_star``, ``h_star`` and ``eta``.

Each stage takes only the result of the stage before it. ``solve`` reads
the demand bounds from the system's network and hands them to
``find_lstar`` with ``eta``. Its ``LstarResult`` records the system, bounds
and ``eta`` it searched, and rejects on construction any value no search
could return. ``build_auxiliary`` takes that result alone and keeps it as
the ``AuxNetwork``'s ``outer``, from which ``find_hstar`` reads the rest.
Both searches run one level loop, ``_search``, which checks ``eta`` and
derives ``eps`` before its first call. The inner search's result at budget
0 is the outer search's last passing call, ``outer.last``: with the
overflow group off, the auxiliary problem is that call's, row for row, the
dedicated copies carrying its values. Its flow meets the dedicated bounds
and passed the outer test at level ``l_star - 1``, all that the value and
ratio floors ask of the result when ``h_star = 1``. When no overflow
capacity is left (every ``b_i`` met in full by its dedicated share), that
call answers every budget, with no call; a failing budget's certificate is
then that call's own contract, its total at least the optimum over
``1+eps``.

The subroutine is the packing approximation by default; an exact LP
subroutine can be substituted for deterministic trace tests. Only the
bounds change between the calls of one search, so its calls all pass one
compiled path system, ``PathSystem.grouped`` or the auxiliary groups,
beside its ``capacities`` view; each result is one flat per-path array.
Each search call asks one question, whether the total reaches
``sum(bounds)/(1+eps)``, so the default subroutine hands the packing loop
that target (see ``packing``). A call whose dual bound shows that the
optimum falls short stops early; every other call runs as it would
without the target, bit for bit. Every search call bounds every group,
so the sum of its bounds also caps the optimum, and a call ends at its
first block within ``1+eps`` of the smaller of that sum and its dual
bound, or at the paper's stop. So levels, call counts and flows are
those of runs without a target. A search keeps only its last passing
call.

The searches make about ``1/eta + sum(b)/eta + 2`` calls at most, so
``compute_epsilon`` rejects an ``eta`` that would allow more than
``MAX_SEARCH_CALLS`` of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .netmodel import (
    Flow,
    GroupedPaths,
    GroupedResult,
    PathSystem,
    _check_bounds,
    flow_value,
    min_ratio,
)
from . import oracle, packing
from .simplex import left_sum

# Strict "value fell below target" comparisons use this absolute slack;
# exact equality counts as still passing.
BELOW_TOL = 1e-12
# The most subroutine calls an ``eta`` may let the two searches make.
MAX_SEARCH_CALLS = 10**5


# Called as (capacities, groups, bounds, eps). The searches pass a
# ``GroupedPaths`` as ``groups`` and its ``capacities`` view beside it, so
# the engines reuse its compiled columns on every call. A search reads only
# whether the total reaches ``sum(bounds)/(1+eps)`` (less ``BELOW_TOL``),
# and keeps the flat per-path array ``x`` of the last call that does.
Subroutine = Callable[[Mapping, GroupedPaths, list, float], GroupedResult]


def _pass_threshold(bounds: Sequence[float], eps: float) -> float:
    """The least total that passes a search call under ``bounds``."""
    return left_sum(bounds) / (1.0 + eps) - BELOW_TOL


def _fptas(capacities: Mapping, groups: GroupedPaths, bounds: list, eps: float) -> GroupedResult:
    """The packing engine, stopped once its dual bound is below the search's test.

    A call that stops is below the test, as no feasible total reaches it;
    any other call is the run without a target, so the searches see those
    runs' verdicts and flows.
    """
    return packing.pack_paths(capacities, groups, bounds, eps, target=_pass_threshold(bounds, eps))


def _oracle(capacities: Mapping, groups: GroupedPaths, bounds: list, eps: float) -> GroupedResult:
    return oracle.lp_grouped_max(capacities, groups, bounds)


# Both look their engine up in its module at call time, so a patched
# ``packing.pack_paths`` or ``oracle.lp_grouped_max`` reaches ``solve``.
_SUBROUTINES: dict[str, Subroutine] = {"fptas": _fptas, "oracle": _oracle}
# The engine every search, ``solve`` and ``compare`` use unless told otherwise.
DEFAULT_SUBROUTINE = "fptas"


def resolve_subroutine(subroutine: str | Subroutine) -> Subroutine:
    if callable(subroutine):
        return subroutine
    try:
        return _SUBROUTINES[subroutine]
    except KeyError:
        raise ValueError(
            f"unknown subroutine {subroutine!r}; expected one of {sorted(_SUBROUTINES)}"
        ) from None


def compute_epsilon(eta: float, bounds: Sequence[float]) -> float:
    """Subroutine accuracy derived from the quantum and total demand.

    Rejects an ``eta`` whose worst-case call count, about ``1/eta +
    sum(bounds)/eta + 2``, exceeds ``MAX_SEARCH_CALLS``.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if not bounds:
        raise ValueError("need at least one commodity")
    _check_bounds(bounds)
    total = left_sum(bounds)
    calls = 1.0 / eta + total / eta + 2.0
    if calls > MAX_SEARCH_CALLS:
        raise ValueError(
            f"eta {eta} is too small: the searches could make {calls:.3g} subroutine calls, "
            f"more than {MAX_SEARCH_CALLS}"
        )
    return min(eta / total, 0.5)


def _search(
    run: Subroutine | None,
    paths: GroupedPaths,
    eta: float,
    bounds0: Sequence[float],
    limit: float,
    bounds_at: Callable[[float], list],
    seed: GroupedResult | None = None,
) -> tuple[int, int, GroupedResult | None]:
    """The paper's linear level search, which both searches run.

    Derives ``eps`` from ``eta`` and ``bounds0`` before any call, then asks
    ``run`` on ``paths`` at levels 1, 2, ... while ``level * eta <= limit``,
    under ``bounds_at(level * eta)``, until a total falls short of
    ``sum(bounds)/(1+eps)`` (less ``BELOW_TOL``). ``seed`` stands for level
    0; with ``run`` None it answers every level, with no call. Returns the
    terminal level, the calls made and the last passing result.
    """
    eps = compute_epsilon(eta, bounds0)
    passed, calls, level = seed, 0, 1
    while level * eta <= limit:
        bounds = bounds_at(level * eta)
        if run is None:
            result = seed
        else:
            result = run(paths.capacities, paths, bounds, eps)
            calls += 1
        if result.total < _pass_threshold(bounds, eps):
            break
        passed = result
        level += 1
    return level, calls, passed


@dataclass(frozen=True)
class LstarResult:
    """An outer search: what it searched, where it stopped, and its last pass.

    Rejects any value no search could return: an ``eta`` outside (0, 1),
    ``bounds`` that are not ``system.k`` positive finite numbers, ``l_star <
    1``, ``(l_star - 1) * eta > 1``, or a ``last`` that is None when
    ``l_star > 1`` or not None when ``l_star == 1``.
    """

    system: PathSystem
    bounds: tuple[float, ...]
    eta: float
    l_star: int
    calls: int
    # The last passing call, level ``l_star - 1``; None when no level passed.
    last: GroupedResult | None

    def __post_init__(self) -> None:
        compute_epsilon(self.eta, self.bounds)
        _check_bounds(self.bounds, self.system.k)
        if self.l_star < 1:
            raise ValueError(f"l_star must be >= 1, got {self.l_star}")
        scale = (self.l_star - 1) * self.eta
        if scale > 1.0:
            raise ValueError(f"(l_star - 1) * eta = {scale} exceeds 1")
        if (self.last is None) != (self.l_star == 1):
            got = f"got l_star {self.l_star} and last {self.last!r}"
            raise ValueError(f"last must be None exactly when l_star == 1, {got}")


def find_lstar(
    system: PathSystem,
    bounds: Sequence[float],
    eta: float,
    subroutine: str | Subroutine = DEFAULT_SUBROUTINE,
) -> LstarResult:
    """Outer search: first level l at which scaled demands stop saturating.

    Derives ``eps`` from ``eta`` and the bounds ``b``; an ``eta`` outside
    (0, 1), or too small for ``compute_epsilon``, raises ``ValueError``
    before any call. Stops at the first l >= 1 with ``l * eta > 1`` (no
    subroutine call) or with subroutine value strictly below
    ``sum(l*eta*b) / (1+eps)``. Returns the searched system,
    bounds and ``eta`` with the terminal l, the number of subroutine calls
    made and the last level's passing call.
    """
    run = resolve_subroutine(subroutine)
    l_star, calls, last = _search(run, system.grouped, eta, bounds, 1.0, lambda scale: [scale * b for b in bounds])
    return LstarResult(system, tuple(bounds), eta, l_star, calls, last)


@dataclass(frozen=True)
class AuxNetwork:
    """Sink-splitting extension of the outer search ``outer``.

    ``groups`` is the base system's step rows twice, with one sink row per
    overflow copy; the dedicated share is the group's bound. The dedicated
    copies are the base paths as they are; each overflow copy of a path of
    commodity i ends in ``("ovf", i)``, of capacity ``b_i -
    dedicated_bounds[i-1]``, where ``dedicated_bounds[i-1] = (l_star - 1) *
    eta * b_i``. Tuple keys never collide with the string ids of the base
    edges. The subroutine sees ``k + 1`` groups: one dedicated copy per
    commodity, bounded by its share, plus a single overflow group, the base
    paths in commodity order, whose bound is the inner loop's moving budget.
    """

    outer: LstarResult
    dedicated_bounds: tuple[float, ...]
    groups: GroupedPaths


def build_auxiliary(outer: LstarResult) -> AuxNetwork:
    """Construct the sink-splitting extension at the outer search's terminal level."""
    system, bounds = outer.system, outer.bounds
    scale = (outer.l_star - 1) * outer.eta
    dedicated_bounds = tuple(scale * b for b in bounds)
    # The dedicated copies are the base paths; each overflow copy ends in its sink's row.
    base, k, n = system.grouped, system.k, system.path_count
    sinks = np.repeat(np.arange(len(base.edges), len(base.edges) + k), base.sizes)
    overflow = np.insert(base.rows, np.cumsum(base.lengths), sinks)  # after each path's last step
    rows, lengths = np.concatenate((base.rows, overflow)), np.concatenate((base.lengths, base.lengths + 1))
    labels = tuple(("ovf", i) for i in range(1, k + 1))
    caps = np.concatenate((base.caps, np.array(bounds) - dedicated_bounds))
    groups = GroupedPaths(base.sizes + (n,), base.edges + labels, caps, rows, lengths)
    return AuxNetwork(outer, dedicated_bounds, groups)


@dataclass(frozen=True)
class HstarResult:
    """Where an inner search stopped, its read-only flow ``x`` (dedicated, then overflow copies), its calls."""

    h_star: int
    x: np.ndarray
    calls: int


def find_hstar(aux: AuxNetwork, subroutine: str | Subroutine = DEFAULT_SUBROUTINE) -> HstarResult:
    """Inner search: first overflow budget the auxiliary value cannot keep up with.

    Reads ``eta`` and the bounds ``b`` from ``aux.outer`` and derives
    ``eps`` as the outer search does. Stops at the first h >= 1 with ``h *
    eta > sum(b)`` or with subroutine value strictly below
    ``(sum(dedicated bounds) + h*eta) / (1+eps)``; returns the flow of the
    last passing budget. At budget 0 the overflow group is off, and the
    auxiliary problem is, row for row, the base system's under the dedicated
    bounds: the outer search's call at level ``l_star - 1``. So
    ``aux.outer.last`` answers budget 0 with no call: its flow is the result
    when the very first budget fails, the dedicated copies carrying it and
    the overflow copy zeros (all zeros when no level passed, as the engines
    return under zero bounds).

    When every overflow sink has capacity 0, no overflow path carries flow,
    so every budget's problem is budget 0's: each budget is answered from
    that one result, with no call, and the flow is always its flow.
    """
    run = resolve_subroutine(subroutine)
    outer = aux.outer
    if aux.dedicated_bounds == outer.bounds:  # every overflow capacity b - d is 0
        run = None
    h_star, calls, passed = _search(
        run, aux.groups, outer.eta, outer.bounds, left_sum(outer.bounds),
        lambda budget: [*aux.dedicated_bounds, budget], outer.last,
    )
    if passed is not outer.last:
        x = passed.x
    else:  # the overflow copies carry nothing
        n = outer.system.path_count
        x = np.concatenate((np.zeros(n) if passed is None else passed.x, np.zeros(n)))
        x.flags.writeable = False
    return HstarResult(h_star, x, calls)


def project_flow(x: np.ndarray, aux: AuxNetwork) -> Flow:
    """Collapse an auxiliary flow ``x`` back onto the original paths.

    Each original path receives the sum of its dedicated and overflow
    copies, the two halves of ``x``; the flow holds those sums. Totals and
    per-commodity values are conserved up to each sum's rounding.
    """
    system = aux.outer.system
    n = system.path_count
    return Flow(system, x[:n] + x[n:])


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


def solve(
    system: PathSystem,
    eta: float,
    subroutine: str | Subroutine = DEFAULT_SUBROUTINE,
) -> SolveReport:
    """Run the full pipeline on the network's demand bounds; return the flow and its certified report."""
    started = time.perf_counter()
    bounds0 = tuple(float(b) for b in system.network.bounds())
    outer = find_lstar(system, bounds0, eta, subroutine)
    aux = build_auxiliary(outer)
    inner = find_hstar(aux, subroutine)
    flow = project_flow(inner.x, aux)

    sum_b = left_sum(bounds0)
    l_star, h_star = outer.l_star, inner.h_star
    value = flow_value(flow)
    return SolveReport(
        eta=eta,
        eps=compute_epsilon(eta, bounds0),
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
