import math
import re
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concurflow.packing as packing
from concurflow import generate_instance
from concurflow.compare import capacity_slack
from concurflow.netmodel import CAP_TOLERANCE, Flow, branch_values, flow_value
from concurflow.oracle import lp_grouped_max, lp_mmfp_exact, lp_mmfpb_exact
from concurflow.packing import (
    _BLOCK_STEPS,
    _RENORM_SHIFT,
    _STOP_MARGIN,
    FptasConfig,
    PackingError,
    pack_paths,
    solve_mmfp,
    solve_mmfpb,
)
from concurflow.simplex import left_sum
from concurflow.solver import BELOW_TOL, compute_epsilon
from conftest import (
    aux_at,
    bits,
    compiled,
    edge_groups,
    make_network,
    make_system,
    reference_aux_groups,
    reference_layout,
    t1_system,
)


def diamond_system():
    # Two commodities over a small diamond; several overlapping paths.
    net = make_network(
        ["s", "a", "b", "t"],
        [
            ("e1", "s", "a", 1.0, True),
            ("e2", "s", "b", 0.8, True),
            ("e3", "a", "t", 0.9, True),
            ("e4", "b", "t", 1.2, True),
            ("e5", "a", "b", 0.5, False),
        ],
        [("s", "t", 1.0), ("s", "t", 2.0)],
    )
    return make_system(
        net,
        [
            [["e1", "e3"], ["e2", "e4"], ["e1", "e5", "e4"]],
            [["e2", "e5", "e3"], ["e1", "e3"]],
        ],
    )


@pytest.fixture
def diamond():
    return diamond_system()


class TestUnbounded:
    def test_empty_system_gives_zero_flow(self):
        net = make_network(["s", "t"], [("e", "s", "t", 1, True)], [("s", "t", 1)])
        system = make_system(net, [[]])
        flow = solve_mmfp(system, 0.1)
        assert flow_value(flow) == 0.0

    def test_single_path_close_to_capacity(self, t3):
        # Optimum 2.0 on the lone capacity-2 edge.
        flow = solve_mmfp(t3, 0.1)
        assert capacity_slack(flow) >= -CAP_TOLERANCE
        assert 2.0 / 1.1 - 1e-9 <= flow_value(flow) <= 2.0 + 1e-9

    def test_unit_edge(self, t1):
        flow = solve_mmfp(t1, 0.1)
        assert capacity_slack(flow) >= -CAP_TOLERANCE
        assert 1.0 / 1.1 - 1e-9 <= flow_value(flow) <= 1.0 + 1e-9

    def test_disjoint_edges(self, t2):
        opt, _ = lp_mmfp_exact(t2)
        assert opt == pytest.approx(1.5, abs=1e-9)
        flow = solve_mmfp(t2, 0.1)
        assert capacity_slack(flow) >= -CAP_TOLERANCE
        assert flow_value(flow) >= opt / 1.1 - 1e-9

    def test_eps_out_of_range(self, t1):
        for eps in (0.0, -0.1, 0.51, 1.0):
            with pytest.raises(ValueError):
                solve_mmfp(t1, eps)

    @pytest.mark.parametrize("eps", [1e-160, 1e-170, 1e-300, 5e-324])
    def test_eps_too_small_for_a_finite_cap(self, t1, eps):
        # 1e-160 overflowed the iteration cap; from about 1e-170 eps_int**2 is 0.
        with pytest.raises(ValueError, match=f"^eps {eps} is too small: "):
            pack_paths(t1.grouped.capacities, t1.grouped, None, eps)


class TestBounded:
    def test_shared_edge_with_bounds(self, t1):
        flow = solve_mmfpb(t1, (1.0, 2.0), 0.1)
        assert capacity_slack(flow) >= -CAP_TOLERANCE
        v = branch_values(flow)
        assert v[0] <= 1.0 + 1e-9
        assert v[1] <= 2.0 + 1e-9
        assert flow_value(flow) >= 1.0 / 1.1 - 1e-9

    def test_all_zero_bounds(self, t1):
        flow = solve_mmfpb(t1, (0.0, 0.0), 0.1)
        assert flow_value(flow) == 0.0

    def test_bound_limited_edge(self, t3):
        flow = solve_mmfpb(t3, (1.0,), 0.25)
        assert capacity_slack(flow) >= -CAP_TOLERANCE
        assert branch_values(flow)[0] <= 1.0 + 1e-9
        assert flow_value(flow) >= 1.0 / 1.25 - 1e-9

    def test_negative_bound_rejected(self, t1):
        with pytest.raises(ValueError):
            solve_mmfpb(t1, (-1.0, 1.0), 0.1)

    def test_bounds_length_mismatch(self, t1):
        with pytest.raises(ValueError):
            solve_mmfpb(t1, (1.0,), 0.1)

    def test_zero_capacity_path_dropped(self):
        net = make_network(
            ["s", "t"],
            [("e1", "s", "t", 1.0, True), ("e2", "s", "t", 1.0, True)],
            [("s", "t", 5.0)],
        )
        system = make_system(net, [[["e1"], ["e2"]]])
        caps = {"e1": 0.0, "e2": 1.0}
        result = pack_paths(*compiled(caps, edge_groups(system)), [5.0], 0.1)
        assert result.x[0] == 0.0
        assert result.total >= 1.0 / 1.1 - 1e-9  # the one group's total


class TestGuarantee:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.25, 0.5])
    def test_gap_against_oracle_bounded(self, diamond, eps):
        bounds = (0.7, 1.3)
        opt, _ = lp_mmfpb_exact(diamond, bounds)
        flow = solve_mmfpb(diamond, bounds, eps)
        assert capacity_slack(flow) >= -CAP_TOLERANCE
        for v, b in zip(branch_values(flow), bounds):
            assert v <= b + 1e-9
        assert flow_value(flow) >= opt / (1.0 + eps) - 1e-9

    @pytest.mark.parametrize("eps", [0.05, 0.25])
    def test_gap_against_oracle_unbounded(self, diamond, eps):
        opt, _ = lp_mmfp_exact(diamond)
        flow = solve_mmfp(diamond, eps)
        assert capacity_slack(flow) >= -CAP_TOLERANCE
        assert flow_value(flow) >= opt / (1.0 + eps) - 1e-9

    def test_tiny_eps_still_sound(self, t1):
        # Exercises the log-space threshold and renormalization path.
        flow = solve_mmfpb(t1, (1.0, 2.0), 0.004)
        assert capacity_slack(flow) >= -CAP_TOLERANCE
        assert flow_value(flow) >= 1.0 / 1.004 - 1e-9


class TestDeterminism:
    def test_bit_identical_reruns(self, diamond):
        a = solve_mmfpb(diamond, (0.7, 1.3), 0.1)
        b = solve_mmfpb(diamond, (0.7, 1.3), 0.1)
        assert a.values == b.values

    def test_iterations_reported(self, diamond):
        result = pack_paths(
            diamond.grouped.capacities, diamond.grouped, None, 0.2
        )
        assert result.iterations > 0


def starved_cap(monkeypatch, cap):
    """Make every packing run's iteration cap ``cap``."""
    import concurflow.packing as packing

    real = FptasConfig.for_run

    def for_run(cls_eps, m):
        cfg = real(cls_eps, m)
        return FptasConfig(cfg.eps_user, cfg.eps_int, cfg.log_delta, cap)

    monkeypatch.setattr(packing.FptasConfig, "for_run", for_run)


class TestIterationGrowth:
    def test_quadratic_scaling_in_inverse_eps(self, diamond):
        groups = diamond.grouped
        caps = groups.capacities
        base = pack_paths(caps, groups, None, 0.2)
        half = pack_paths(caps, groups, None, 0.1)
        ratio = half.iterations / base.iterations
        assert 2.0 <= ratio <= 8.0

    def test_cap_formula(self):
        config = FptasConfig.for_run(0.3, 12)
        assert config.eps_int == pytest.approx(0.1)
        assert config.max_iterations > 12 / 0.1**2

    def test_iteration_cap_raises(self, monkeypatch, diamond):
        starved_cap(monkeypatch, 1)
        with pytest.raises(PackingError):
            solve_mmfp(diamond, 0.2)

    def test_early_stop_fails_its_certificate(self, monkeypatch, diamond):
        import concurflow.packing as packing

        real = FptasConfig.for_run

        def stop_at_once(cls_eps, m):
            cfg = real(cls_eps, m)
            # A start scale above 1 is past the stop threshold before any step.
            return FptasConfig(cfg.eps_user, cfg.eps_int, 1.0, cfg.max_iterations)

        monkeypatch.setattr(packing.FptasConfig, "for_run", stop_at_once)
        with pytest.raises(PackingError, match="below its bound"):
            solve_mmfp(diamond, 0.2)


class TestNonFinite:
    def test_nan_bound_rejected_by_solve_mmfpb(self, t1):
        with pytest.raises(ValueError, match="NaN bound"):
            solve_mmfpb(t1, (math.nan, 1.0), 0.1)

    @pytest.mark.parametrize(
        "solver", [lambda system, bounds: solve_mmfpb(system, bounds, 0.1), lp_mmfpb_exact], ids=["packing", "exact"]
    )
    def test_infinite_commodity_bound_rejected(self, t2, solver):
        # Read as unbounded, +inf would let the first commodity fill its edge: 1.5, not 1.0.
        with pytest.raises(ValueError, match="^bounds must be finite, got inf$"):
            solver(t2, [math.inf, 1.0])

    def test_infinite_bound_means_unbounded(self, t1):
        caps, groups, bounds = t1.grouped.capacities, t1.grouped, [math.inf, None]
        assert bits(pack_paths(caps, groups, bounds, 0.1)) == bits(pack_paths(caps, groups, None, 0.1))
        assert bits(lp_grouped_max(caps, groups, bounds)) == bits(lp_grouped_max(caps, groups, None))


@dataclass(frozen=True)
class ReferenceResult:
    values: tuple[tuple[float, ...], ...]
    group_totals: tuple[float, ...]
    total: float
    iterations: int
    config: FptasConfig | None


# The packing loop as it stood before each path got a precomputed growth row:
# it multiplies only the path's own edge lengths, one fresh factor array per
# step, and checks the gap exit after every step that ends a block, against
# the dual bound or, when every kept path lies in a bounded group, the
# bounds' sum if that is smaller. The current loop must reproduce it bit for
# bit.
def reference_pack_paths(
    capacities: dict[Hashable, float],
    groups: Sequence[Sequence[Sequence[Hashable]]],
    bounds: Sequence[float | None] | None,
    eps: float,
) -> ReferenceResult:
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must lie in (0, 1/2], got {eps}")
    if bounds is not None:
        if len(bounds) != len(groups):
            raise ValueError("bounds length does not match the group count")
        for g, bound in enumerate(bounds):
            if bound is not None and not math.isinf(bound) and bound < 0:
                raise ValueError(f"negative bound {bound} for group {g}")

    def group_bound(g: int) -> float | None:
        if bounds is None:
            return None
        b = bounds[g]
        if b is None or (isinstance(b, float) and math.isinf(b)):
            return None
        return float(b)

    def usable(path) -> bool:
        # A key missing from ``capacities`` passes here; the build reports it.
        return not any(capacities.get(key, 1.0) <= 0.0 for key in path)

    # Columns: the real edges, then one virtual bound edge per bounded group
    # that keeps a path.
    keep = [
        [] if group_bound(g) == 0.0 else [j for j, path in enumerate(group) if usable(path)]
        for g, group in enumerate(groups)
    ]
    matrix = reference_layout(
        capacities, [[groups[g][j] for j in js] for g, js in enumerate(keep)]
    )
    path_key = [(g, j) for g, js in enumerate(keep) for j in js]

    values_dense = [[0.0] * len(group) for group in groups]
    zero_totals = tuple(0.0 for _ in groups)
    if not path_key:
        return ReferenceResult(
            tuple(tuple(v) for v in values_dense), zero_totals, 0.0, 0, None
        )

    bounded = [g for g, js in enumerate(keep) if js and group_bound(g) is not None]
    cap_arr = np.concatenate((matrix.caps, [group_bound(g) for g in bounded]))
    # With every kept path in a bounded group, the bounds' sum caps the optimum.
    live = [g for g, js in enumerate(keep) if js]
    bound_sum = left_sum([group_bound(g) for g in bounded]) if bounded == live else math.inf
    # C order matters: np.dot rounds differently on an F-order incidence.
    incidence = np.ascontiguousarray(np.vstack((matrix.a, matrix.g[bounded])).T)
    n_paths, m = incidence.shape
    config = FptasConfig.for_run(eps, m)
    eps_int = config.eps_int

    edge_cols = [np.flatnonzero(row) for row in incidence]
    bottleneck = np.array([cap_arr[cols].min() for cols in edge_cols])

    # Lengths with delta factored out; the true length is delta * 2**shift * stored.
    length = 1.0 / cap_arr
    raw = np.zeros(n_paths)
    path_len = np.empty(n_paths)

    theta = -config.log_delta  # stop once log of the true dual objective >= 0
    dual = float(m)  # stored-scale dual objective, sum of cap * length
    shifts = 0
    renorm_cut = 2.0**_RENORM_SHIFT

    def threshold() -> float:
        exponent = theta - shifts * (_RENORM_SHIFT * math.log(2.0))
        return math.exp(exponent) if exponent < 700.0 else math.inf

    stop_at = threshold()
    iterations = 0
    scale_down = math.log((1.0 + eps_int) * m) / (eps_int * math.log1p(eps_int))
    while dual < stop_at:
        if iterations >= config.max_iterations:
            raise PackingError(
                f"packing exceeded {config.max_iterations} iterations (m={m}, eps={eps})"
            )
        iterations += 1
        np.dot(incidence, length, out=path_len)
        p = int(np.argmin(path_len))
        f = float(bottleneck[p])
        raw[p] += f
        cols = edge_cols[p]
        dual += eps_int * f * float(path_len[p])
        length[cols] *= 1.0 + eps_int * (f / cap_arr[cols])
        if dual > renorm_cut:
            length *= 2.0**-_RENORM_SHIFT
            dual *= 2.0**-_RENORM_SHIFT
            shifts += 1
            stop_at = threshold()
        if iterations % _BLOCK_STEPS == 0 and dual < stop_at:
            # The flow over its worst congestion, within 1+eps of the dual bound
            # or of the bounds' sum.
            upper = float(cap_arr @ length) / float(incidence.dot(length).min())
            upper = min(upper, bound_sum)
            congestion = float((raw @ incidence / cap_arr).max())
            if left_sum(raw.tolist()) / congestion * (1.0 - _STOP_MARGIN) >= upper / (1.0 + eps):
                scale_down = congestion
                break

    values = raw / scale_down

    # Clip once so feasibility holds exactly despite rounding in the scale.
    loads = incidence.T @ values
    factor = 1.0
    for col in range(m):
        if loads[col] > cap_arr[col] > 0.0:
            factor = min(factor, cap_arr[col] / loads[col])
    if factor < 1.0:
        values = values * factor

    for (g, j), v in zip(path_key, values):
        values_dense[g][j] = float(v)
    group_totals = tuple(float(left_sum(row)) for row in values_dense)
    return ReferenceResult(
        tuple(tuple(row) for row in values_dense),
        group_totals,
        float(left_sum(group_totals)),
        iterations,
        config,
    )


def _system_case(system, bounds, eps):
    return system.capacities(), edge_groups(system), bounds, eps


def _aux_case():
    # A corpus instance's auxiliary groups: every base path appears twice, once
    # per sink copy, so the cheapest-path choice meets exact ties.
    system = generate_instance(1, 7, 11, 3, 4, bound_range=(0.2, 0.6)).path_system
    caps, groups = reference_aux_groups(system, system.network.bounds(), 2, 0.2)
    aux = aux_at(system, system.network.bounds(), 2, 0.2)
    return caps, groups, [*aux.dedicated_bounds, 0.2], 0.2


REFERENCE_CASES = {
    "diamond-bounded": lambda: _system_case(diamond_system(), (0.7, 1.3), 0.1),
    "diamond-unbounded": lambda: _system_case(diamond_system(), None, 0.05),
    # Small enough that the lengths renormalize (three shifts of 2**-332).
    "t1-renormalizing": lambda: _system_case(t1_system(), (1.0, 2.0), 0.004),
    "diamond-zero-bound": lambda: _system_case(diamond_system(), (0.0, 1.3), 0.1),
    "zero-capacity-path": lambda: ({"e1": 0.0, "e2": 1.0}, [[("e1",), ("e2",)]], [5.0], 0.1),
    "aux-ties": _aux_case,
    # Ends by the paper's stop, 31 steps into its first block, before any gap check.
    "paper-stop": lambda: ({"e1": 1.5}, [[("e1",)]], [2.0], 0.5),
}


def engine_case(name):
    """A reference case as the engines take it: its key groups compiled."""
    caps, groups, bounds, eps = REFERENCE_CASES[name]()
    return (*compiled(caps, groups), bounds, eps)


class TestReferenceLoop:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_bit_identical_to_reference(self, name):
        expected = reference_pack_paths(*REFERENCE_CASES[name]())
        result = pack_paths(*engine_case(name))
        assert result.x.tolist() == [v for row in expected.values for v in row]
        assert result.total == expected.total
        assert result.iterations == expected.iterations

    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_dual_bound_brackets_the_optimum(self, name):
        caps, groups, bounds, eps = engine_case(name)
        result = pack_paths(caps, groups, bounds, eps)
        optimum = lp_grouped_max(caps, groups, bounds).total
        # Slack for the simplex's rounding only.
        assert optimum <= result.upper * (1 + 1e-9)
        assert result.upper <= result.total * (1 + eps)


class TestBoundSumExit:
    """With every kept path in a bounded group, the bounds' sum also ends a run."""

    def test_fully_bounded_run_exits_at_the_bounds_sum(self, diamond):
        # The optimum is the bounds' sum 0.7. The dual bound alone is 0.7488
        # when it lets the run end, after 288 steps.
        caps, groups, bounds = diamond.grouped.capacities, diamond.grouped, (0.3, 0.4)
        result = pack_paths(caps, groups, bounds, 0.1)
        assert result.upper == left_sum(bounds)
        assert result.total >= result.upper / 1.1
        assert result.iterations == 2 * _BLOCK_STEPS
        assert capacity_slack(Flow(diamond, result.x)) >= -CAP_TOLERANCE

    def test_group_without_a_kept_path_adds_nothing(self):
        # Group 1's one path crosses the zero-capacity edge, so it has no bound
        # row: the sum is 0.5, which the first block reaches (the dual bound
        # alone takes 96 steps).
        caps, groups = compiled({"a": 1.0, "z": 0.0}, [[("a",)], [("z",)]])
        result = pack_paths(caps, groups, [0.5, 0.3], 0.1)
        assert (result.x.tolist(), result.total, result.upper) == ([0.5, 0.0], 0.5, 0.5)
        assert result.iterations == _BLOCK_STEPS

    @pytest.mark.parametrize("unbounded", [None, math.inf])
    def test_unbounded_live_group_keeps_the_dual_bound(self, diamond, unbounded):
        # The bits of the loop without the bounds' sum exit.
        caps, groups = diamond.grouped.capacities, diamond.grouped
        result = pack_paths(caps, groups, (unbounded, 0.3), 0.1)
        assert (result.total, result.upper, result.iterations) == (1.7993605115907247, 1.9618857300437524, 288)
        assert result.x[0] == 0.7841726618705038


@st.composite
def grouped_cases(draw):
    """Small raw grouped inputs: 2-5 edges, 1-3 groups of 1-3 paths, mixed bounds."""
    caps = {f"e{i}": draw(st.floats(0.25, 2.0)) for i in range(draw(st.integers(2, 5)))}
    path = st.lists(st.sampled_from(sorted(caps)), min_size=1, max_size=3, unique=True)
    groups = draw(st.lists(st.lists(path.map(tuple), min_size=1, max_size=3), min_size=1, max_size=3))
    bound = st.one_of(st.none(), st.floats(0.25, 2.0))
    bounds = draw(st.lists(bound, min_size=len(groups), max_size=len(groups)))
    return (*compiled(caps, groups), bounds, draw(st.sampled_from([0.2, 0.3, 0.5])))


class TestEndingEarly:
    """Every run ends at its first block within ``1+eps`` of its bound, or at the paper's stop.

    The bound is the dual bound, or the bounds' sum when that is smaller and
    every kept path lies in a bounded group.
    """

    @settings(max_examples=60, deadline=None)
    @given(case=grouped_cases(), factor=st.floats(0.7, 1.3))
    def test_gap_holds_and_a_pass_ignores_its_target(self, case, factor):
        eps = case[3]
        full = pack_paths(*case)
        assert full.total >= full.upper / (1 + eps)
        target = full.total * factor
        result = pack_paths(*case, target=target)
        if result.total >= target:
            assert bits(result) == bits(full)
        # A result is either stopped, its dual bound below target, or within its gap.
        assert result.upper * (1 + _STOP_MARGIN) < target or result.total >= result.upper / (1 + eps)
        # Either bound caps the optimum; slack for the simplex's rounding only.
        assert lp_grouped_max(*case[:3]).total <= full.upper * (1 + 1e-9)


class TestStoppingEarly:
    """With ``target``, a run stops once its dual bound shows the optimum is below it."""

    @settings(max_examples=60, deadline=None)
    @given(case=grouped_cases(), factor=st.floats(0.7, 1.3))
    def test_full_run_or_a_stop_below_target(self, case, factor):
        full = pack_paths(*case)
        target = full.total * factor
        result = pack_paths(*case, target=target)
        if bits(result) != bits(full):
            assert full.total < target and result.total < target
            # The stop is checked where the run without target checks its gap.
            assert result.iterations <= full.iterations
            # A stop certifies, by the dual bound alone, that the optimum is below target.
            assert result.upper * (1 + 1e-9) < target
            # Slack for the simplex's rounding only.
            assert lp_grouped_max(*case[:3]).total <= result.upper * (1 + 1e-9)

    @pytest.mark.parametrize("factor", [1.01, 1.05, 2.0])
    def test_stops_short_of_an_unreachable_target(self, diamond, factor):
        # The optimum is 1.6, about 1.5% above the run's 1.5761, which ends
        # by its gap at a dual bound of 1.7247. A stop needs the dual bound
        # below the target before that: a 1% higher target, below the
        # optimum, and a 5% higher one, above it, get the run without
        # target, and twice the total stops after the first block.
        caps, groups, bounds = diamond.grouped.capacities, diamond.grouped, (0.7, 1.3)
        full = pack_paths(caps, groups, bounds, 0.1)
        optimum = lp_grouped_max(caps, groups, bounds).total
        result = pack_paths(caps, groups, bounds, 0.1, target=full.total * factor)
        assert (full.total * factor < optimum) == (factor == 1.01)
        if factor < 2.0:
            assert bits(result) == bits(full)
            return
        assert result.iterations == _BLOCK_STEPS < full.iterations
        assert result.total < full.total * factor
        assert optimum <= result.upper * (1 + 1e-9)
        assert capacity_slack(Flow(diamond, result.x)) >= -CAP_TOLERANCE

    def test_a_failing_call_stops_long_before_its_gap(self):
        # The stored stop is +inf here until the lengths renormalize far
        # enough. The call fails: its dual bound falls below the target long
        # before the run without target reaches its gap.
        system = generate_instance(3, 12, 30, 5, 10).path_system
        bounds = system.network.bounds()
        eps = compute_epsilon(0.1, bounds)
        scaled = [0.1 * b for b in bounds]  # the outer search's level 1
        target = sum(scaled) / (1.0 + eps) - BELOW_TOL
        paths = system.grouped
        result = pack_paths(paths.capacities, paths, scaled, eps, target=target)
        assert result.total < target
        assert result.upper * (1 + _STOP_MARGIN) < target
        assert result.iterations == 2656
        assert pack_paths(paths.capacities, paths, scaled, eps).iterations == 20288

    @pytest.mark.parametrize("eps, iterations", [(0.1, 320), (0.05, 1184)])
    def test_cap_at_the_run_count(self, monkeypatch, diamond, eps, iterations):
        # Both runs end by their gap, after 10 and 37 blocks of 32 steps.
        caps, groups, bounds = diamond.grouped.capacities, diamond.grouped, (0.7, 1.3)
        full = pack_paths(caps, groups, bounds, eps)
        assert full.iterations == iterations
        starved_cap(monkeypatch, iterations)
        assert bits(pack_paths(caps, groups, bounds, eps)) == bits(full)
        starved_cap(monkeypatch, iterations - 1)
        with pytest.raises(PackingError, match=f"^packing exceeded {iterations - 1} iterations "):
            pack_paths(caps, groups, bounds, eps)

    def test_cap_message_reports_progress(self, monkeypatch, diamond):
        caps, groups, bounds = diamond.grouped.capacities, diamond.grouped, (0.7, 1.3)
        optimum = lp_grouped_max(caps, groups, bounds).total
        starved_cap(monkeypatch, 1000)
        with pytest.raises(PackingError) as raised:
            pack_paths(caps, groups, bounds, 0.05)
        match = re.fullmatch(
            r"packing exceeded 1000 iterations \(m=7, eps=0\.05\): log-scale progress (\S+), "
            r"scaled total (\S+), dual bound (\S+)",
            str(raised.value),
        )
        assert match, str(raised.value)
        progress, total, upper = map(float, match.groups())
        # 1000 of the run's 1184 steps.
        assert 0.0 < progress < 1.0
        assert 0.0 < total < optimum <= upper * (1 + 1e-9)
