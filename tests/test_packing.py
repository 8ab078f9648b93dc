import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np
import pytest

from concurflow import generate_instance
from concurflow.netmodel import branch_values, flow_value, is_feasible
from concurflow.oracle import lp_grouped_max, lp_mmfp_exact, lp_mmfpb_exact
from concurflow.packing import (
    _RENORM_SHIFT,
    FptasConfig,
    PackingError,
    pack_paths,
    solve_mmfp,
    solve_mmfpb,
)
from concurflow.solver import build_auxiliary
from conftest import make_network, make_system, reference_layout, t1_system


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
        assert is_feasible(flow)
        assert 2.0 / 1.1 - 1e-9 <= flow_value(flow) <= 2.0 + 1e-9

    def test_unit_edge(self, t1):
        flow = solve_mmfp(t1, 0.1)
        assert is_feasible(flow)
        assert 1.0 / 1.1 - 1e-9 <= flow_value(flow) <= 1.0 + 1e-9

    def test_disjoint_edges(self, t2):
        opt, _ = lp_mmfp_exact(t2)
        assert opt == pytest.approx(1.5, abs=1e-9)
        flow = solve_mmfp(t2, 0.1)
        assert is_feasible(flow)
        assert flow_value(flow) >= opt / 1.1 - 1e-9

    def test_eps_out_of_range(self, t1):
        for eps in (0.0, -0.1, 0.51, 1.0):
            with pytest.raises(ValueError):
                solve_mmfp(t1, eps)


class TestBounded:
    def test_shared_edge_with_bounds(self, t1):
        flow = solve_mmfpb(t1, (1.0, 2.0), 0.1)
        assert is_feasible(flow)
        v = branch_values(flow)
        assert v[0] <= 1.0 + 1e-9
        assert v[1] <= 2.0 + 1e-9
        assert flow_value(flow) >= 1.0 / 1.1 - 1e-9

    def test_all_zero_bounds(self, t1):
        flow = solve_mmfpb(t1, (0.0, 0.0), 0.1)
        assert flow_value(flow) == 0.0

    def test_bound_limited_edge(self, t3):
        flow = solve_mmfpb(t3, (1.0,), 0.25)
        assert is_feasible(flow)
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
        result = pack_paths(caps, system.edge_groups(), [5.0], 0.1)
        assert result.values[0][0] == 0.0
        assert result.group_totals[0] >= 1.0 / 1.1 - 1e-9


class TestGuarantee:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.25, 0.5])
    def test_gap_against_oracle_bounded(self, diamond, eps):
        bounds = (0.7, 1.3)
        opt, _ = lp_mmfpb_exact(diamond, bounds)
        flow = solve_mmfpb(diamond, bounds, eps)
        assert is_feasible(flow)
        for v, b in zip(branch_values(flow), bounds):
            assert v <= b + 1e-9
        assert flow_value(flow) >= opt / (1.0 + eps) - 1e-9

    @pytest.mark.parametrize("eps", [0.05, 0.25])
    def test_gap_against_oracle_unbounded(self, diamond, eps):
        opt, _ = lp_mmfp_exact(diamond)
        flow = solve_mmfp(diamond, eps)
        assert is_feasible(flow)
        assert flow_value(flow) >= opt / (1.0 + eps) - 1e-9

    def test_tiny_eps_still_sound(self, t1):
        # Exercises the log-space threshold and renormalization path.
        flow = solve_mmfpb(t1, (1.0, 2.0), 0.004)
        assert is_feasible(flow)
        assert flow_value(flow) >= 1.0 / 1.004 - 1e-9


class TestDeterminism:
    def test_bit_identical_reruns(self, diamond):
        a = solve_mmfpb(diamond, (0.7, 1.3), 0.1)
        b = solve_mmfpb(diamond, (0.7, 1.3), 0.1)
        assert a.values == b.values

    def test_iterations_reported(self, diamond):
        result = pack_paths(
            diamond.capacities(), diamond.edge_groups(), None, 0.2
        )
        assert result.iterations > 0


class TestIterationGrowth:
    def test_quadratic_scaling_in_inverse_eps(self, diamond):
        caps = diamond.capacities()
        groups = diamond.edge_groups()
        base = pack_paths(caps, groups, None, 0.2)
        half = pack_paths(caps, groups, None, 0.1)
        ratio = half.iterations / base.iterations
        assert 2.0 <= ratio <= 8.0

    def test_cap_formula(self):
        config = FptasConfig.for_run(0.3, 12)
        assert config.eps_int == pytest.approx(0.1)
        assert config.max_iterations > 12 / 0.1**2

    def test_iteration_cap_raises(self, monkeypatch, diamond):
        import concurflow.packing as packing

        real = FptasConfig.for_run

        def starved(cls_eps, m):
            cfg = real(cls_eps, m)
            return FptasConfig(cfg.eps_user, cfg.eps_int, cfg.log_delta, 1)

        monkeypatch.setattr(packing.FptasConfig, "for_run", starved)
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
        with pytest.raises(PackingError, match="below its dual bound"):
            solve_mmfp(diamond, 0.2)


class TestNonFinite:
    def test_nan_bound_rejected_by_solve_mmfpb(self, t1):
        with pytest.raises(ValueError, match="NaN bound"):
            solve_mmfpb(t1, (math.nan, 1.0), 0.1)

    def test_infinite_bound_means_unbounded(self, t1):
        caps, groups, bounds = t1.capacities(), t1.edge_groups(), [math.inf, None]
        assert pack_paths(caps, groups, bounds, 0.1) == pack_paths(caps, groups, None, 0.1)
        assert lp_grouped_max(caps, groups, bounds) == lp_grouped_max(caps, groups, None)


@dataclass(frozen=True)
class ReferenceResult:
    values: tuple[tuple[float, ...], ...]
    group_totals: tuple[float, ...]
    total: float
    iterations: int
    config: FptasConfig | None


# The packing loop as it stood before each path got a precomputed growth row:
# it multiplies only the path's own edge lengths, one fresh factor array per
# step. The current loop must reproduce it bit for bit.
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

    scale_down = math.log((1.0 + eps_int) * m) / (eps_int * math.log1p(eps_int))
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
    group_totals = tuple(float(sum(row)) for row in values_dense)
    return ReferenceResult(
        tuple(tuple(row) for row in values_dense),
        group_totals,
        float(sum(group_totals)),
        iterations,
        config,
    )


def _system_case(system, bounds, eps):
    return system.capacities(), system.edge_groups(), bounds, eps


def _aux_case():
    # A corpus instance's auxiliary groups: every base path appears twice, once
    # per sink copy, so the cheapest-path choice meets exact ties.
    system = generate_instance(1, 7, 11, 3, 4, bound_range=(0.2, 0.6)).path_system
    aux = build_auxiliary(system, system.network.bounds(), 2, 0.2)
    return aux.capacities, list(aux.groups), [*aux.dedicated_bounds, 0.2], 0.2


REFERENCE_CASES = {
    "diamond-bounded": lambda: _system_case(diamond_system(), (0.7, 1.3), 0.1),
    "diamond-unbounded": lambda: _system_case(diamond_system(), None, 0.05),
    # Small enough that the lengths renormalize (three shifts of 2**-332).
    "t1-renormalizing": lambda: _system_case(t1_system(), (1.0, 2.0), 0.004),
    "diamond-zero-bound": lambda: _system_case(diamond_system(), (0.0, 1.3), 0.1),
    "zero-capacity-path": lambda: ({"e1": 0.0, "e2": 1.0}, [[("e1",), ("e2",)]], [5.0], 0.1),
    "aux-ties": _aux_case,
}


class TestReferenceLoop:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_bit_identical_to_reference(self, name):
        args = REFERENCE_CASES[name]()
        expected = reference_pack_paths(*args)
        result = pack_paths(*args)
        assert result.values == expected.values
        assert result.group_totals == expected.group_totals
        assert result.total == expected.total
        assert result.iterations == expected.iterations

    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_dual_bound_brackets_the_optimum(self, name):
        caps, groups, bounds, eps = REFERENCE_CASES[name]()
        result = pack_paths(caps, groups, bounds, eps)
        optimum = lp_grouped_max(caps, groups, bounds).total
        # Slack for the simplex's rounding only.
        assert optimum <= result.upper * (1 + 1e-9)
        assert result.upper <= result.total * (1 + eps)
