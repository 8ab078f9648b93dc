import math

import numpy as np
import pytest

from concurflow.netmodel import (
    Flow,
    branch_values,
    flow_value,
    is_feasible,
    min_ratio,
)
from concurflow.oracle import (
    lp_emcfp_lambda,
    lp_emcfpsc,
    lp_grouped_max,
    lp_mmfp_exact,
    lp_mmfpb_exact,
)
from concurflow.packing import pack_paths
from conftest import make_network, make_system, t1_system, t2_system, t3_system


class TestBoundedMax:
    def test_shared_edge_cut(self, t1):
        value, flow = lp_mmfpb_exact(t1, (1.0, 2.0))
        assert value == pytest.approx(1.0, abs=1e-9)
        assert is_feasible(flow)

    def test_disjoint_edges(self, t2):
        value, flow = lp_mmfpb_exact(t2, (1.0, 1.0))
        assert value == pytest.approx(1.5, abs=1e-9)
        v = branch_values(flow)
        assert v[0] == pytest.approx(0.5, abs=1e-9)
        assert v[1] == pytest.approx(1.0, abs=1e-9)

    def test_bound_limited(self, t3):
        value, _ = lp_mmfpb_exact(t3, (1.0,))
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_default_bounds_from_network(self, t1):
        value, _ = lp_mmfpb_exact(t1)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_zero_bound_shuts_commodity_off(self, t2):
        value, flow = lp_mmfpb_exact(t2, (0.0, 1.0))
        assert value == pytest.approx(1.0, abs=1e-9)
        assert branch_values(flow)[0] == 0.0

    def test_infinite_bound_rejected(self, t1):
        with pytest.raises(ValueError):
            lp_mmfpb_exact(t1, (float("inf"), 1.0))

    def test_unbounded_variant(self, t2):
        value, _ = lp_mmfp_exact(t2)
        assert value == pytest.approx(1.5, abs=1e-9)


class TestRatio:
    def test_golden_values(self):
        assert lp_emcfp_lambda(t1_system()) == pytest.approx(1 / 3, abs=1e-9)
        assert lp_emcfp_lambda(t2_system()) == pytest.approx(0.5, abs=1e-9)
        assert lp_emcfp_lambda(t3_system()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_commodity_pins_ratio(self):
        net = make_network(
            ["s", "t"],
            [("e1", "s", "t", 1.0, True)],
            [("s", "t", 1.0), ("s", "t", 1.0)],
        )
        system = make_system(net, [[["e1"]], []])
        assert lp_emcfp_lambda(system) == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_bound_rejected(self, t1):
        with pytest.raises(ValueError):
            lp_emcfp_lambda(t1, (0.0, 1.0))

    @pytest.mark.parametrize("bounds", [(1.0,), (1.0, 2.0, 3.0)], ids=["short", "long"])
    @pytest.mark.parametrize("solver", [lp_emcfp_lambda, lp_emcfpsc], ids=["lambda", "emcfpsc"])
    def test_bounds_length_checked(self, t1, solver, bounds):
        # t1 is the README's two-commodity example: one bound would have read ratio 1.0.
        with pytest.raises(ValueError, match="^bounds length does not match the commodity count$"):
            solver(t1, bounds)


class TestTwoStage:
    def test_golden_t1(self):
        lam, total, flow = lp_emcfpsc(t1_system())
        assert lam == pytest.approx(1 / 3, abs=1e-9)
        assert total == pytest.approx(1.0, abs=1e-9)
        v = branch_values(flow)
        assert v[0] == pytest.approx(1 / 3, abs=1e-8)
        assert v[1] == pytest.approx(2 / 3, abs=1e-8)

    def test_golden_t2_saturates_past_ratio(self):
        lam, total, flow = lp_emcfpsc(t2_system())
        assert lam == pytest.approx(0.5, abs=1e-9)
        assert total == pytest.approx(1.5, abs=1e-9)
        # Saturation strictly beats ratio * total bound (1.0 here).
        assert total > lam * 2.0 + 0.4
        assert branch_values(flow)[1] == pytest.approx(1.0, abs=1e-9)

    def test_golden_t3(self):
        lam, total, _ = lp_emcfpsc(t3_system())
        assert lam == pytest.approx(1.0, abs=1e-9)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_flow_is_feasible_and_ratio_held(self):
        for system in (t1_system(), t2_system(), t3_system()):
            lam, total, flow = lp_emcfpsc(system)
            assert is_feasible(flow)
            bounds = system.network.bounds()
            assert min_ratio(flow, bounds) >= lam - 1e-8
            assert total >= lam * sum(bounds) - 1e-9
            for v, b in zip(branch_values(flow), bounds):
                assert v <= b + 1e-9

    def test_stage2_with_ratio_zero_equals_bounded_max(self):
        net = make_network(
            ["s", "t"],
            [("e1", "s", "t", 1.0, True)],
            [("s", "t", 1.0), ("s", "t", 1.0)],
        )
        system = make_system(net, [[["e1"]], []])
        lam, total, _ = lp_emcfpsc(system)
        assert lam == pytest.approx(0.0, abs=1e-12)
        assert total == pytest.approx(lp_mmfpb_exact(system)[0], abs=1e-9)

    def test_capacity_doubling_is_monotone(self):
        base = _grid_system()
        lam0, total0, _ = lp_emcfpsc(base)
        doubled = _grid_system(scale=2.0)
        lam1, total1, _ = lp_emcfpsc(doubled)
        assert lam1 >= lam0 - 1e-9
        assert total1 >= total0 - 1e-9

    def test_no_sampled_flow_at_ratio_beats_saturation(self):
        system = _grid_system()
        lam, total, best = lp_emcfpsc(system)
        bounds = system.network.bounds()
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(200):
            raw = [rng.uniform(0.0, 1.0, size=len(g)) for g in system.paths]
            candidate = _scaled_feasible(system, raw)
            blend = rng.uniform(0.6, 1.0)
            mixed = Flow(
                system,
                tuple(
                    tuple(blend * bv + (1 - blend) * cv for bv, cv in zip(brow, crow))
                    for brow, crow in zip(best.values, candidate.values)
                ),
            )
            for flow in (candidate, mixed):
                if min_ratio(flow, bounds) >= lam - 1e-9:
                    checked += 1
                    assert flow_value(flow) <= total + 1e-7
        assert checked > 0, "sampling never reached the optimal ratio"


class TestGroupedCore:
    def test_groups_without_common_endpoints(self):
        # Optimum 2.25 at y1 = 0.75: the long path competes with both singles.
        caps = {"a": 1.0, "b": 2.0}
        groups = [[("a",), ("b",)], [("a", "b")]]
        res = lp_grouped_max(caps, groups, [1.5, None])
        assert res.total == pytest.approx(2.25, abs=1e-9)
        assert res.group_totals[0] <= 1.5 + 1e-9

    def test_empty_groups(self):
        res = lp_grouped_max({}, [[], []], None)
        assert res.total == 0.0

    # Malformed input is rejected alike by both engines: one front door reads it.
    def test_unknown_edge_rejected(self):
        assert "edge 'zz' with no capacity entry" in _rejected_alike({"a": 1.0}, [[("zz",)]], None)

    @pytest.mark.parametrize("bounds, group", [([math.nan, None], 0), ([1.5, math.nan], 1)])
    def test_nan_bound_rejected(self, bounds, group):
        caps = {"a": 1.0, "b": 2.0}
        groups = [[("a",), ("b",)], [("a", "b")]]
        assert _rejected_alike(caps, groups, bounds) == f"NaN bound for group {group}"

    @pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf])
    def test_non_finite_capacity_rejected(self, cap):
        message = _rejected_alike({"a": 1.0, "b": cap}, [[("a",), ("a", "b")]], None)
        assert message == f"edge 'b' has capacity {cap}, not finite and >= 0"

    @pytest.mark.parametrize(
        "caps, groups, bounds, message",
        [
            ({"a": 1.0}, [[("a",)]], [1.0, 2.0], "bounds length does not match the group count"),
            ({"a": 1.0}, [[("a",)]], [-0.5], "negative bound -0.5 for group 0"),
            ({"a": 1.0}, [[("a",)], []], [1.0, -math.inf], "negative bound -inf for group 1"),
            (
                {"a": -1.0, "b": 1.0}, [[("a",), ("b",)]], None,
                "edge 'a' has capacity -1.0, not finite and >= 0",
            ),
            ({"z": 0.0, "a": 1.0}, [[("z",), ()]], None, "empty path (0, 1)"),
            (
                {"a": 1.0}, [[("a",)], [("q",)]], [None, 0],
                "path uses edge 'q' with no capacity entry",
            ),
        ],
        ids=[
            "bounds-length", "negative-bound", "minus-inf-bound", "negative-cap", "empty-path",
            "switched-off-group-missing-cap",
        ],
    )
    def test_malformed_input_rejected(self, caps, groups, bounds, message):
        assert _rejected_alike(caps, groups, bounds) == message


def _rejected_alike(caps, groups, bounds) -> str:
    """The message both engines raise on the same input; type and text must agree."""
    errors = []
    for engine in (
        lambda: lp_grouped_max(caps, groups, bounds),
        lambda: pack_paths(caps, groups, bounds, 0.1),
    ):
        with pytest.raises(ValueError) as info:
            engine()
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    return errors[0][1]


def _grid_system(scale=1.0):
    net = make_network(
        ["s1", "s2", "m", "t1", "t2"],
        [
            ("e1", "s1", "m", 1.0 * scale, True),
            ("e2", "s2", "m", 0.6 * scale, True),
            ("e3", "m", "t1", 0.8 * scale, True),
            ("e4", "m", "t2", 0.7 * scale, False),
            ("e5", "s1", "t1", 0.3 * scale, True),
        ],
        [("s1", "t1", 1.0), ("s2", "t2", 1.5)],
    )
    return make_system(
        net,
        [
            [["e1", "e3"], ["e5"]],
            [["e2", "e4"]],
        ],
    )


def _scaled_feasible(system, raw_rows):
    """Scale raw nonnegative values down until every capacity holds exactly."""
    flow = Flow(system, tuple(tuple(float(v) for v in row) for row in raw_rows))
    worst = 1.0
    caps = system.capacities()
    from concurflow.netmodel import edge_loads

    for eid, load in edge_loads(flow).items():
        if load > 0:
            worst = min(worst, caps[eid] / load)
    if worst < 1.0:
        flow = Flow(
            system,
            tuple(tuple(v * worst for v in row) for row in flow.values),
        )
    return flow
