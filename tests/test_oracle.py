import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from concurflow import generate_instance, oracle
from concurflow.compare import capacity_slack
from concurflow.netmodel import (
    CAP_TOLERANCE,
    Flow,
    GroupedPaths,
    GroupedProblem,
    branch_values,
    flow_value,
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
from concurflow.simplex import solve_lp
from conftest import bits, compiled, edge_groups, make_network, make_system, t1_system, t2_system, t3_system


class TestBoundedMax:
    def test_shared_edge_cut(self, t1):
        value, flow = lp_mmfpb_exact(t1, (1.0, 2.0))
        assert value == pytest.approx(1.0, abs=1e-9)
        assert capacity_slack(flow) >= -CAP_TOLERANCE

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

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("solver", [lp_emcfp_lambda, lp_emcfpsc], ids=["lambda", "emcfpsc"])
    def test_non_finite_bound_rejected(self, t1, solver, bound):
        # An infinite bound would enter a ratio row and run the simplex through NaN.
        with pytest.raises(ValueError, match=f"^bounds must be positive and finite, got {bound}$"):
            solver(t1, (1.0, bound))

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
            assert capacity_slack(flow) >= -CAP_TOLERANCE
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

    def test_no_paths_at_all(self):
        # Both commodities listed without a path: no saturation LP to solve.
        net = make_network(["s", "t"], [("e1", "s", "t", 1.0, True)], [("s", "t", 1.0), ("s", "t", 2.0)])
        lam, total, flow = lp_emcfpsc(make_system(net, [[], []]))
        assert (lam, total, flow.x.tolist()) == (0.0, 0.0, [])

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
            mixed = Flow(system, blend * best.x + (1 - blend) * candidate.x)
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
        res = lp_grouped_max(*compiled(caps, groups), [1.5, None])
        assert res.total == pytest.approx(2.25, abs=1e-9)
        assert sum(res.x[:2].tolist()) <= 1.5 + 1e-9  # group 0's total

    def test_reuse_keeps_bound_patterns_apart(self):
        # The same live groups with a different one bounded, and as many rows:
        # a compiled system answers every pattern, in any order, as a fresh
        # compile does.
        caps = {"a": 1.0, "b": 2.0}
        groups = [[("a",), ("b",)], [("a", "b")]]
        paths = GroupedPaths.build(caps, groups)
        patterns = [[0.5, None], [None, 0.25], [0.5, 0.25], [1.5, None], [None, 0.75], [None, None]]
        for bounds in patterns + patterns[::-1]:
            fresh = lp_grouped_max(*compiled(caps, groups), bounds)
            assert bits(lp_grouped_max(paths.capacities, paths, bounds)) == bits(fresh)

    def test_one_compiled_system_serves_threads(self):
        # Threads race to assemble and reuse each bound pattern's LP (wide
        # enough for row updates) on one GroupedPaths; each gets a fresh
        # compile's result.
        system = generate_instance(3, 16, 50, 8, 25).path_system
        caps, groups = system.capacities(), edge_groups(system)
        patterns = [[scale * b for b in system.network.bounds()] for scale in (0.1, 0.3, 0.6)]
        patterns.append([None, *patterns[0][1:]])
        expected = [bits(lp_grouped_max(*compiled(caps, groups), bounds)) for bounds in patterns]
        paths = GroupedPaths.build(caps, groups)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(lp_grouped_max, paths.capacities, paths, bounds)
                    for _ in range(3) for bounds in patterns
                ]
                results = [bits(future.result(timeout=120)) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == expected * 3

    def test_threads_extend_one_pattern_s_pivot_paths(self):
        # Four threads solve one bound pattern under twelve scalings, each in
        # its own order, so they walk and extend its recorded pivot paths
        # together; each gets a fresh compile's result.
        system = generate_instance(3, 16, 50, 8, 25).path_system
        caps, groups = system.capacities(), edge_groups(system)
        bounds = system.network.bounds()
        patterns = [[scale * b for b in bounds] for scale in np.linspace(0.05, 0.6, 12)]
        expected = [bits(lp_grouped_max(*compiled(caps, groups), bounds)) for bounds in patterns]
        paths = GroupedPaths.build(caps, groups)

        def solve_all(start):
            order = list(range(start, 12)) + list(range(start))
            return {i: bits(lp_grouped_max(paths.capacities, paths, patterns[i])) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(solve_all, start) for start in (0, 3, 6, 9)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert [result[i] for i in range(12)] == expected
        ((*_, blocks),) = paths.lps.values()
        (root,) = blocks.roots.values()

        def ends(node):
            return 1 if node.col < 0 else sum(ends(child) for *_, child in node.leaving.values())

        assert ends(root) > 1  # the scalings took more than one path

    def test_bounded_groups_without_paths_get_no_row(self, monkeypatch):
        # Group 0's one path crosses zero-capacity "z" and group 1 has none, so
        # only group 2's bound makes a row, after the rows of "a" and "b".
        caps = {"z": 0.0, "a": 1.0, "b": 2.0}
        paths = GroupedPaths.build(caps, [[("z", "a")], [], [("a", "b")]])
        bounds = [0.5, 0.7, 0.4]
        problem = GroupedProblem.build(paths.capacities, paths, bounds)
        assert [(sense, rhs) for _, sense, rhs in problem.rows] == [("<=", 1.0), ("<=", 2.0), ("<=", 0.4)]
        assert np.vstack(problem.blocks).tolist() == [[1.0], [1.0], [1.0]]
        solved = []

        def spy(objective, rows, blocks=None):
            solved.append(len(rows))
            return solve_lp(objective, rows, blocks)

        monkeypatch.setattr(oracle, "solve_lp", spy)
        res = lp_grouped_max(paths.capacities, paths, bounds)
        assert (res.x.tolist(), res.total, res.iterations, solved) == ([0.0, 0.4], 0.4, 2, [3])
        # Each engine answers as it does without the pathless groups, to the bit.
        alone = GroupedPaths.build(caps, [[("a", "b")]])
        for engine in (lp_grouped_max, lambda caps, groups, bounds: pack_paths(caps, groups, bounds, 0.1)):
            got, want = engine(paths.capacities, paths, bounds), engine(alone.capacities, alone, [0.4])
            assert (got.x.tolist(), got.total, got.iterations, got.upper) == (
                [0.0, *want.x.tolist()], want.total, want.iterations, want.upper
            )

    def test_engines_share_one_lp_per_pattern(self):
        # Both engines read one entry; its edge rows and first block are views
        # of the layout's own incidence, and every call reuses the row tuples.
        caps = {"a": 1.0, "b": 2.0}
        paths = GroupedPaths.build(caps, [[("a",), ("b",)], [("a", "b")]])
        pack_paths(paths.capacities, paths, [1.5, None], 0.1)
        lp_grouped_max(paths.capacities, paths, [0.5, None])
        ((edge_rows, _, blocks),) = paths.lps.values()
        problem = GroupedProblem.build(paths.capacities, paths, [1.0, None])
        assert len(paths.lps) == 1 and blocks is problem.blocks
        assert blocks[0] is problem.matrix.a
        assert all(coeffs.base is problem.matrix.a for coeffs, _, _ in edge_rows)
        assert all(row is cached for row, cached in zip(problem.rows, edge_rows))
        assert len(problem.rows) == len(edge_rows) + 1

    def test_empty_groups(self):
        res = lp_grouped_max(*compiled({}, [[], []]), None)
        assert res.total == 0.0

    def test_raw_groups_refused(self):
        caps, groups = {"a": 1.0}, [[("a",)]]
        for engine in (lambda: lp_grouped_max(caps, groups, None), lambda: pack_paths(caps, groups, None, 0.1)):
            with pytest.raises(TypeError, match=r"compiled with GroupedPaths\.build, not a list$"):
                engine()

    # Malformed input is rejected alike by both engines: one compile and one
    # front door read it.
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
    """The message both engines raise on the same key groups, compiled; type and text must agree."""
    errors = []
    for engine in (
        lambda: lp_grouped_max(*compiled(caps, groups), bounds),
        lambda: pack_paths(*compiled(caps, groups), bounds, 0.1),
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
    flow = Flow(system, np.concatenate(raw_rows))
    worst = 1.0
    caps = system.capacities()
    from concurflow.netmodel import edge_loads

    for eid, load in edge_loads(flow).items():
        if load > 0:
            worst = min(worst, caps[eid] / load)
    if worst < 1.0:
        flow = Flow(system, flow.x * worst)
    return flow
