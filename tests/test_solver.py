import math

import pytest

import concurflow.netmodel
from concurflow.instance_io import Instance, parse_solution, serialize_solution
from concurflow.netmodel import PathMatrix, branch_values, flow_value, is_feasible
from concurflow.oracle import lp_emcfpsc, lp_grouped_max, lp_mmfp_exact, lp_mmfpb_exact
from concurflow.packing import solve_mmfp, solve_mmfpb
from concurflow.solver import (
    build_auxiliary,
    compute_epsilon,
    find_hstar,
    find_lstar,
    project_flow,
    resolve_subroutine,
    solve,
)
from conftest import make_network, make_system, t1_system, t2_system, t3_system


def single_edge_system(cap, bound):
    net = make_network(["s", "t"], [("e1", "s", "t", cap, True)], [("s", "t", bound)])
    return make_system(net, [[["e1"]]])


class TestEpsilon:
    def test_formula(self):
        assert compute_epsilon(0.1, (1.0, 2.0)) == pytest.approx(1 / 30)

    def test_clamp_branch(self):
        assert compute_epsilon(0.9, (1.0,)) == 0.5
        assert compute_epsilon(0.5, (0.4,)) == 0.5

    def test_eta_range(self):
        with pytest.raises(ValueError):
            compute_epsilon(0.0, (1.0,))
        with pytest.raises(ValueError):
            compute_epsilon(1.0, (1.0,))
        with pytest.raises(ValueError):
            compute_epsilon(0.5, (0.0,))


class TestOuterSearch:
    def test_exhaustion_trace(self):
        # Demands l*0.25 fit capacity 2 for l = 1..4; l = 5 passes 1.
        system = single_edge_system(2.0, 1.0)
        eps = compute_epsilon(0.25, (1.0,))
        res = find_lstar(system, (1.0,), 0.25, eps, "oracle")
        assert res.l_star == 5
        assert res.calls == 4

    def test_immediate_failure(self):
        # Demand 5 at level 1 against capacity 1 never saturates.
        system = single_edge_system(1.0, 10.0)
        eps = compute_epsilon(0.5, (10.0,))
        res = find_lstar(system, (10.0,), 0.5, eps, "oracle")
        assert res.l_star == 1
        assert res.calls == 1

    def test_shared_edge_trace(self, t1):
        eps = compute_epsilon(0.1, (1.0, 2.0))
        res = find_lstar(t1, (1.0, 2.0), 0.1, eps, "oracle")
        assert res.l_star == 4
        assert res.calls == 4


class TestAuxiliary:
    def test_capacity_formulas(self, t1):
        aux = build_auxiliary(t1, (1.0, 2.0), 3, 0.1)
        scale = (3 - 1) * 0.1
        assert aux.dedicated_bounds == (scale * 1.0, scale * 2.0)
        caps = aux.capacities
        assert caps["ded", 1] == scale * 1.0
        assert caps["ovf", 1] == 1.0 - scale * 1.0
        assert caps["ded", 2] == scale * 2.0
        assert caps["ovf", 2] == 2.0 - scale * 2.0

    def test_degenerate_level_one(self, t1):
        aux = build_auxiliary(t1, (1.0, 2.0), 1, 0.1)
        assert aux.dedicated_bounds == (0.0, 0.0)
        assert aux.capacities["ovf", 1] == 1.0
        assert aux.capacities["ovf", 2] == 2.0

    def test_saturated_level(self):
        system = single_edge_system(2.0, 1.0)
        aux = build_auxiliary(system, (1.0,), 5, 0.25)
        assert aux.dedicated_bounds == (1.0,)
        assert aux.capacities["ovf", 1] == 0.0

    def test_original_capacities_kept(self, t2):
        aux = build_auxiliary(t2, (1.0, 1.0), 3, 0.1)
        assert aux.capacities["e1"] == 0.5
        assert aux.capacities["e2"] == 1.0

    def test_group_layout_is_a_double_copy(self, t2):
        aux = build_auxiliary(t2, (1.0, 1.0), 2, 0.1)
        assert len(aux.groups) == t2.k + 1
        assert sum(len(g) for g in aux.groups[:-1]) == t2.path_count
        assert len(aux.groups[-1]) == t2.path_count
        # Extended paths append exactly one new edge key to the originals.
        base = t2.edge_groups()
        for i, group in enumerate(aux.groups[:-1], start=1):
            for j, path in enumerate(group):
                assert path[:-1] == base[i - 1][j]
                assert path[-1] == ("ded", i)
        # The overflow group is the base paths again, in commodity order.
        assert list(aux.groups[-1]) == [
            path + (("ovf", i),) for i, group in enumerate(base, start=1) for path in group
        ]

    def test_colliding_ids_solve_like_plain_names(self):
        def solved(node, edge):
            net = make_network(
                ["s", node], [(edge, "s", node, 1.0, True)], [("s", node, 0.7)]
            )
            report = solve(make_system(net, [[[edge]]]), 0.1, subroutine="oracle")
            return report.l_star, report.h_star, report.value

        assert solved("aux:sink0", "aux:ded1") == solved("t", "e1")

    def test_level_bounds_checked(self, t1):
        with pytest.raises(ValueError):
            build_auxiliary(t1, (1.0, 2.0), 0, 0.1)
        with pytest.raises(ValueError):
            build_auxiliary(t1, (1.0, 2.0), 30, 0.1)


class TestInnerSearch:
    def test_zero_overflow_capacity_trace(self):
        # Dedicated share already saturates; equality at h=1 still passes,
        # the budget at h=2 cannot keep up.
        system = single_edge_system(2.0, 1.0)
        aux = build_auxiliary(system, (1.0,), 5, 0.25)
        eps = compute_epsilon(0.25, (1.0,))
        res = find_hstar(aux, 0.25, eps, 1.0, "oracle")
        assert res.h_star == 2
        assert sum(map(sum, res.aux_values)) == pytest.approx(1.0)

    def test_slack_network_trace(self):
        # Overflow capacity 0.8 on a slack edge: budgets pass until the
        # target outruns dedicated + overflow at h = 10.
        system = single_edge_system(10.0, 1.0)
        aux = build_auxiliary(system, (1.0,), 3, 0.1)
        eps = compute_epsilon(0.1, (1.0,))
        assert aux.capacities["ovf", 1] == pytest.approx(0.8)
        res = find_hstar(aux, 0.1, eps, 1.0, "oracle")
        assert res.h_star == 10

    def test_budget_exhaustion(self):
        system = single_edge_system(2.0, 1.0)
        eps = compute_epsilon(0.6, (1.0,))
        outer = find_lstar(system, (1.0,), 0.6, eps, "oracle")
        assert outer.l_star == 2
        aux = build_auxiliary(system, (1.0,), outer.l_star, 0.6)
        res = find_hstar(aux, 0.6, eps, 1.0, "oracle")
        assert res.h_star == 2  # budget 1.2 overshoots the total demand 1.0
        assert res.calls == 2  # seed solve plus h=1


class TestProjection:
    def test_copies_add_up(self, t1):
        aux = build_auxiliary(t1, (1.0, 2.0), 3, 0.1)
        aux_values = ((0.2,), (0.0,), (0.3, 0.1))
        flow = project_flow(aux_values, aux)
        assert flow.values[0][0] == pytest.approx(0.5)
        assert flow.values[1][0] == pytest.approx(0.1)

    def test_zero_projects_to_zero(self, t1):
        aux = build_auxiliary(t1, (1.0, 2.0), 2, 0.1)
        flow = project_flow(((0.0,), (0.0,), (0.0, 0.0)), aux)
        assert flow_value(flow) == 0.0

    def test_total_value_conserved(self, t2):
        aux = build_auxiliary(t2, (1.0, 1.0), 4, 0.1)
        eps = compute_epsilon(0.1, (1.0, 1.0))
        res = find_hstar(aux, 0.1, eps, 2.0, "oracle")
        aux_total = sum(map(sum, res.aux_values))
        flow = project_flow(res.aux_values, aux)
        assert flow_value(flow) == pytest.approx(aux_total, abs=1e-12)
        # Per-commodity: dedicated + overflow copies; the overflow group holds
        # each commodity's paths in turn.
        start = 0
        for i, group in enumerate(t2.paths):
            dedicated = sum(res.aux_values[i])
            overflow = sum(res.aux_values[-1][start:start + len(group)])
            start += len(group)
            assert branch_values(flow)[i] == pytest.approx(dedicated + overflow, abs=1e-12)


def assert_certificates(report, system, bounds):
    flow = report.flow
    assert is_feasible(flow)
    for v, b in zip(branch_values(flow), bounds):
        assert v <= b + 1e-9
    assert report.value_lower - 1e-7 <= report.value <= report.value_upper + 1e-7
    assert report.min_ratio_value >= report.min_ratio_lower - 1e-7
    lam, v_opt, _ = lp_emcfpsc(system, bounds)
    assert lam <= report.l_star * report.eta + 1e-7
    sum_b = sum(bounds)
    assert v_opt <= (report.l_star * sum_b + report.h_star) * report.eta + 1e-7
    assert report.l_star <= math.floor(1.0 / report.eta) + 1
    assert report.h_star <= math.floor(sum_b / report.eta) + 1
    assert report.min_ratio_value <= lam + 1e-7


class TestSolveEndToEnd:
    def test_shared_edge_instance(self, t1):
        report = solve(t1, 0.05, subroutine="oracle")
        assert report.l_star == 7
        assert report.h_star == 3
        assert report.value == pytest.approx(1.0, abs=1e-9)
        assert report.eps == pytest.approx(0.05 / 3)
        assert report.subroutine_calls == 11
        assert_certificates(report, t1, (1.0, 2.0))

    def test_disjoint_instance(self, t2):
        report = solve(t2, 0.05, subroutine="oracle")
        assert report.l_star == 11
        assert report.h_star == 11
        assert report.value == pytest.approx(1.5, abs=1e-9)
        assert_certificates(report, t2, (1.0, 1.0))
        # The certified ratio level matches the exact optimum here.
        assert report.min_ratio_value == pytest.approx(0.5, abs=1e-9)

    def test_bound_limited_instance(self, t3):
        report = solve(t3, 0.25, subroutine="oracle")
        assert report.l_star == 5
        assert report.h_star == 2
        assert report.value == pytest.approx(1.0, abs=1e-9)
        assert_certificates(report, t3, (1.0,))

    def test_fptas_subroutine_matches_trace(self, t1):
        report = solve(t1, 0.1, subroutine="fptas")
        oracle_report = solve(t1, 0.1, subroutine="oracle")
        assert report.l_star == oracle_report.l_star == 4
        assert report.h_star == oracle_report.h_star == 2
        assert_certificates(report, t1, (1.0, 2.0))

    def test_custom_callable_subroutine(self):
        from concurflow.oracle import lp_grouped_max

        # t3 runs the outer search to l_star = 5. On t1 at eta 0.5 the first
        # level fails, so l_star = 1 and the inner search switches off its
        # dedicated groups.
        for system, eta, l_star in ((t3_system(), 0.25, 5), (t1_system(), 0.5, 1)):
            calls = []

            def probe(caps, groups, bounds, eps):
                calls.append(len(groups))
                return lp_grouped_max(caps, groups, bounds)

            report = solve(system, eta, subroutine=probe)
            assert report.subroutine_calls == len(calls)
            assert set(calls) == {system.k, system.k + 1}  # outer: k groups, inner: k + 1
            named = solve(system, eta, subroutine="oracle")
            assert named.l_star == l_star
            ids = tuple(f"c{i}" for i in range(1, system.k + 1))
            instance = Instance("x", None, system.network, system, ids)
            assert serialize_solution(report, instance) == serialize_solution(named, instance)

    def test_validation(self, t1):
        with pytest.raises(ValueError):
            solve(t1, 0.0)
        with pytest.raises(ValueError):
            solve(t1, 1.0)
        with pytest.raises(ValueError):
            solve(t1, 0.1, bounds=(1.0,))
        with pytest.raises(ValueError):
            solve(t1, 0.1, subroutine="nonsense")

    def test_empty_commodity_handled(self):
        net = make_network(
            ["s", "t"],
            [("e1", "s", "t", 1.0, True)],
            [("s", "t", 1.0), ("s", "t", 1.0)],
        )
        system = make_system(net, [[["e1"]], []])
        report = solve(system, 0.25, subroutine="oracle")
        assert report.l_star == 1
        assert is_feasible(report.flow)
        assert report.min_ratio_value == 0.0

    def test_report_counts_match(self, t2):
        report = solve(t2, 0.1, subroutine="oracle")
        instance = Instance("t2", None, t2.network, t2, ("c1", "c2"))
        counters = parse_solution(serialize_solution(report, instance)).counters
        # The solution file keeps these two lines for format compatibility.
        assert counters["outer_iterations"] == report.l_star
        assert counters["inner_iterations"] == report.h_star
        assert report.wall_time_s >= 0.0


@pytest.fixture
def builds(monkeypatch):
    """Counts layouts: one entry per ``PathMatrix`` that ``GroupedPaths.columns`` lays out."""
    counted_builds = []

    def counted(*fields):
        counted_builds.append(1)
        return PathMatrix(*fields)

    monkeypatch.setattr(concurflow.netmodel, "PathMatrix", counted)
    return counted_builds


class TestCompileOnce:
    """Each path system compiles once, whatever the entry point."""

    @pytest.mark.parametrize("subroutine", ["oracle", "fptas", "callable"])
    def test_one_build_per_live_mask(self, builds, subroutine):
        if subroutine == "callable":

            def subroutine(caps, groups, bounds, eps):
                return lp_grouped_max(caps, groups, bounds)

        counts, calls = {}, {}
        for eta in (0.1, 0.05):
            del builds[:]
            report = solve(t2_system(), eta, subroutine=subroutine)
            counts[eta], calls[eta] = len(builds), report.subroutine_calls
        assert calls[0.05] > calls[0.1]
        # The outer search's one live mask, which is the system's own matrix,
        # and the inner search's two: overflow off on the first call, then on.
        assert counts[0.1] == counts[0.05] == 1 + 2

    def test_system_matrix_is_the_outer_searchs(self, builds):
        system = t2_system()
        outer = []

        def subroutine(caps, groups, bounds, eps):
            if len(groups) == system.k:
                outer.append((caps, groups))
            return lp_grouped_max(caps, groups, bounds)

        solve(system, 0.1, subroutine=subroutine)
        assert outer
        for caps, groups in outer:
            assert caps is system.grouped.capacities and groups is system.grouped
        done = len(builds)
        assert system.matrix is system.grouped.columns((True,) * system.k)[0]
        assert len(builds) == done

    def test_repeated_wrapper_calls_build_nothing(self, builds):
        system = t2_system()
        bounds = (0.4, 0.7)
        solve_mmfpb(system, bounds, 0.1)
        lp_mmfpb_exact(system, bounds)
        assert len(builds) == 1
        for _ in range(3):
            solve_mmfpb(system, bounds, 0.1)
            lp_mmfpb_exact(system, bounds)
            solve_mmfp(system, 0.1)
            lp_mmfp_exact(system)
        assert len(builds) == 1


def test_resolve_subroutine_passthrough():
    fn = resolve_subroutine("oracle")
    assert callable(fn)
    assert resolve_subroutine(fn) is fn
