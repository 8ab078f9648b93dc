import math
import re

import numpy as np
import pytest

import concurflow.generator
import concurflow.netmodel
from concurflow import generate_instance
from concurflow.compare import capacity_slack
from concurflow.instance_io import Instance, parse_solution, serialize_solution
from concurflow.netmodel import (
    CAP_TOLERANCE, Flow, GroupedPaths, GroupedProblem, PathMatrix, branch_values, flow_value,
)
from concurflow.oracle import lp_emcfpsc, lp_grouped_max, lp_mmfp_exact, lp_mmfpb_exact
from concurflow.packing import solve_mmfp, solve_mmfpb
from concurflow.simplex import left_sum
from concurflow.solver import (
    BELOW_TOL,
    LstarResult,
    build_auxiliary,
    compute_epsilon,
    find_hstar,
    find_lstar,
    project_flow,
    resolve_subroutine,
    solve,
)
from conftest import (
    CORPUS_SHAPES,
    aux_at,
    bits,
    corpus_instances,
    make_network,
    make_system,
    reference_aux_groups,
    t1_system,
    t2_system,
    t3_system,
)


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

    def test_eta_too_small_for_the_call_limit(self):
        # About 1/eta + 3/eta + 2 calls: 4e-5 allows 100 002, just over the limit.
        assert compute_epsilon(4.1e-5, (1.0, 2.0)) == pytest.approx(4.1e-5 / 3)
        for eta in (4e-5, 1e-7, 1e-300, 5e-324):
            with pytest.raises(ValueError, match=f"^eta {eta} is too small: "):
                compute_epsilon(eta, (1.0, 2.0))

    def test_tiny_eta_oracle_solve_raises_before_any_call(self, t1):
        calls = []

        def oracle(caps, groups, bounds, eps):
            calls.append(eps)
            return lp_grouped_max(caps, groups, bounds)

        for subroutine in ("oracle", oracle):
            with pytest.raises(ValueError, match="is too small"):
                solve(t1, 1e-7, subroutine)
        assert calls == []


class TestOuterSearch:
    def test_exhaustion_trace(self):
        # Demands l*0.25 fit capacity 2 for l = 1..4; l = 5 passes 1.
        system = single_edge_system(2.0, 1.0)
        res = find_lstar(system, (1.0,), 0.25, "oracle")
        assert res.l_star == 5
        assert res.calls == 4

    def test_immediate_failure(self):
        # Demand 5 at level 1 against capacity 1 never saturates.
        system = single_edge_system(1.0, 10.0)
        res = find_lstar(system, (10.0,), 0.5, "oracle")
        assert res.l_star == 1
        assert res.calls == 1

    def test_shared_edge_trace(self, t1):
        res = find_lstar(t1, (1.0, 2.0), 0.1, "oracle")
        assert res.l_star == 4
        assert res.calls == 4


class TestAuxiliary:
    def test_capacity_formulas(self, t1):
        aux = aux_at(t1, (1.0, 2.0), 3, 0.1)
        scale = (3 - 1) * 0.1
        assert aux.dedicated_bounds == (scale * 1.0, scale * 2.0)
        caps = aux.groups.capacities
        assert caps["ovf", 1] == 1.0 - scale * 1.0
        assert caps["ovf", 2] == 2.0 - scale * 2.0
        # The dedicated shares are the groups' bounds alone: one sink row per
        # overflow copy, none per dedicated copy.
        assert aux.groups.edges == t1.grouped.edges + (("ovf", 1), ("ovf", 2))

    def test_degenerate_level_one(self, t1):
        aux = aux_at(t1, (1.0, 2.0), 1, 0.1)
        assert aux.dedicated_bounds == (0.0, 0.0)
        assert aux.groups.capacities["ovf", 1] == 1.0
        assert aux.groups.capacities["ovf", 2] == 2.0

    def test_saturated_level(self):
        system = single_edge_system(2.0, 1.0)
        aux = aux_at(system, (1.0,), 5, 0.25)
        assert aux.dedicated_bounds == (1.0,)
        assert aux.groups.capacities["ovf", 1] == 0.0

    def test_original_capacities_kept(self, t2):
        aux = aux_at(t2, (1.0, 1.0), 3, 0.1)
        assert aux.groups.capacities["e1"] == 0.5
        assert aux.groups.capacities["e2"] == 1.0

    @pytest.mark.parametrize("bound", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("l_star", [1, 2])
    def test_bad_bound_rejected(self, t1, bound, l_star):
        # Named as solve names it, not as a capacity of an internal sink edge.
        with pytest.raises(ValueError, match=f"^bounds must be positive and finite, got {bound}$"):
            LstarResult(t1, (bound, 2.0), 0.1, l_star, 0, None)

    @pytest.mark.parametrize("l_star", [1, 3, 5])
    @pytest.mark.parametrize("name", ["t2", "generated"])
    def test_layouts_match_key_tuple_construction(self, name, l_star):
        # l_star = 1 leaves every dedicated capacity 0; at l_star = 5 with
        # eta = 0.25 the level is saturated and every overflow capacity is 0.
        if name == "t2":
            system = t2_system()
        else:
            system = generate_instance(1, 7, 11, 3, 4, bound_range=(0.2, 0.6)).path_system
        bounds0 = system.network.bounds()
        aux = aux_at(system, bounds0, l_star, 0.25)
        ref_caps, ref_groups = reference_aux_groups(system, bounds0, l_star, 0.25)
        # The auxiliary edges are every network edge, then the sinks; each
        # key of the reference has its capacity there.
        assert all(aux.groups.capacities[key] == cap for key, cap in ref_caps.items())
        assert len(aux.groups) == len(ref_groups) == system.k + 1
        ref = GroupedPaths.build(ref_caps, ref_groups)
        # The inner search's live masks: overflow off on its first call, then on.
        dedicated_live = tuple(bound != 0 for bound in aux.dedicated_bounds)
        for live in (dedicated_live + (False,), dedicated_live + (True,)):
            (matrix, keep), (want, want_keep) = aux.groups.columns(live), ref.columns(live)
            assert matrix.edges == want.edges
            pairs = [(matrix.caps, want.caps), (matrix.a, want.a), (matrix.g, want.g), (keep, want_keep)]
            for got, expected in pairs:
                assert got.shape == expected.shape and got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes()
            assert keep.any() == (live[-1] or l_star > 1)

    def test_colliding_ids_solve_like_plain_names(self):
        def solved(node, edge):
            net = make_network(
                ["s", node], [(edge, "s", node, 1.0, True)], [("s", node, 0.7)]
            )
            report = solve(make_system(net, [[[edge]]]), 0.1, subroutine="oracle")
            return report.l_star, report.h_star, report.value

        assert solved("aux:sink0", "aux:ded1") == solved("t", "e1")

    def test_last_pass_must_match_the_level(self, t3):
        # No search stops at l_star = 5 without a last pass: the result is
        # refused when it is built, before the inner search reads the pass.
        message = r"^last must be None exactly when l_star == 1, got l_star 5 and last None$"
        with pytest.raises(ValueError, match=message):
            find_hstar(build_auxiliary(LstarResult(t3, (1.0,), 0.25, 5, 0, None)), "oracle")
        last = find_lstar(t3, (1.0,), 0.25, "oracle").last
        with pytest.raises(ValueError, match=r"got l_star 1 and last GroupedResult\("):
            LstarResult(t3, (1.0,), 0.25, 1, 0, last)

    def test_level_bounds_checked(self, t1):
        with pytest.raises(ValueError):
            LstarResult(t1, (1.0, 2.0), 0.1, 0, 0, None)
        with pytest.raises(ValueError):
            LstarResult(t1, (1.0, 2.0), 0.1, 30, 0, None)


class TestInnerSearch:
    def test_zero_overflow_capacity_trace(self):
        # Dedicated share already saturates; equality at h=1 still passes,
        # the budget at h=2 cannot keep up.
        system = single_edge_system(2.0, 1.0)
        outer = find_lstar(system, (1.0,), 0.25, "oracle")
        assert outer.l_star == 5
        aux = build_auxiliary(outer)
        res = find_hstar(aux, "oracle")
        assert res.h_star == 2
        assert sum(res.x.tolist()) == pytest.approx(1.0)

    def test_slack_network_trace(self):
        # Commodity 1's edge of capacity 0.25 stops the outer search at
        # l_star = 3; commodity 2's slack edge takes overflow until the
        # target (0.4 + h * 0.1) / 1.05 outruns 0.4 + 0.85 at h = 10.
        net = make_network(
            ["s", "t"],
            [("e1", "s", "t", 0.25, True), ("e2", "s", "t", 10.0, True)],
            [("s", "t", 1.0), ("s", "t", 1.0)],
        )
        system = make_system(net, [[["e1"]], [["e2"]]])
        outer = find_lstar(system, (1.0, 1.0), 0.1, "oracle")
        assert outer.l_star == 3
        aux = build_auxiliary(outer)
        assert aux.groups.capacities["ovf", 2] == pytest.approx(0.8)
        res = find_hstar(aux, "oracle")
        assert res.h_star == 10
        assert sum(res.x.tolist()) == pytest.approx(1.25)

    def test_budget_exhaustion(self):
        system = single_edge_system(2.0, 1.0)
        outer = find_lstar(system, (1.0,), 0.6, "oracle")
        assert outer.l_star == 2
        res = find_hstar(build_auxiliary(outer), "oracle")
        assert res.h_star == 2  # budget 1.2 overshoots the total demand 1.0
        assert res.calls == 1  # h=1; budget 0 is the outer search's last pass


@pytest.mark.parametrize("eta", [0.0, -0.1, math.nan, 1.0])
def test_searches_check_eta_before_any_call(t1, eta):
    # At eta <= 0 no level is ever past the last one, so a search that did
    # not check eta would ask its subroutine forever.
    calls = []

    def limited(caps, groups, bounds, eps):
        calls.append(bounds)
        if len(calls) > 100:
            raise RuntimeError("the search did not stop")
        return lp_grouped_max(caps, groups, bounds)

    message = f"^{re.escape(f'eta must lie in (0, 1), got {eta}')}$"
    with pytest.raises(ValueError, match=message):
        find_lstar(t1, (1.0, 2.0), eta, limited)
    # The inner search reads eta from an outer search, which cannot hold it;
    # at level 3 it is named as eta, not as an internal sink edge's capacity.
    with pytest.raises(ValueError, match=message):
        LstarResult(t1, (1.0, 2.0), eta, 3, 0, None)
    assert calls == []


def generated_system(seed):
    return generate_instance(seed, 6, 9, 2, 3, bound_range=(0.2, 0.6)).path_system


def no_overflow_left(system, report):
    """Whether every overflow sink of the solve's auxiliary network has capacity 0."""
    aux = aux_at(system, report.bounds0, report.l_star, report.eta)
    return all(aux.groups.capacities["ovf", i] == 0.0 for i in range(1, system.k + 1))


def start_cases():
    """(system, eta) pairs: t1 at l_star 4 and 1, t2, and generated systems."""
    cases = [(t1_system(), 0.1), (t1_system(), 0.5), (t2_system(), 0.1)]
    return cases + [(generated_system(seed), eta) for seed in (1, 4, 8) for eta in (0.2, 0.3)]


# Systems whose inner search stops at h_star = 1 under both engines: the
# first overflow budget fails, so the solve's flow is the budget-0 flow.
HSTAR_ONE = [(4, 0.2), (6, 0.2), (11, 0.2)]


@pytest.mark.parametrize("engine", ["oracle", "fptas"])
class TestInnerStart:
    """The inner search starts from the outer search's last passing flow."""

    def test_solve_makes_no_call_at_budget_zero(self, engine):
        run = resolve_subroutine(engine)
        closed_cases = 0
        for system, eta in start_cases():
            outer, inner = [], []

            def probe(caps, groups, bounds, eps):
                if len(groups) == system.k + 1:
                    inner.append(bounds[-1])
                else:
                    outer.append(bounds)
                return run(caps, groups, bounds, eps)

            report = solve(system, eta, subroutine=probe)
            assert report.subroutine_calls == len(outer) + len(inner)
            # One call per level l with l * eta <= 1, and none on the base
            # system for budget 0.
            assert len(outer) == report.l_star - (report.l_star * eta > 1.0)
            # None at all when no overflow capacity is left (TestNoOverflowLeft).
            closed = no_overflow_left(system, report)
            assert (not inner) == closed
            closed_cases += closed
            if not closed:
                assert inner == [h * eta for h in range(1, len(inner) + 1)]
                assert len(inner) in (report.h_star - 1, report.h_star)
        assert 0 < closed_cases < len(start_cases())

    @pytest.mark.parametrize("seed, eta", HSTAR_ONE)
    def test_hstar_one_flow_is_the_outer_flow(self, engine, seed, eta):
        system = generated_system(seed)
        report = solve(system, eta, subroutine=engine)
        assert report.h_star == 1
        outer = find_lstar(system, report.bounds0, eta, engine)
        assert outer.l_star == report.l_star >= 2
        assert repr(report.flow.values) == repr(Flow(system, outer.last.x).values)
        # The outer search's last passing call, at level l_star - 1.
        scale, base = (outer.l_star - 1) * eta, system.grouped
        bounds = [scale * b for b in report.bounds0]
        last = resolve_subroutine(engine)(base.capacities, base, bounds, report.eps)
        assert bits(outer.last) == bits(last)
        assert_certificates(report, system, report.bounds0)

    def test_budget_zero_is_the_outer_call(self, engine):
        # With the overflow group off, the auxiliary problem is, row for row,
        # the outer search's call at level l_star - 1: each dedicated share is
        # its group's bound and nothing else.
        run, cases = resolve_subroutine(engine), 0
        for instance in corpus_instances(20):
            system, bounds0 = instance.path_system, instance.network.bounds()
            outer = find_lstar(system, bounds0, 0.2, engine)
            if outer.l_star == 1:
                continue
            aux, base, n = build_auxiliary(outer), system.grouped, system.path_count
            budget_zero, dedicated = [*aux.dedicated_bounds, 0.0], list(aux.dedicated_bounds)
            got = GroupedProblem.build(aux.groups.capacities, aux.groups, budget_zero)
            want = GroupedProblem.build(base.capacities, base, dedicated)
            for a, b in [(got.matrix.a, want.matrix.a), (got.matrix.caps, want.matrix.caps)]:
                assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())
            assert len(got.rows) == len(want.rows)
            for (coeffs, _, rhs), (want_coeffs, _, want_rhs) in zip(got.rows, want.rows):
                assert coeffs.tobytes() == want_coeffs.tobytes() and rhs == want_rhs
            x = run(aux.groups.capacities, aux.groups, budget_zero, compute_epsilon(0.2, bounds0)).x
            assert x[:n].tobytes() == outer.last.x.tobytes()
            assert not x[n:].any()
            cases += 1
        assert cases >= 15

    def test_level_one_starts_from_zero(self, engine, t1):
        run = resolve_subroutine(engine)
        eps = compute_epsilon(0.5, (1.0, 2.0))
        outer = find_lstar(t1, (1.0, 2.0), 0.5, engine)
        assert outer.l_star == 1 and outer.calls == 1 and outer.last is None

        def failing(caps, groups, bounds, eps):  # every budget gets a zero flow
            return run(caps, groups, [0.0] * len(bounds), eps)

        inner = find_hstar(build_auxiliary(outer), failing)
        assert (inner.h_star, inner.calls) == (1, 1)
        # The dedicated copies carry what the engines return when every
        # bound is 0, bit for bit.
        base = t1.grouped
        zero = run(base.capacities, base, [0.0, 0.0], eps)
        assert inner.x[:2].tobytes() == zero.x.tobytes() == np.zeros(2).tobytes()
        assert inner.x[2:].tobytes() == np.zeros(2).tobytes()


def calling_levels(system, eta, run):
    """``(l_star, h_star)`` of searches that call ``run`` at every level and every budget."""
    bounds = system.network.bounds()
    eps = compute_epsilon(eta, bounds)
    base = system.grouped
    l = 1
    while l * eta <= 1.0:
        scaled = [l * eta * b for b in bounds]
        if run(base.capacities, base, scaled, eps).total < left_sum(scaled) / (1.0 + eps) - BELOW_TOL:
            break
        l += 1
    aux = aux_at(system, bounds, l, eta)
    dedicated = list(aux.dedicated_bounds)
    h = 1
    while h * eta <= left_sum(bounds):
        result = run(aux.groups.capacities, aux.groups, [*dedicated, h * eta], eps)
        if result.total < (left_sum(dedicated) + h * eta) / (1.0 + eps) - BELOW_TOL:
            break
        h += 1
    return l, h


class TestNoOverflowLeft:
    """With no overflow capacity left, the outer search's last pass answers every budget."""

    @pytest.mark.parametrize("engine", ["oracle", "fptas"])
    def test_inner_search_makes_no_call(self, engine):
        run = resolve_subroutine(engine)
        closed_cases = []
        for system, eta in [(generated_system(seed), eta) for seed, eta in HSTAR_ONE] + [(t3_system(), 0.25)]:
            calls = []

            def probe(caps, groups, bounds, eps):
                calls.append(len(groups))
                return run(caps, groups, bounds, eps)

            report = solve(system, eta, subroutine=probe)
            closed = no_overflow_left(system, report)
            closed_cases.append(closed)
            # Outer calls see k groups, inner ones k + 1.
            assert (calls == [system.k] * report.subroutine_calls) == closed
            assert (report.l_star, report.h_star) == calling_levels(system, eta, run)
            assert_certificates(report, system, report.bounds0)
        # Seeds 4 and 6 meet every demand in full at eta 0.2, as t3 does at
        # 0.25; seed 11 stops at l_star = 5 with overflow capacity left.
        assert closed_cases == [True, True, False, True]

    @pytest.mark.parametrize("engine, h_star", [("oracle", 2), ("fptas", 2)])
    def test_single_edge_levels(self, engine, h_star):
        # At l_star = 5 the dedicated sink takes the whole demand 1. The
        # outer search's last pass has total 1.0 under both engines (packing
        # scales its flow to the bound column's congestion), which equals
        # the target (1 + 0.25) / (1 + 0.25) at h = 1, and equality passes.
        system = single_edge_system(2.0, 1.0)
        report = solve(system, 0.25, subroutine=engine)
        assert (report.l_star, report.h_star) == (5, h_star)
        assert report.subroutine_calls == 4
        assert (5, h_star) == calling_levels(system, 0.25, resolve_subroutine(engine))
        assert_certificates(report, system, (1.0,))

    def test_outer_pass_left_unfinished(self, monkeypatch):
        # The kept outer pass ends at its gap, short of the paper's stop, and
        # its flow still leaves overflow capacity for the inner search.
        import concurflow.packing as packing

        system = generate_instance(0, 6, 9, 2, 4).path_system
        bounds = system.network.bounds()
        outer = find_lstar(system, bounds, 0.25)
        aux = build_auxiliary(outer)
        assert all(aux.groups.capacities["ovf", i] > 0.0 for i in range(1, system.k + 1))
        inner = find_hstar(aux)
        assert inner.h_star >= 2 and inner.calls == inner.h_star
        eps, paths = compute_epsilon(0.25, bounds), system.grouped
        scaled = [(outer.l_star - 1) * 0.25 * b for b in bounds]
        last = outer.last
        assert bits(last) == bits(packing.pack_paths(paths.capacities, paths, scaled, eps))
        assert last.total >= last.upper / (1 + eps)
        monkeypatch.setattr(packing, "_STOP_MARGIN", 1.0)  # no gap test can pass
        finished = packing.pack_paths(paths.capacities, paths, scaled, eps)
        assert last.iterations < finished.iterations


class TestProjection:
    def test_copies_add_up(self, t1):
        aux = aux_at(t1, (1.0, 2.0), 3, 0.1)
        flow = project_flow(np.array([0.2, 0.0, 0.3, 0.1]), aux)
        assert flow.values[0][0] == pytest.approx(0.5)
        assert flow.values[1][0] == pytest.approx(0.1)

    def test_zero_projects_to_zero(self, t1):
        aux = aux_at(t1, (1.0, 2.0), 2, 0.1)
        flow = project_flow(np.zeros(4), aux)
        assert flow_value(flow) == 0.0

    def test_total_value_conserved(self, t2):
        outer = find_lstar(t2, (1.0, 1.0), 0.1, "oracle")
        aux = build_auxiliary(outer)
        res = find_hstar(aux, "oracle")
        aux_total = sum(res.x.tolist())
        flow = project_flow(res.x, aux)
        assert flow_value(flow) == pytest.approx(aux_total, abs=1e-12)
        # Per-commodity: dedicated + overflow copies; each half of the flow
        # holds each commodity's paths in turn.
        start, n = 0, t2.path_count
        for i, group in enumerate(t2.paths):
            dedicated = sum(res.x[start:start + len(group)].tolist())
            overflow = sum(res.x[n + start:n + start + len(group)].tolist())
            start += len(group)
            assert branch_values(flow)[i] == pytest.approx(dedicated + overflow, abs=1e-12)


def assert_certificates(report, system, bounds):
    flow = report.flow
    assert capacity_slack(flow) >= -CAP_TOLERANCE
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
        assert report.subroutine_calls == 10  # 7 outer + 3 inner, budget 0 none
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

        # t3 runs the outer search to l_star = 5, where its one demand is met
        # in full and no overflow capacity is left, so the inner search makes
        # no call. On t1 at eta 0.5 the first level fails, so l_star = 1 and
        # the inner search switches off its dedicated groups.
        for system, eta, l_star, inner in ((t3_system(), 0.25, 5, False), (t1_system(), 0.5, 1, True)):
            calls = []

            def probe(caps, groups, bounds, eps):
                calls.append(len(groups))
                return lp_grouped_max(caps, groups, bounds)

            report = solve(system, eta, subroutine=probe)
            assert report.subroutine_calls == len(calls)
            # Outer calls see k groups, inner ones k + 1.
            assert set(calls) == ({system.k, system.k + 1} if inner else {system.k})
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
        assert capacity_slack(report.flow) >= -CAP_TOLERANCE
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
        # and the inner search's one, overflow on: budget 0 makes no call.
        assert counts[0.1] == counts[0.05] == 1 + 1

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


class TestDefaultStopsFailingCalls:
    """``"fptas"`` stops a call once its dual bound is below the search's test.

    Any other call is the run without a target, bit for bit, so solutions
    equal those of a subroutine that never passes one.
    """

    # Default-bound instances at eta 0.25 where both searches pass at least twice.
    WIDE = ((0, (6, 9, 2, 4)), (3, (6, 9, 2, 4)), (1, (7, 11, 3, 4)))

    def test_solutions_equal_those_of_full_runs(self, monkeypatch):
        import concurflow.packing as packing

        real = packing.pack_paths
        iterations = {True: 0, False: 0}  # by whether the call had a target

        def counted(*args, **kwargs):
            result = real(*args, **kwargs)
            iterations["target" in kwargs] += result.iterations
            return result

        # "fptas" looks the engine up at call time, so the patch reaches solve.
        monkeypatch.setattr(packing, "pack_paths", counted)
        full_run = lambda c, g, b, e: packing.pack_paths(c, g, b, e)  # noqa: E731
        instances = []
        for seed in range(12):
            shape = CORPUS_SHAPES[seed % len(CORPUS_SHAPES)]
            try:
                instances.append(generate_instance(seed, *shape, bound_range=(0.2, 0.6)))
            except concurflow.generator.GenerationError:
                pass
        assert len(instances) >= 8
        cases = [(instance, eta, False) for instance in instances for eta in (0.2, 0.25)]
        cases += [(generate_instance(seed, *shape), 0.25, True) for seed, shape in self.WIDE]
        for instance, eta, wide in cases:
            default = solve(instance.path_system, eta)
            full = solve(instance.path_system, eta, subroutine=full_run)
            assert serialize_solution(default, instance) == serialize_solution(full, instance)
            if wide:
                assert default.l_star >= 3 and default.h_star >= 3
        assert 0 < iterations[True] < iterations[False]

    def test_passing_calls_ignore_the_target(self):
        # fptas-search's instances and etas. Every search call bounds every
        # group, so a passing call ends within 1+eps of its bounds' sum
        # unless its dual bound gets there first; here none does.
        import concurflow.packing as packing
        from concurflow.solver import _fptas, _pass_threshold

        passing, at_sum = 0, 0

        def both(capacities, groups, bounds, eps):
            nonlocal passing, at_sum
            result = _fptas(capacities, groups, bounds, eps)
            if result.total >= _pass_threshold(bounds, eps):
                assert bits(result) == bits(packing.pack_paths(capacities, groups, bounds, eps))
                passing += 1
                at_sum += result.upper == left_sum(bounds)
            return result

        for seed in range(6):
            shape = CORPUS_SHAPES[seed % len(CORPUS_SHAPES)]
            try:
                instance = generate_instance(seed, *shape, bound_range=(0.2, 0.6))
            except concurflow.generator.GenerationError:
                continue
            for eta in (0.2, 0.25):
                solve(instance.path_system, eta, subroutine=both)
        assert 0 < at_sum == passing
