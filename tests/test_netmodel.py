import itertools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concurflow.compare import capacity_slack, certified_checks
from concurflow.netmodel import (
    CAP_TOLERANCE,
    Commodity,
    Edge,
    Flow,
    GroupedPaths,
    GroupedProblem,
    ModelError,
    Network,
    Path,
    PathRuleError,
    PathSystem,
    Traversal,
    branch_values,
    edge_loads,
    enumerate_paths,
    flow_value,
    infer_traversals,
    min_ratio,
)
from concurflow.generator import generate_instance
from concurflow.oracle import lp_emcfpsc, lp_grouped_max, lp_mmfp_exact
from concurflow.packing import pack_paths, solve_mmfp
from concurflow.simplex import left_sum
from concurflow.solver import solve
from conftest import compiled, edge_groups, make_network, make_system, reference_layout


@pytest.fixture
def chain_net():
    # s -> u -> t with a direct shortcut edge, plus one undirected edge.
    return make_network(
        ["s", "u", "t"],
        [
            ("e1", "s", "t", 1.0, True),
            ("e2", "s", "u", 1.0, True),
            ("e3", "u", "t", 1.0, True),
            ("e4", "u", "t", 1.0, False),
        ],
        [("s", "t", 1.0)],
    )


def path_check(network, path):
    """``PathSystem``'s verdict on ``path`` as its commodity's only path: ``None`` or the error."""
    groups = [()] * network.k
    groups[path.commodity - 1] = (path,)
    try:
        PathSystem(network, tuple(groups))
    except PathRuleError as exc:
        return str(exc)
    return None


class TestConstruction:
    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(ModelError, match="duplicate edge id"):
            make_network(["a", "b"], [("e", "a", "b", 1, True), ("e", "b", "a", 1, True)], [("a", "b", 1)])

    def test_edge_lookup(self, chain_net):
        for edge in chain_net.edges:
            assert chain_net.edge(edge.id) is edge
        with pytest.raises(ModelError, match="^unknown edge id 'e9'$"):
            chain_net.edge("e9")

    def test_duplicate_node_rejected(self):
        with pytest.raises(ModelError, match="duplicate node"):
            make_network(["a", "a"], [], [("a", "a", 1)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ModelError, match="unknown node"):
            make_network(["a"], [("e", "a", "b", 1, True)], [("a", "a", 1)])

    def test_negative_capacity_rejected(self):
        with pytest.raises(ModelError, match="capacity"):
            Edge("e", "a", "b", -0.5, True)

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ModelError, match="bound"):
            Commodity(1, "a", "b", 0.0)
        with pytest.raises(ModelError, match="bound"):
            Commodity(1, "a", "b", -1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_numbers_rejected(self, value):
        with pytest.raises(ModelError, match="capacity must be >= 0 and finite"):
            Edge("e", "a", "b", value, True)
        with pytest.raises(ModelError, match="bound must be positive and finite"):
            Commodity(1, "a", "b", value)

    def test_negative_flow_value_rejected(self, t1):
        for value in (-0.1, math.nan):
            with pytest.raises(ModelError, match=f"^negative path value {value}$"):
                Flow(t1, [0.0, value])

    @pytest.mark.parametrize("x", [[0.5], [0.5, 0.5, 0.5], [[0.5], [0.5]]], ids=["short", "long", "nested"])
    def test_flow_of_wrong_length_rejected(self, t1, x):
        # One value per path, flat: the old nested per-commodity form is rejected too.
        with pytest.raises(ModelError, match="flow values do not match the path list"):
            Flow(t1, x)

    def test_duplicate_path_rejected(self, t1):
        with pytest.raises(ModelError, match="duplicate path"):
            make_system(t1.network, [[["e1"], ["e1"]], [["e1"]]])

    def test_list_steps_rejected_naming_the_path(self):
        net = make_network(["s", "t"], [("e", "s", "t", 1.0, True)], [("s", "t", 1.0)])
        with pytest.raises(PathRuleError) as info:
            PathSystem(net, ((Path(1, (Traversal("e"),)), Path(1, [Traversal("e")])),))
        assert str(info.value) == "commodity 1: the steps of path 2 are a list, not a tuple"
        assert (info.value.commodity, info.value.index) == (1, 1)

    @pytest.mark.parametrize("step", ["a1", "e10", "e1"], ids=["names-edge-a", "three-chars", "two-chars"])
    def test_string_step_rejected(self, step):
        # Each string is an edge id of this network, and "a1" unpacks into
        # ("a", "1"), edge a walked forward: none may be read as a step.
        net = make_network(
            ["s", "t"],
            [(eid, "s", "t", 1.0, True) for eid in ("a", "e", "e1", "e10")],
            [("s", "t", 1.0)],
        )
        violation = f"step {step!r} at position 1 is not an (edge_id, forward) pair"
        with pytest.raises(PathRuleError) as info:
            PathSystem(net, ((("e1",), Path(1, (step,))),))
        assert str(info.value) == f"commodity 1: invalid path ({violation})"
        assert (info.value.commodity, info.value.index) == (1, 1)


class TestRawPaths:
    def test_oriented_into_shared_steps(self):
        net = make_network(
            ["a", "b", "c"],
            [("e1", "b", "a", 1.0, False), ("e2", "b", "c", 1.0, True)],
            [("a", "c", 1)],
        )
        given = Path(1, (Traversal("e1", False), Traversal("e2")))
        system = PathSystem(net, [[("e1", "e2")]])
        assert system.paths == ((given,),)
        assert type(system.paths) is tuple and type(system.paths[0]) is tuple
        shared = infer_traversals(net, "a", ("e1", "e2"))
        assert system.paths[0][0].steps == shared
        assert all(a is b for a, b in zip(system.paths[0][0].steps, shared))
        with pytest.raises(PathRuleError, match=r"^commodity 1: duplicate path \('e1', 'e2'\)$"):
            PathSystem(net, ((given, ("e1", "e2")),))

    @pytest.mark.parametrize(
        "path, message",
        [
            (("e3", "e2"), "commodity 1: invalid path (broken chain at position 1)"),
            (("e2", "e9"), "commodity 1: invalid path (unknown edge id 'e9' at position 2)"),
            ((), "commodity 1: invalid path (empty path)"),
            (("e2",), "commodity 1: invalid path (path ends at 'u', expected sink 't')"),
            (["e1"], "commodity 1: path 2 is a list, not a Path or a tuple of edge ids"),
        ],
        ids=["broken-chain", "unknown-edge", "empty", "wrong-sink", "list"],
    )
    def test_rule_breaks_located(self, chain_net, path, message):
        with pytest.raises(PathRuleError) as info:
            PathSystem(chain_net, ((("e1",), path),))
        assert str(info.value) == message
        assert (info.value.commodity, info.value.index) == (1, 1)


class TestValidatePath:
    def test_single_edge_ok(self, chain_net):
        assert path_check(chain_net, Path(1, (Traversal("e1"),))) is None

    def test_two_edge_chain_ok(self, chain_net):
        assert path_check(chain_net, Path(1, (Traversal("e2"), Traversal("e3")))) is None

    def test_out_of_order_chain(self, chain_net):
        got = path_check(chain_net, Path(1, (Traversal("e3"), Traversal("e2"))))
        assert got == "commodity 1: invalid path (broken chain at position 1)"

    def test_unknown_edge(self, chain_net):
        got = path_check(chain_net, Path(1, (Traversal("e9"),)))
        assert got == "commodity 1: invalid path (unknown edge id 'e9' at position 1)"

    def test_directed_edge_backwards(self, chain_net):
        got = path_check(chain_net, Path(1, (Traversal("e2"), Traversal("e3", forward=False))))
        assert got == "commodity 1: invalid path (directed edge 'e3' walked backwards at position 2)"

    def test_undirected_edge_either_way(self):
        net = make_network(
            ["a", "b"], [("e", "a", "b", 1.0, False)], [("a", "b", 1), ("b", "a", 1)]
        )
        assert path_check(net, Path(1, (Traversal("e", True),))) is None
        assert path_check(net, Path(2, (Traversal("e", False),))) is None

    def test_wrong_sink(self, chain_net):
        got = path_check(chain_net, Path(1, (Traversal("e2"),)))
        assert got == "commodity 1: invalid path (path ends at 'u', expected sink 't')"

    def test_repeated_node(self):
        net = make_network(
            ["s", "u", "t"],
            [("a", "s", "u", 1, False), ("b", "u", "s", 1, False), ("c", "u", "t", 1, True)],
            [("s", "t", 1)],
        )
        walk = Path(1, (Traversal("a"), Traversal("b"), Traversal("a"), Traversal("c")))
        assert path_check(net, walk) == "commodity 1: invalid path (repeated node on path)"

    def test_zero_capacity_edge(self):
        net = make_network(["s", "t"], [("e", "s", "t", 0.0, True)], [("s", "t", 1)])
        got = path_check(net, Path(1, (Traversal("e"),)))
        assert got == "commodity 1: invalid path (zero-capacity edge 'e' at position 1)"

    def test_path_filed_under_another_commodity(self, t1):
        with pytest.raises(PathRuleError) as info:
            PathSystem(t1.network, ((Path(2, (Traversal("e1"),)),), ()))
        assert str(info.value) == "path filed under commodity 1 carries index 2"
        assert (info.value.commodity, info.value.index) == (1, 0)

    def test_closed_walk_allowed(self):
        net = make_network(
            ["s", "v"],
            [("a", "s", "v", 1, True), ("b", "v", "s", 1, True)],
            [("s", "s", 1)],
        )
        assert path_check(net, Path(1, (Traversal("a"), Traversal("b")))) is None


class TestInferTraversals:
    def test_orients_undirected(self):
        net = make_network(
            ["s", "u", "t"],
            [("e1", "u", "s", 1, False), ("e2", "u", "t", 1, True)],
            [("s", "t", 1)],
        )
        steps = infer_traversals(net, "s", ["e1", "e2"])
        assert steps == (Traversal("e1", False), Traversal("e2", True))

    def test_broken_chain_position(self, chain_net):
        with pytest.raises(ModelError, match="broken chain at position 2"):
            infer_traversals(chain_net, "s", ["e2", "e2"])

    def test_steps_are_shared_named_tuples(self, chain_net):
        first = infer_traversals(chain_net, "s", ["e2", "e3"])
        again = infer_traversals(chain_net, "s", ["e2", "e3"])
        assert all(a is b for a, b in zip(first, again))
        # A Traversal is a named tuple: it equals, and hashes like, its plain tuple.
        assert first == (("e2", True), ("e3", True))
        assert hash(first[0]) == hash(("e2", True))


class TestAccounting:
    def test_edge_load_sums_terms(self, chain_net):
        system = make_system(chain_net, [[["e1"], ["e2", "e3"]]])
        flow = Flow(system, [0.2, 0.3])
        assert edge_loads(flow) == pytest.approx({"e1": 0.2, "e2": 0.3, "e3": 0.3})

    def test_shared_edge_load(self, t1):
        flow = Flow(t1, [0.3, 0.2])
        assert edge_loads(flow) == pytest.approx({"e1": 0.5})

    def test_empty_flow_loads_zero(self, t1):
        flow = Flow(t1, np.zeros(2))
        assert edge_loads(flow) == {"e1": 0.0}

    def test_gross_sum_on_undirected_edge(self):
        net = make_network(
            ["a", "b"], [("e", "a", "b", 1.0, False)], [("a", "b", 1), ("b", "a", 1)]
        )
        system = PathSystem(
            net,
            (
                (Path(1, (Traversal("e", True),)),),
                (Path(2, (Traversal("e", False),)),),
            ),
        )
        flow = Flow(system, [0.4, 0.4])
        assert edge_loads(flow) == pytest.approx({"e": 0.8})

    def test_closed_walk_counts_edge_once(self):
        # s -> v -> s over one undirected edge: the path uses e once.
        net = make_network(["s", "v"], [("e", "s", "v", 1.0, False)], [("s", "s", 1.0)])
        walk = Path(1, (Traversal("e", True), Traversal("e", False)))
        system = PathSystem(net, ((walk,),))
        assert edge_loads(Flow(system, [0.4])) == {"e": 0.4}
        assert lp_mmfp_exact(system)[0] == 1.0
        assert flow_value(solve_mmfp(system, 0.1)) == pytest.approx(1.0, rel=0.1)
        assert lp_emcfpsc(system)[:2] == (1.0, 1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loads_match_summing_loop(self, seed):
        # Reference: the per-path loop; a matrix product may sum in another order.
        system = generate_instance(seed, 8, 14, 3, 6).path_system
        rng = np.random.default_rng(seed)
        flow = Flow(system, rng.random(system.path_count))
        expected = {}
        for group, vals in zip(system.paths, flow.values):
            for path, v in zip(group, vals):
                for eid in {step.edge_id for step in path.steps}:
                    expected[eid] = expected.get(eid, 0.0) + v
        assert edge_loads(flow) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @staticmethod
    def feasible(system, x, bounds=None):
        """``certified_checks``' ``feasible`` result for the flow ``x`` on ``system``."""
        report = replace(solve(system, 0.1, subroutine="oracle"), flow=Flow(system, x))
        return certified_checks(report, bounds or system.network.bounds(), None, None)[0]

    # Every load below is exact in binary, so each margin is too.
    def test_feasibility_boundary(self, t1):
        # 2**-30 (9.3e-10) over the capacity of e1, within CAP_TOLERANCE.
        check = self.feasible(t1, [0.5, 0.5 + 2**-30])
        assert (check.name, check.passed, check.margin) == ("feasible", True, -(2**-30))

    def test_feasibility_violation_reported(self, t1):
        # 2**-29 (1.9e-9) over: about twice CAP_TOLERANCE.
        check = self.feasible(t1, [0.5, 0.5 + 2**-29])
        assert -2 * CAP_TOLERANCE < check.margin == -(2**-29) < -CAP_TOLERANCE
        assert not check.passed

    def test_branch_over_its_bound_fails(self, t1):
        # Commodity 1 carries 0.75 against a bound of 0.5; e1 has 0.25 to spare.
        check = self.feasible(t1, [0.75, 0.0], (0.5, 2.0))
        assert capacity_slack(Flow(t1, [0.75, 0.0])) == 0.25
        assert (check.passed, check.margin) == (False, -0.25)

    def test_two_half_paths_feasible(self, t1):
        assert capacity_slack(Flow(t1, [0.5, 0.5])) == 0.0

    def test_values_zero_flow(self, t1):
        zero = Flow(t1, np.zeros(2))
        assert flow_value(zero) == 0.0
        assert branch_values(zero) == (0.0, 0.0)

    def test_value_splits(self, t1):
        flow = Flow(t1, [1 / 3, 2 / 3])
        assert flow_value(flow) == pytest.approx(1.0)
        assert branch_values(flow) == pytest.approx((1 / 3, 2 / 3))

    def test_two_paths_one_commodity(self, chain_net):
        system = make_system(chain_net, [[["e1"], ["e2", "e3"]]])
        flow = Flow(system, [0.25, 0.75])
        assert branch_values(flow) == pytest.approx((1.0,))

    def test_min_ratio_examples(self, t1):
        flow = Flow(t1, [0.5, 1.0])
        assert min_ratio(flow, (1.0, 2.0)) == pytest.approx(0.5)
        assert min_ratio(Flow(t1, np.zeros(2))) == 0.0
        flow = Flow(t1, [1 / 3, 2 / 3])
        assert min_ratio(flow, (1.0, 2.0)) == pytest.approx(1 / 3)

    def test_min_ratio_uses_commodity_bounds(self, t1):
        flow = Flow(t1, [0.5, 0.5])
        assert min_ratio(flow) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ((1.0,), "bounds length does not match the commodity count"),
            ((1.0, 2.0, 3.0), "bounds length does not match the commodity count"),
            ((1.0, 0.0), "bounds must be positive and finite, got 0.0"),
            ((math.nan, 2.0), "bounds must be positive and finite, got nan"),
            # An infinite bound would give the commodity ratio 0.0.
            ((1.0, math.inf), "bounds must be positive and finite, got inf"),
        ],
        ids=["short", "long", "zero", "nan", "inf"],
    )
    def test_min_ratio_rejects_bad_bounds(self, t1, bounds, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            min_ratio(Flow(t1, [0.5, 0.5]), bounds)

    def test_min_ratio_needs_a_commodity(self):
        system = make_system(make_network(["s", "t"], [("e1", "s", "t", 1.0, True)], []), [])
        with pytest.raises(ModelError, match="^min_ratio needs at least one commodity$"):
            min_ratio(Flow(system, np.zeros(0)))


class TestFlow:
    def test_holds_a_read_only_copy(self, t1):
        given = np.array([0.25, 0.5])
        flow = Flow(t1, given)
        given[0] = 9.0
        assert flow.x.tolist() == [0.25, 0.5]
        assert flow.values == ((0.25,), (0.5,))
        with pytest.raises(ValueError, match="read-only"):
            flow.x[0] = 1.0

    def test_values_split_per_commodity(self):
        # Groups of 3, 0 and 1 paths: the empty commodity gets an empty row and a 0.0 branch.
        net = make_network(
            ["s", "u", "t"],
            [("e1", "s", "t", 1.0, True), ("e2", "s", "u", 1.0, True), ("e3", "u", "t", 1.0, True),
             ("e4", "u", "t", 1.0, False)],
            [("s", "t", 1.0), ("s", "t", 1.0), ("s", "t", 1.0)],
        )
        system = make_system(net, [[["e1"], ["e2", "e3"], ["e2", "e4"]], [], [["e1"]]])
        x = [0.1, 0.2, 0.3, 0.4]
        flow = Flow(system, x)
        flat = iter(x)
        nested = tuple(tuple(next(flat) for _ in group) for group in system.paths)
        assert flow.values == nested == ((0.1, 0.2, 0.3), (), (0.4,))
        assert all(type(v) is float for row in flow.values for v in row)
        assert flow.values is flow.values  # split once
        assert branch_values(flow) == (0.1 + 0.2 + 0.3, 0.0, 0.4)
        assert flow_value(flow) == left_sum(branch_values(flow))

    @pytest.mark.parametrize("engine", ["oracle", "fptas"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flow_value_is_the_engine_total(self, engine, seed):
        # One summing rule: a flow's value has the bits of the result's total.
        system = generate_instance(seed, 8, 14, 3, 6).path_system
        groups, bounds = system.grouped, list(system.network.bounds())
        if engine == "oracle":
            result = lp_grouped_max(groups.capacities, groups, bounds)
        else:
            result = pack_paths(groups.capacities, groups, bounds, 0.1)
        flow = Flow(system, result.x)
        assert flow_value(flow).hex() == result.total.hex()
        assert float(left_sum(branch_values(flow))).hex() == result.total.hex()


class TestGroupedProblem:
    def test_keeps_paths_that_can_carry_flow(self):
        # The path over zero-capacity "z" and the switched-off group drop out;
        # edges follow first use among the kept paths only.
        caps = {"z": 0.0, "b": 1.0, "a": 2.0}
        problem = GroupedProblem.build(*compiled(caps, [[("z", "b"), ("a", "b")], [("b",)]]), [math.inf, 0])
        assert problem.bounds == (None, 0.0)
        assert problem.matrix.edges == ("a", "b")
        assert problem.keep.tolist() == [False, True, False]
        result = problem.result(np.array([0.5]), 3)
        assert (result.x.tolist(), result.total, result.iterations, result.upper) == ([0.0, 0.5, 0.0], 0.5, 3, 0.5)
        assert not result.x.flags.writeable

    def test_capacities_view_is_built_once(self, t1):
        caps = {"a": 1.0, "b": 2.0}
        for paths in (GroupedPaths.build(caps, [[("b",), ("a", "b")]]), t1.grouped):
            view = paths.capacities
            assert paths.capacities is view
            assert list(view.items()) == list(zip(paths.edges, paths.caps.tolist()))
            with pytest.raises(TypeError):
                view["a"] = 0.0

    def test_threads_racing_to_the_first_capacities_read_share_one_view(self):
        # Each thread must get the view the engines will compare by identity.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(20):
                    paths = GroupedPaths.build({"a": 1.0, "b": 2.0}, [[("a",), ("a", "b")]])
                    start = threading.Barrier(8)

                    def first_read():
                        start.wait(timeout=30)
                        return paths.capacities

                    views = [future.result(timeout=60) for future in [pool.submit(first_read) for _ in range(8)]]
                    assert all(view is paths.capacities for view in views)
        finally:
            sys.setswitchinterval(interval)

    def test_compiled_paths_reused_only_with_their_own_snapshot(self):
        caps = {"a": 1.0, "b": 1.0}
        paths = GroupedPaths.build(caps, [[("a",), ("b",)]])
        caps["a"] = 0.0  # the caller's dict changes; the snapshot does not
        assert paths.capacities == {"a": 1.0, "b": 1.0}
        reused = GroupedProblem.build(paths.capacities, paths, None)
        assert reused.keep.tolist() == [True, True]
        assert GroupedProblem.build(paths.capacities, paths, [2.0]).matrix is reused.matrix
        # Beside any other mapping, even one with equal entries, it is refused.
        for other in (caps, dict(paths.capacities)):
            with pytest.raises(ValueError, match="must come with its own capacities snapshot"):
                GroupedProblem.build(other, paths, None)


# --- GroupedPaths.columns against the former key-walking layout ---

# String ids beside the auxiliary network's tuple keys.
EDGE_KEYS = ("a", "b", "c", "d", ("ded", 1), ("ovf", 1), ("ded", 2))


@st.composite
def grouped_input(draw):
    """Capacities (some zero) and groups (some empty); paths may repeat an edge."""
    caps = {key: draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) for key in EDGE_KEYS}
    path = st.lists(st.sampled_from(EDGE_KEYS), min_size=1, max_size=5).map(tuple)
    groups = draw(st.lists(st.lists(path, max_size=4), max_size=4))
    return caps, groups


@settings(max_examples=200, deadline=None)
@given(grouped_input())
@example(({"a": 1.0, "b": 0.0, ("ded", 1): 2.0}, [[("b", "a")], [], [("a", ("ded", 1), "a")]]))
@example(({"a": 1.0, "b": 1.0, ("ovf", 1): 0.0}, [[("b",)], [("a", "b"), (("ovf", 1), "a")]]))
def test_columns_match_reference_layout(case):
    caps, groups = case
    paths = GroupedPaths.build(caps, groups)
    zero = {key for group in groups for path in group for key in path if caps[key] == 0}
    usable = [zero.isdisjoint(path) for group in groups for path in group]
    # Every live mask, switched-off groups included.
    for live in itertools.product((False, True), repeat=len(groups)):
        matrix, keep = paths.columns(live)
        expected_keep = [on and ok for on, ok in zip(np.repeat(live, paths.sizes), usable)]
        assert keep.tolist() == expected_keep
        kept = iter(expected_keep)
        ref = reference_layout(caps, [[path for path in group if next(kept)] for group in groups])
        assert matrix.edges == ref.edges
        for name in ("caps", "a", "g"):
            got, want = getattr(matrix, name), getattr(ref, name)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and not got.flags.writeable


class TestEnumeratePaths:
    def test_single_edge(self):
        net = make_network(["s", "t"], [("e", "s", "t", 1, True)], [("s", "t", 1)])
        paths = enumerate_paths(net, net.commodities[0], 3)
        assert [p.edge_ids() for p in paths] == [("e",)]

    def test_lexicographic_order(self):
        net = make_network(
            ["s", "u", "t"],
            [("e_st", "s", "t", 1, True), ("e_su", "s", "u", 1, True), ("e_ut", "u", "t", 1, True)],
            [("s", "t", 1)],
        )
        paths = enumerate_paths(net, net.commodities[0], 2)
        assert [p.edge_ids() for p in paths] == [("e_st",), ("e_su", "e_ut")]

    def test_disconnected_sink(self):
        net = make_network(["s", "t"], [], [("s", "t", 1)])
        assert enumerate_paths(net, net.commodities[0], 4) == []

    def test_zero_capacity_edges_skipped(self):
        net = make_network(["s", "t"], [("e", "s", "t", 0.0, True)], [("s", "t", 1)])
        assert enumerate_paths(net, net.commodities[0], 2) == []

    def test_max_edges_cutoff(self):
        net = make_network(
            ["s", "u", "t"],
            [("a", "s", "u", 1, True), ("b", "u", "t", 1, True)],
            [("s", "t", 1)],
        )
        assert enumerate_paths(net, net.commodities[0], 1) == []
        assert len(enumerate_paths(net, net.commodities[0], 2)) == 1

    def test_undirected_used_both_ways(self):
        net = make_network(
            ["a", "b"], [("e", "a", "b", 1, False)], [("a", "b", 1), ("b", "a", 1)]
        )
        forward = enumerate_paths(net, net.commodities[0], 2)
        backward = enumerate_paths(net, net.commodities[1], 2)
        assert forward[0].steps == (Traversal("e", True),)
        assert backward[0].steps == (Traversal("e", False),)

    def test_unknown_endpoint_rejected(self):
        net = make_network(["s", "t"], [("e", "s", "t", 1, True)], [("s", "t", 1)])
        stray = Commodity(1, "s", "zz", 1.0)
        with pytest.raises(ModelError):
            enumerate_paths(net, stray, 2)

    def test_bad_max_edges(self):
        net = make_network(["s", "t"], [("e", "s", "t", 1, True)], [("s", "t", 1)])
        with pytest.raises(ValueError):
            enumerate_paths(net, net.commodities[0], 0)

    @pytest.mark.parametrize("max_edges, limit", [(2.5, None), (8.0, None), (8, -1), (8, 2.5), (8, 3.0)])
    def test_sizes_that_skip_their_caps_rejected(self, max_edges, limit):
        # Each of these once enumerated every simple path: no cap was met.
        net = generate_instance(3, 8, 14, 3, 6).network
        with pytest.raises(ValueError, match="^(max_edges|limit) must be "):
            enumerate_paths(net, net.commodities[0], max_edges, limit=limit)

    def test_limit_zero_finds_nothing(self):
        net = generate_instance(3, 8, 14, 3, 6).network
        assert enumerate_paths(net, net.commodities[0], 8, limit=0) == []
        assert len(enumerate_paths(net, net.commodities[0], 8, limit=2)) == 2

    @pytest.mark.parametrize("shape", [(6, 9, 2, 4), (8, 14, 3, 6), (10, 25, 3, 8)])
    def test_limit_is_a_prefix(self, shape):
        net = generate_instance(5, *shape).network
        for com in net.commodities:
            full = enumerate_paths(net, com, len(net.nodes))
            for k in (1, 3, len(full)):
                assert enumerate_paths(net, com, len(net.nodes), limit=k) == full[:k]

    def test_long_chain_needs_no_recursion(self):
        # 1099 steps deep: a search that recursed once per edge overflowed here.
        nodes = [f"n{i}" for i in range(1100)]
        edges = [(f"e{i:04d}", nodes[i], nodes[i + 1], 1, True) for i in range(1099)]
        net = make_network(nodes, edges, [("n0", "n1099", 1)])
        (path,) = enumerate_paths(net, net.commodities[0], 1100, limit=1)
        assert path.edge_ids() == tuple(e[0] for e in edges)
        assert enumerate_paths(net, net.commodities[0], 1098) == []

    def test_all_results_validate(self):
        net = make_network(
            ["s", "u", "v", "t"],
            [
                ("a", "s", "u", 1, True),
                ("b", "u", "v", 1, False),
                ("c", "v", "t", 1, True),
                ("d", "s", "v", 1, False),
                ("f", "u", "t", 1, True),
            ],
            [("s", "t", 1)],
        )
        paths = enumerate_paths(net, net.commodities[0], 4)
        assert paths, "expected at least one path"
        assert PathSystem(net, (tuple(paths),)).paths == (tuple(paths),)


# --- randomized cross-check of PathSystem's path check against an independent walker ---


def brute_force_path_check(network, path):
    """Re-derive path validity from the raw rules, independent of ``PathSystem``."""
    if not 1 <= path.commodity <= len(network.commodities):
        return False
    if not path.steps:
        return False
    com = network.commodities[path.commodity - 1]
    by_id = {e.id: e for e in network.edges}
    sequence = [com.source]
    for step in path.steps:
        edge = by_id.get(step.edge_id)
        if edge is None:
            return False
        if edge.directed and not step.forward:
            return False
        if edge.capacity <= 0:
            return False
        start = edge.tail if step.forward else edge.head
        end = edge.head if step.forward else edge.tail
        if start != sequence[-1]:
            return False
        sequence.append(end)
    if sequence[0] != com.source or sequence[-1] != com.sink:
        return False
    head, tail = sequence[:-1], sequence[1:]
    return len(set(head)) == len(head) and len(set(tail)) == len(tail)


@st.composite
def small_network_and_path(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=6))
    nodes = [f"n{i}" for i in range(n_nodes)]
    n_edges = draw(st.integers(min_value=1, max_value=8))
    edges = []
    for i in range(n_edges):
        tail = draw(st.sampled_from(nodes))
        head = draw(st.sampled_from(nodes))
        cap = draw(st.sampled_from([0.0, 0.5, 1.0]))
        directed = draw(st.booleans())
        edges.append(Edge(f"e{i}", tail, head, cap, directed))
    source = draw(st.sampled_from(nodes))
    sink = draw(st.sampled_from(nodes))
    net = Network(tuple(nodes), tuple(edges), (Commodity(1, source, sink, 1.0),))

    if draw(st.booleans()):
        # Random, mostly-garbage walks.
        n_steps = draw(st.integers(min_value=0, max_value=5))
        steps = tuple(
            Traversal(draw(st.sampled_from([e.id for e in edges] + ["bogus"])), draw(st.booleans()))
            for _ in range(n_steps)
        )
        path = Path(1, steps)
    else:
        # Bias toward genuinely valid paths when any exist.
        candidates = enumerate_paths(net, net.commodities[0], n_nodes)
        if candidates:
            path = draw(st.sampled_from(candidates))
        else:
            path = Path(1, (Traversal(edges[0].id, True),))
    return net, path


@settings(max_examples=300, deadline=None)
@given(small_network_and_path())
def test_validate_path_matches_brute_force(case):
    net, path = case
    assert (path_check(net, path) is None) == brute_force_path_check(net, path)


# The two path checks as they stood before they became one lean pass each:
# two method calls per step, a separate pass for capacities, and a fresh
# Traversal per step. ``PathSystem`` and ``infer_traversals`` must give the
# same verdicts, the same first violation and the same steps.
def reference_validate_path(network: Network, path: Path) -> str | None:
    """Check every path rule; return ``None`` when valid, else the first violation.

    Rules, in checking order: the commodity index exists; every step names a
    known edge walked in a legal direction that chains onto the previous
    step (positions are 1-based in messages); the walk runs source to sink;
    all nodes are pairwise distinct except that source may equal sink; every
    edge has positive capacity.
    """
    if not 1 <= path.commodity <= len(network.commodities):
        return f"unknown commodity index {path.commodity}"
    com = network.commodities[path.commodity - 1]
    if not path.steps:
        return "empty path"
    by_id = {e.id: e for e in network.edges}
    current = com.source
    sequence = [current]
    for pos, step in enumerate(path.steps, start=1):
        edge = by_id.get(step.edge_id)
        if edge is None:
            return f"unknown edge id {step.edge_id!r} at position {pos}"
        if edge.directed and not step.forward:
            return f"directed edge {edge.id!r} walked backwards at position {pos}"
        start, end = (edge.tail, edge.head) if step.forward else (edge.head, edge.tail)
        if start != current:
            return f"broken chain at position {pos}"
        current = end
        sequence.append(current)
    if sequence[-1] != com.sink:
        return f"path ends at {sequence[-1]!r}, expected sink {com.sink!r}"
    # All nodes pairwise distinct, except the first and last may coincide.
    if len(set(sequence[:-1])) != len(sequence) - 1 or len(set(sequence[1:])) != len(sequence) - 1:
        return "repeated node on path"
    for pos, step in enumerate(path.steps, start=1):
        if not by_id[step.edge_id].capacity > 0.0:
            return f"zero-capacity edge {step.edge_id!r} at position {pos}"
    return None


def reference_infer_traversals(network: Network, source: str, edge_ids: list[str] | tuple[str, ...]) -> tuple[Traversal, ...]:
    """Orient a raw edge-id sequence by chaining nodes from ``source``.

    Directed edges must depart from their tail; an undirected edge is
    oriented away from the current node. Raises ``ModelError`` with a
    1-based position when the sequence does not chain.
    """
    by_id = {e.id: e for e in network.edges}
    current = source
    steps: list[Traversal] = []
    for pos, edge_id in enumerate(edge_ids, start=1):
        edge = by_id.get(edge_id)
        if edge is None:
            raise ModelError(f"unknown edge id {edge_id!r} at position {pos}")
        if edge.tail == current:
            forward = True
        elif not edge.directed and edge.head == current:
            forward = False
        else:
            raise ModelError(f"broken chain at position {pos}")
        steps.append(Traversal(edge_id, forward))
        current = edge.head if forward else edge.tail
    return tuple(steps)


@settings(max_examples=300, deadline=None)
@given(small_network_and_path())
def test_validate_path_matches_reference(case):
    net, path = case
    violation = reference_validate_path(net, path)
    expected = None if violation is None else f"commodity 1: invalid path ({violation})"
    assert path_check(net, path) == expected


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ModelError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(small_network_and_path())
def test_infer_traversals_matches_reference(case):
    net, path = case
    source = net.commodities[0].source
    edge_ids = path.edge_ids()
    assert _outcome(infer_traversals, net, source, edge_ids) == _outcome(
        reference_infer_traversals, net, source, edge_ids
    )


@st.composite
def random_flow(draw):
    net = make_network(
        ["s", "u", "t"],
        [
            ("e1", "s", "t", 1.0, True),
            ("e2", "s", "u", 1.0, True),
            ("e3", "u", "t", 1.0, False),
        ],
        [("s", "t", 1.0), ("s", "t", 2.0)],
    )
    system = make_system(net, [[["e1"], ["e2", "e3"]], [["e1"]]])
    vals = [draw(st.floats(min_value=0.0, max_value=2.0)) for _ in range(system.path_count)]
    return Flow(system, vals)


@settings(max_examples=200, deadline=None)
@given(random_flow())
def test_total_value_matches_branch_sum(flow):
    assert flow_value(flow) == left_sum(branch_values(flow))


@settings(max_examples=200, deadline=None)
@given(random_flow())
def test_min_ratio_bounds_every_commodity(flow):
    bounds = flow.system.network.bounds()
    ratios = [v / b for v, b in zip(branch_values(flow), bounds)]
    value = min_ratio(flow)
    assert all(value <= r for r in ratios)
    assert any(value == r for r in ratios)


# --- PathSystem over raw edge ids against orienting, then validating ---


@st.composite
def raw_path_system(draw):
    """A small network with 1-3 commodities, each with a few raw edge-id paths."""
    nodes = [f"n{i}" for i in range(draw(st.integers(min_value=2, max_value=5)))]
    edges = [
        Edge(f"e{i}", draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)),
             draw(st.sampled_from([0.0, 1.0, 2.0])), draw(st.booleans()))
        for i in range(draw(st.integers(min_value=1, max_value=7)))
    ]
    coms = tuple(
        Commodity(i, draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)), 1.0)
        for i in range(1, draw(st.integers(min_value=1, max_value=3)) + 1)
    )
    net = Network(tuple(nodes), tuple(edges), coms)
    ids = [e.id for e in edges] + ["bogus"]
    groups = []
    for com in coms:
        valid = [p.edge_ids() for p in enumerate_paths(net, com, len(nodes), limit=4)]
        garbage = st.lists(st.sampled_from(ids), max_size=4).map(tuple)
        group = draw(st.lists(st.sampled_from(valid) if valid else garbage, max_size=3))
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            group.insert(draw(st.integers(min_value=0, max_value=len(group))), draw(garbage))
        groups.append(tuple(group))
    return net, tuple(groups)


def reference_raw_system(network, groups):
    """Each path oriented, then checked, in commodity order: the first violation or the Paths."""
    paths = []
    for i, group in enumerate(groups, start=1):
        seen, kept = set(), []
        for ids in group:
            try:
                steps = reference_infer_traversals(network, network.commodities[i - 1].source, ids)
            except ModelError as exc:
                return f"commodity {i}: invalid path ({exc})"
            violation = reference_validate_path(network, Path(i, steps))
            if violation is not None:
                return f"commodity {i}: invalid path ({violation})"
            if steps in seen:
                return f"commodity {i}: duplicate path {tuple(ids)}"
            seen.add(steps)
            kept.append(Path(i, steps))
        paths.append(tuple(kept))
    return tuple(paths)


@settings(max_examples=300, deadline=None)
@given(raw_path_system())
def test_raw_paths_match_orienting_then_validating(case):
    net, groups = case
    expected = reference_raw_system(net, groups)
    if isinstance(expected, str):
        with pytest.raises(PathRuleError) as info:
            PathSystem(net, groups)
        assert str(info.value) == expected
        return
    system = PathSystem(net, groups)
    assert system.paths == expected
    # The compiled form over the walk's edge numbers lays out every live
    # mask as the one built by keys does.
    caps = {e.id: e.capacity for e in net.edges}
    ref = GroupedPaths.build(caps, edge_groups(system))
    got = system.grouped
    assert (got.sizes, dict(got.capacities)) == (ref.sizes, caps)
    assert got.lengths.dtype == ref.lengths.dtype and got.lengths.tobytes() == ref.lengths.tobytes()
    for live in itertools.product((False, True), repeat=system.k):
        (matrix, keep), (want, want_keep) = got.columns(live), ref.columns(live)
        assert matrix.edges == want.edges
        for a, b in ((matrix.caps, want.caps), (matrix.a, want.a), (matrix.g, want.g), (keep, want_keep)):
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_path_system_capacities_keep_first_use_order():
    # Network order e1, e2, e3, e4; the paths use e3, e1, e4 in that order, never e2.
    net = make_network(
        ["s", "u", "t"],
        [("e1", "u", "t", 1.0, True), ("e2", "s", "t", 2.0, True),
         ("e3", "s", "u", 3.0, True), ("e4", "s", "t", 4.0, True)],
        [("s", "t", 1.0)],
    )
    system = make_system(net, [[["e3", "e1"], ["e4"]]])
    assert system.grouped.edges == ("e1", "e2", "e3", "e4")
    assert list(system.capacities().items()) == [("e3", 3.0), ("e1", 1.0), ("e4", 4.0)]
