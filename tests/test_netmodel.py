import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concurflow.netmodel import (
    Commodity,
    Edge,
    Flow,
    GroupedPaths,
    GroupedProblem,
    GroupedResult,
    ModelError,
    Network,
    Path,
    PathSystem,
    Traversal,
    branch_value,
    branch_values,
    edge_loads,
    enumerate_paths,
    flow_value,
    infer_traversals,
    is_feasible,
    min_ratio,
    validate_path,
)
from concurflow.generator import generate_instance
from concurflow.oracle import lp_emcfpsc, lp_mmfp_exact
from concurflow.packing import solve_mmfp
from conftest import make_network, make_system, reference_layout


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


class TestConstruction:
    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(ModelError, match="duplicate edge id"):
            make_network(["a", "b"], [("e", "a", "b", 1, True), ("e", "b", "a", 1, True)], [("a", "b", 1)])

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
        with pytest.raises(ModelError, match="negative"):
            Flow(t1, ((-0.1,), (0.0,)))

    def test_duplicate_path_rejected(self, t1):
        with pytest.raises(ModelError, match="duplicate path"):
            make_system(t1.network, [[["e1"], ["e1"]], [["e1"]]])


class TestValidatePath:
    def test_single_edge_ok(self, chain_net):
        assert validate_path(chain_net, Path(1, (Traversal("e1"),))) is None

    def test_two_edge_chain_ok(self, chain_net):
        assert validate_path(chain_net, Path(1, (Traversal("e2"), Traversal("e3")))) is None

    def test_out_of_order_chain(self, chain_net):
        got = validate_path(chain_net, Path(1, (Traversal("e3"), Traversal("e2"))))
        assert got == "broken chain at position 1"

    def test_unknown_edge(self, chain_net):
        got = validate_path(chain_net, Path(1, (Traversal("e9"),)))
        assert "unknown edge id" in got

    def test_directed_edge_backwards(self, chain_net):
        got = validate_path(chain_net, Path(1, (Traversal("e2"), Traversal("e3", forward=False))))
        assert "walked backwards" in got

    def test_undirected_edge_either_way(self):
        net = make_network(
            ["a", "b"], [("e", "a", "b", 1.0, False)], [("a", "b", 1), ("b", "a", 1)]
        )
        assert validate_path(net, Path(1, (Traversal("e", True),))) is None
        assert validate_path(net, Path(2, (Traversal("e", False),))) is None

    def test_wrong_sink(self, chain_net):
        got = validate_path(chain_net, Path(1, (Traversal("e2"),)))
        assert "expected sink" in got

    def test_repeated_node(self):
        net = make_network(
            ["s", "u", "t"],
            [("a", "s", "u", 1, False), ("b", "u", "s", 1, False), ("c", "u", "t", 1, True)],
            [("s", "t", 1)],
        )
        walk = Path(1, (Traversal("a"), Traversal("b"), Traversal("a"), Traversal("c")))
        assert validate_path(net, walk) == "repeated node on path"

    def test_zero_capacity_edge(self):
        net = make_network(["s", "t"], [("e", "s", "t", 0.0, True)], [("s", "t", 1)])
        assert "zero-capacity" in validate_path(net, Path(1, (Traversal("e"),)))

    def test_closed_walk_allowed(self):
        net = make_network(
            ["s", "v"],
            [("a", "s", "v", 1, True), ("b", "v", "s", 1, True)],
            [("s", "s", 1)],
        )
        assert validate_path(net, Path(1, (Traversal("a"), Traversal("b")))) is None


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
        flow = Flow(system, ((0.2, 0.3),))
        assert edge_loads(flow) == pytest.approx({"e1": 0.2, "e2": 0.3, "e3": 0.3})

    def test_shared_edge_load(self, t1):
        flow = Flow(t1, ((0.3,), (0.2,)))
        assert edge_loads(flow) == pytest.approx({"e1": 0.5})

    def test_empty_flow_loads_zero(self, t1):
        flow = Flow.zero(t1)
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
        flow = Flow(system, ((0.4,), (0.4,)))
        assert edge_loads(flow) == pytest.approx({"e": 0.8})

    def test_closed_walk_counts_edge_once(self):
        # s -> v -> s over one undirected edge: the path uses e once.
        net = make_network(["s", "v"], [("e", "s", "v", 1.0, False)], [("s", "s", 1.0)])
        walk = Path(1, (Traversal("e", True), Traversal("e", False)))
        system = PathSystem(net, ((walk,),))
        assert edge_loads(Flow(system, ((0.4,),))) == {"e": 0.4}
        assert lp_mmfp_exact(system)[0] == 1.0
        assert flow_value(solve_mmfp(system, 0.1)) == pytest.approx(1.0, rel=0.1)
        assert lp_emcfpsc(system)[:2] == (1.0, 1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loads_match_summing_loop(self, seed):
        # Reference: the per-path loop; a matrix product may sum in another order.
        system = generate_instance(seed, 8, 14, 3, 6).path_system
        rng = np.random.default_rng(seed)
        flow = Flow(system, tuple(tuple(rng.random(len(g)).tolist()) for g in system.paths))
        expected = {}
        for group, vals in zip(system.paths, flow.values):
            for path, v in zip(group, vals):
                for eid in {step.edge_id for step in path.steps}:
                    expected[eid] = expected.get(eid, 0.0) + v
        assert edge_loads(flow) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_feasibility_boundary(self, t1):
        assert is_feasible(Flow(t1, ((1.0,), (0.0,))))

    def test_feasibility_violation_reported(self, t1):
        report = is_feasible(Flow(t1, ((1.0 + 1e-6,), (0.0,))))
        assert not report
        assert report.worst_edge == "e1"
        assert report.worst_excess == pytest.approx(1e-6)

    def test_two_half_paths_feasible(self, t1):
        assert is_feasible(Flow(t1, ((0.5,), (0.5,))))

    def test_values_zero_flow(self, t1):
        zero = Flow.zero(t1)
        assert flow_value(zero) == 0.0
        assert branch_values(zero) == (0.0, 0.0)

    def test_value_splits(self, t1):
        flow = Flow(t1, ((1 / 3,), (2 / 3,)))
        assert flow_value(flow) == pytest.approx(1.0)
        assert branch_value(flow, 1) == pytest.approx(1 / 3)
        assert branch_value(flow, 2) == pytest.approx(2 / 3)

    def test_two_paths_one_commodity(self, chain_net):
        system = make_system(chain_net, [[["e1"], ["e2", "e3"]]])
        flow = Flow(system, ((0.25, 0.75),))
        assert branch_value(flow, 1) == pytest.approx(1.0)

    def test_min_ratio_examples(self, t1):
        flow = Flow(t1, ((0.5,), (1.0,)))
        assert min_ratio(flow, (1.0, 2.0)) == pytest.approx(0.5)
        assert min_ratio(Flow.zero(t1)) == 0.0
        flow = Flow(t1, ((1 / 3,), (2 / 3,)))
        assert min_ratio(flow, (1.0, 2.0)) == pytest.approx(1 / 3)

    def test_min_ratio_uses_commodity_bounds(self, t1):
        flow = Flow(t1, ((0.5,), (0.5,)))
        assert min_ratio(flow) == pytest.approx(0.25)


class TestGroupedProblem:
    def test_keeps_paths_that_can_carry_flow(self):
        # The path over zero-capacity "z" and the switched-off group drop out;
        # edges follow first use among the kept paths only.
        caps = {"z": 0.0, "b": 1.0, "a": 2.0}
        problem = GroupedProblem.build(caps, [[("z", "b"), ("a", "b")], [("b",)]], [math.inf, 0])
        assert problem.bounds == (None, 0.0)
        assert problem.matrix.edges == ("a", "b")
        assert problem.keep.tolist() == [False, True, False]
        assert problem.result(np.array([0.5]), 3) == GroupedResult(
            ((0.0, 0.5), (0.0,)), (0.5, 0.0), 0.5, 3, 0.5
        )

    def test_compiled_paths_reused_only_with_their_own_snapshot(self):
        caps = {"a": 1.0, "b": 1.0}
        paths = GroupedPaths.build(caps, [[("a",), ("b",)]])
        caps["a"] = 0.0  # the caller's dict changes; the snapshot does not
        assert paths.capacities == {"a": 1.0, "b": 1.0}
        reused = GroupedProblem.build(paths.capacities, paths, None)
        assert reused.keep.tolist() == [True, True]
        assert GroupedProblem.build(paths.capacities, paths, [2.0]).matrix is reused.matrix
        assert GroupedProblem.build(caps, paths, None).keep.tolist() == [False, True]


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
        for p in paths:
            assert validate_path(net, p) is None


# --- randomized cross-check of validate_path against an independent walker ---


def brute_force_path_check(network, path):
    """Re-derive path validity from the raw rules, independent of validate_path."""
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
    assert (validate_path(net, path) is None) == brute_force_path_check(net, path)


# The two path checks as they stood before they became one lean pass each:
# two method calls per step, a separate pass for capacities, and a fresh
# Traversal per step. The current ones must give the same verdicts, the same
# first violation and the same steps.
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
    current = com.source
    sequence = [current]
    for pos, step in enumerate(path.steps, start=1):
        if not network.has_edge(step.edge_id):
            return f"unknown edge id {step.edge_id!r} at position {pos}"
        edge = network.edge(step.edge_id)
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
        if not network.edge(step.edge_id).capacity > 0.0:
            return f"zero-capacity edge {step.edge_id!r} at position {pos}"
    return None


def reference_infer_traversals(network: Network, source: str, edge_ids: list[str] | tuple[str, ...]) -> tuple[Traversal, ...]:
    """Orient a raw edge-id sequence by chaining nodes from ``source``.

    Directed edges must depart from their tail; an undirected edge is
    oriented away from the current node. Raises ``ModelError`` with a
    1-based position when the sequence does not chain.
    """
    current = source
    steps: list[Traversal] = []
    for pos, edge_id in enumerate(edge_ids, start=1):
        if not network.has_edge(edge_id):
            raise ModelError(f"unknown edge id {edge_id!r} at position {pos}")
        edge = network.edge(edge_id)
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
    assert validate_path(net, path) == reference_validate_path(net, path)


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
    vals = tuple(
        tuple(draw(st.floats(min_value=0.0, max_value=2.0)) for _ in group)
        for group in system.paths
    )
    return Flow(system, vals)


@settings(max_examples=200, deadline=None)
@given(random_flow())
def test_total_value_matches_branch_sum(flow):
    assert abs(flow_value(flow) - sum(branch_values(flow))) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(random_flow())
def test_min_ratio_bounds_every_commodity(flow):
    bounds = flow.system.network.bounds()
    ratios = [branch_value(flow, i + 1) / bounds[i] for i in range(flow.system.k)]
    value = min_ratio(flow)
    assert all(value <= r for r in ratios)
    assert any(value == r for r in ratios)
