"""Network model for capacitated hybrid graphs with explicit path systems.

A network couples a hybrid graph (every edge is individually directed or
undirected) with per-edge capacities and a list of source/sink commodities.
Flows live directly on explicit per-commodity path lists: a flow assigns a
nonnegative value to each listed path, and an edge is feasible when the gross
sum of the values of all paths using it stays within its capacity.

A path system compiles once, into ``PathSystem.grouped``: ``GroupedPaths``
walks the edge keys once and lays out each live-group mask's ``PathMatrix``
(the edge-by-path incidence) from integer step rows. ``GroupedProblem`` is
the one reader of the grouped path input both bounded-flow engines take, and
lays their results back out; given a ``GroupedPaths`` with its own
``capacities``, a call checks only its bounds and reuses those columns.

Everything in this module is immutable after construction and safe to share
across threads (``GroupedPaths`` only fills a cache of equal values); the
operations are pure functions.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, islice
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

# Absolute slack allowed on every capacity comparison.
CAP_TOLERANCE = 1e-9


class ModelError(ValueError):
    """A network, path system, or flow violates a structural rule."""


class PathRuleError(ModelError):
    """A listed path breaks a path-system rule.

    ``commodity`` (1-based) and ``index`` (0-based, within the commodity's
    list) locate the path, so a parser can name its line.
    """

    def __init__(self, message: str, commodity: int, index: int):
        super().__init__(message)
        self.commodity = commodity
        self.index = index


@dataclass(frozen=True)
class Edge:
    """One capacitated edge; ``directed`` fixes the usable orientation."""

    id: str
    tail: str
    head: str
    capacity: float
    directed: bool

    def __post_init__(self) -> None:
        if not (math.isfinite(self.capacity) and self.capacity >= 0.0):
            raise ModelError(
                f"edge {self.id!r}: capacity must be >= 0 and finite, got {self.capacity}"
            )


@dataclass(frozen=True)
class Commodity:
    """A source/sink pair with a positive demand bound."""

    index: int  # 1-based position in the network's commodity list
    source: str
    sink: str
    bound: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bound) and self.bound > 0.0):
            raise ModelError(
                f"commodity {self.index}: bound must be positive and finite, got {self.bound}"
            )


@dataclass(frozen=True)
class Network:
    """Hybrid graph, capacities, and commodity list.

    Invariants enforced here: node and edge identifiers are unique, every
    edge endpoint and commodity endpoint names an existing node, and every
    capacity is finite and nonnegative.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    commodities: tuple[Commodity, ...]
    _edge_map: dict[str, Edge] = field(init=False, repr=False, compare=False)
    # Per edge id: (tail, head, directed, its forward and backward Traversal),
    # so infer_traversals reads plain tuples and every path of this network
    # shares one step object per edge and direction.
    _walks: dict[str, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        node_set = set()
        for node in self.nodes:
            if node in node_set:
                raise ModelError(f"duplicate node id {node!r}")
            node_set.add(node)
        edge_map: dict[str, Edge] = {}
        for edge in self.edges:
            if edge.id in edge_map:
                raise ModelError(f"duplicate edge id {edge.id!r}")
            for endpoint in (edge.tail, edge.head):
                if endpoint not in node_set:
                    raise ModelError(f"edge {edge.id!r}: unknown node {endpoint!r}")
            edge_map[edge.id] = edge
        for pos, com in enumerate(self.commodities, start=1):
            if com.index != pos:
                raise ModelError(
                    f"commodity at position {pos} carries index {com.index}"
                )
            for endpoint in (com.source, com.sink):
                if endpoint not in node_set:
                    raise ModelError(f"commodity {com.index}: unknown node {endpoint!r}")
        object.__setattr__(self, "_edge_map", edge_map)
        object.__setattr__(self, "_walks", {
            e.id: (e.tail, e.head, e.directed, Traversal(e.id, True), Traversal(e.id, False))
            for e in self.edges
        })

    @property
    def k(self) -> int:
        return len(self.commodities)

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_map[edge_id]
        except KeyError:
            raise ModelError(f"unknown edge id {edge_id!r}") from None

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._edge_map

    def bounds(self) -> tuple[float, ...]:
        return tuple(c.bound for c in self.commodities)


class Traversal(NamedTuple):
    """One step along a path: an edge plus the direction it is walked in.

    ``forward`` means tail-to-head; undirected edges may be walked either
    way, directed edges only forward. A named tuple, so hashing and
    comparing paths of steps runs in C; it equals the plain tuple
    ``(edge_id, forward)``.
    """

    edge_id: str
    forward: bool = True


@dataclass(frozen=True)
class Path:
    """An explicit walk for one commodity, stored as oriented edge steps."""

    commodity: int
    steps: tuple[Traversal, ...]

    def edge_ids(self) -> tuple[str, ...]:
        # Indexed, not ``.edge_id``: a plain ``(edge_id, forward)`` step validates too.
        return tuple([step[0] for step in self.steps])


def validate_path(network: Network, path: Path) -> str | None:
    """Check every path rule; return ``None`` when valid, else the first violation.

    Rules, in checking order: the commodity index exists; every step names a
    known edge walked in a legal direction that chains onto the previous
    step (positions are 1-based in messages); the walk runs source to sink;
    all nodes are pairwise distinct except that source may equal sink; every
    edge has positive capacity. One pass over the steps collects what the
    later rules need.
    """
    if not 1 <= path.commodity <= len(network.commodities):
        return f"unknown commodity index {path.commodity}"
    com = network.commodities[path.commodity - 1]
    if not path.steps:
        return "empty path"
    edges = network._edge_map
    current = com.source
    sequence = [current]
    zero = None  # the first zero-capacity step, reported only if all else holds
    for pos, (edge_id, forward) in enumerate(path.steps, start=1):
        edge = edges.get(edge_id)
        if edge is None:
            return f"unknown edge id {edge_id!r} at position {pos}"
        if forward:
            start, end = edge.tail, edge.head
        elif edge.directed:
            return f"directed edge {edge_id!r} walked backwards at position {pos}"
        else:
            start, end = edge.head, edge.tail
        if start != current:
            return f"broken chain at position {pos}"
        current = end
        sequence.append(end)
        if zero is None and not edge.capacity > 0.0:
            zero = f"zero-capacity edge {edge_id!r} at position {pos}"
    if current != com.sink:
        return f"path ends at {current!r}, expected sink {com.sink!r}"
    # All nodes pairwise distinct, except the first and last may coincide.
    if len(set(sequence)) != len(sequence) - (sequence[0] == current):
        return "repeated node on path"
    return zero


def infer_traversals(network: Network, source: str, edge_ids: list[str] | tuple[str, ...]) -> tuple[Traversal, ...]:
    """Orient a raw edge-id sequence by chaining nodes from ``source``.

    Directed edges must depart from their tail; an undirected edge is
    oriented away from the current node. Raises ``ModelError`` with a
    1-based position when the sequence does not chain. The steps are the
    network's shared ``Traversal`` objects.
    """
    walks = network._walks
    current = source
    steps: list[Traversal] = []
    for pos, edge_id in enumerate(edge_ids, start=1):
        walk = walks.get(edge_id)
        if walk is None:
            raise ModelError(f"unknown edge id {edge_id!r} at position {pos}")
        tail, head, directed, forward, backward = walk
        if tail == current:
            steps.append(forward)
            current = head
        elif not directed and head == current:
            steps.append(backward)
            current = tail
        else:
            raise ModelError(f"broken chain at position {pos}")
    return tuple(steps)


@dataclass(frozen=True, eq=False)
class PathMatrix:
    """0/1 incidence of grouped paths: the one layout every LP and loop reads.

    Columns are the kept paths in group order. ``a`` has one row per edge key
    in ``edges`` (first use along their steps) with capacities ``caps``; ``g``
    has one row per group. A path that walks an edge twice still counts it
    once. A read-only record that only ``GroupedPaths.columns`` creates.
    """

    edges: tuple[Hashable, ...]
    caps: np.ndarray
    a: np.ndarray  # edges x paths, C order
    g: np.ndarray  # groups x paths


@dataclass(frozen=True)
class GroupedResult:
    """Per-path values in the input's group layout, with their sums.

    ``iterations`` counts simplex pivots for the exact LP and loop steps for
    the packing approximation. ``upper`` is a proven upper bound on the
    optimum: the total itself for the exact LP, the final dual bound for
    packing.
    """

    values: tuple[tuple[float, ...], ...]
    group_totals: tuple[float, ...]
    total: float
    iterations: int
    upper: float


@dataclass(frozen=True, eq=False)
class GroupedPaths(Sequence):
    """Grouped paths compiled once over a snapshot of their capacities.

    A search asks the same question about one path system with changing
    bounds only, so it passes one of these as the ``groups`` of every engine
    call, with ``capacities`` (a read-only snapshot) beside it. Building is
    the one walk over the edge keys: it numbers the used ``edges`` (with
    ``caps``) in first use, keeps every path's step ``rows`` (``lengths``
    steps each), and checks every path, switched-off groups included: none
    is empty, and every edge has a finite, nonnegative capacity entry.
    ``usable`` marks the paths that cross no zero-capacity edge (``None``
    when all do). Each live-group mask's columns are laid out on first use.
    """

    capacities: Mapping[Hashable, float]
    groups: tuple[tuple[tuple[Hashable, ...], ...], ...]
    sizes: tuple[int, ...]
    edges: tuple[Hashable, ...]
    caps: np.ndarray
    rows: np.ndarray
    lengths: np.ndarray
    usable: np.ndarray | None
    _columns: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def build(
        cls,
        capacities: Mapping[Hashable, float],
        groups: Sequence[Sequence[Sequence[Hashable]]],
    ) -> "GroupedPaths":
        groups = tuple(tuple(map(tuple, group)) for group in groups)
        for g, group in enumerate(groups):
            if not all(map(len, group)):
                raise ValueError(f"empty path ({g}, {list(map(len, group)).index(0)})")
        paths = list(chain.from_iterable(groups))
        lengths = np.fromiter(map(len, paths), int, len(paths))
        row_of = defaultdict(count().__next__)  # an unseen key takes the next row
        rows = np.fromiter(map(row_of.__getitem__, chain.from_iterable(paths)), int, lengths.sum())
        edges = tuple(row_of)
        try:
            caps = [capacities[key] for key in edges]
        except KeyError as exc:
            raise ValueError(f"path uses edge {exc.args[0]!r} with no capacity entry") from None
        for key, cap in zip(edges, caps):
            if not (math.isfinite(cap) and cap >= 0):
                raise ValueError(f"edge {key!r} has capacity {cap}, not finite and >= 0")
        cap_arr = np.array(caps, dtype=float)
        usable = None
        if 0 in caps:
            usable = np.ones(lengths.size, dtype=bool)
            usable[np.repeat(np.arange(lengths.size), lengths)[cap_arr[rows] == 0]] = False
        for arr in (cap_arr, rows, lengths):
            arr.flags.writeable = False
        snapshot = MappingProxyType(dict(capacities))
        return cls(snapshot, groups, tuple(map(len, groups)), edges, cap_arr, rows, lengths, usable)

    def __getitem__(self, index):
        return self.groups[index]

    def __len__(self) -> int:
        return len(self.groups)

    def columns(self, live: tuple[bool, ...]) -> tuple[PathMatrix, np.ndarray]:
        """The incidence over the kept paths of the live groups, and ``keep``."""
        cached = self._columns.get(live)
        if cached is None:
            keep = np.repeat(np.array(live, dtype=bool), self.sizes)
            if self.usable is not None:
                keep &= self.usable
            lengths = self.lengths[keep]
            rows = self.rows[np.repeat(keep, self.lengths)]
            # Edges in first use among the kept steps; unused ones sort last.
            first = np.full(len(self.edges), rows.size)
            np.minimum.at(first, rows, np.arange(rows.size))
            used = first.argsort()[: np.count_nonzero(first < rows.size)]
            a = np.zeros((len(self.edges), lengths.size))
            # Assignment, not a sum: a path that repeats an edge counts it once.
            a[rows, np.repeat(np.arange(lengths.size), lengths)] = 1.0
            a, caps = a[used], self.caps[used]
            g = np.eye(len(self.sizes)).repeat(self.sizes, axis=1).compress(keep, axis=1)
            for arr in (caps, a, g, keep):
                arr.flags.writeable = False  # shared by every call on this mask
            matrix = PathMatrix(tuple(map(self.edges.__getitem__, used.tolist())), caps, a, g)
            cached = self._columns[live] = (matrix, keep)
        return cached


@dataclass(frozen=True, eq=False)
class GroupedProblem:
    """Checked grouped path input, compiled to the columns that can carry flow.

    ``bounds`` holds one cap per group: ``None`` for unbounded (given as
    ``None`` or ``+inf``), 0 for a group switched off; a NaN or negative
    bound is rejected. A path is kept when its group is on and it crosses no
    zero-capacity edge. ``matrix`` covers only the kept paths, in input
    order (so its edges follow their first use among them), and ``keep``
    marks them among all input paths.
    """

    matrix: PathMatrix
    bounds: tuple[float | None, ...]
    keep: np.ndarray
    sizes: tuple[int, ...]

    @classmethod
    def build(
        cls,
        capacities: Mapping[Hashable, float],
        groups: Sequence[Sequence[Sequence[Hashable]]],
        bounds: Sequence[float | None] | None,
    ) -> "GroupedProblem":
        """Read one engine call's input.

        ``groups`` built as ``GroupedPaths`` over this very ``capacities``
        mapping is reused; any other input is checked and compiled afresh.
        """
        if bounds is None:
            bounds = [None] * len(groups)
        if len(bounds) != len(groups):
            raise ValueError("bounds length does not match the group count")
        checked: list[float | None] = []
        for g, bound in enumerate(bounds):
            if bound is not None:
                if math.isnan(bound):
                    raise ValueError(f"NaN bound for group {g}")
                if bound < 0:
                    raise ValueError(f"negative bound {bound} for group {g}")
                bound = None if math.isinf(bound) else float(bound)
            checked.append(bound)
        if not (isinstance(groups, GroupedPaths) and groups.capacities is capacities):
            groups = GroupedPaths.build(capacities, groups)
        matrix, keep = groups.columns(tuple(bound != 0 for bound in checked))
        return cls(matrix, tuple(checked), keep, groups.sizes)

    def result(
        self, x: Sequence[float], iterations: int, upper: float | None = None
    ) -> GroupedResult:
        """Values ``x`` of the kept columns, laid out over all input paths.

        ``upper`` defaults to the total, for an engine that solves exactly.
        """
        dense = np.zeros(self.keep.size)
        dense[self.keep] = x
        flat = iter(dense.tolist())
        values = tuple(tuple(islice(flat, size)) for size in self.sizes)
        group_totals = tuple(float(sum(row)) for row in values)
        total = float(sum(group_totals))
        upper = total if upper is None else upper
        return GroupedResult(values, group_totals, total, iterations, upper)


@dataclass(frozen=True)
class PathSystem:
    """Per-commodity explicit path lists over one network.

    Every listed path must validate and paths are distinct within their
    commodity. Commodities may carry empty lists. A path that breaks a rule
    raises ``PathRuleError``, which locates it. A step may be a ``Traversal``
    or the plain tuple it equals. The system compiles once, into
    ``grouped``; ``matrix``, ``capacities()`` and ``edge_groups()`` read it.
    """

    network: Network
    paths: tuple[tuple[Path, ...], ...]

    def __post_init__(self) -> None:
        if len(self.paths) != self.network.k:
            raise ModelError(
                f"path system lists {len(self.paths)} commodities, network has {self.network.k}"
            )
        network = self.network
        for i, group in enumerate(self.paths, start=1):
            seen = set()
            for j, path in enumerate(group):
                if path.commodity != i:
                    raise PathRuleError(
                        f"path filed under commodity {i} carries index {path.commodity}", i, j
                    )
                violation = validate_path(network, path)
                if violation is not None:
                    raise PathRuleError(f"commodity {i}: invalid path ({violation})", i, j)
                if path.steps in seen:
                    raise PathRuleError(f"commodity {i}: duplicate path {path.edge_ids()}", i, j)
                seen.add(path.steps)

    @property
    def k(self) -> int:
        return len(self.paths)

    @property
    def path_count(self) -> int:
        return sum(len(group) for group in self.paths)

    @cached_property
    def grouped(self) -> GroupedPaths:
        """The paths as edge-id groups, compiled once, on first use.

        The capacity snapshot holds every network edge.
        """
        groups = [[path.edge_ids() for path in group] for group in self.paths]
        return GroupedPaths.build({e.id: float(e.capacity) for e in self.network.edges}, groups)

    @property
    def matrix(self) -> PathMatrix:
        """Incidence over the edges the paths use: ``grouped``'s all-groups columns."""
        return self.grouped.columns((True,) * self.k)[0]

    def capacities(self) -> dict[str, float]:
        """A fresh dict of the capacities of the edges the paths use, in first-use order."""
        return dict(zip(self.grouped.edges, self.grouped.caps.tolist()))

    def edge_groups(self) -> tuple[tuple[tuple[str, ...], ...], ...]:
        """Paths as plain edge-id tuples, grouped by commodity (solver input)."""
        return self.grouped.groups


@dataclass(frozen=True)
class Flow:
    """Nonnegative value per path of a path system; missing paths carry 0."""

    system: PathSystem
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.system.k:
            raise ModelError("flow value groups do not match the path system")
        for group, vals in zip(self.system.paths, self.values):
            if len(group) != len(vals):
                raise ModelError("flow values do not match the path list")
            for v in vals:
                if not v >= 0.0:
                    raise ModelError(f"negative path value {v}")

    @classmethod
    def zero(cls, system: PathSystem) -> "Flow":
        return cls(system, tuple(tuple(0.0 for _ in group) for group in system.paths))


def _load_vector(flow: Flow) -> np.ndarray:
    x = np.fromiter((v for vals in flow.values for v in vals), float, flow.system.path_count)
    return flow.system.matrix.a @ x


def edge_loads(flow: Flow) -> dict[str, float]:
    """Gross load per edge of the path system, in first-use order.

    A load is the sum of the values of all paths using the edge. A path
    counts once even if it walks an undirected edge in both directions;
    traversal direction never enters the sum.
    """
    return dict(zip(flow.system.matrix.edges, _load_vector(flow).tolist()))


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    worst_edge: str | None
    worst_excess: float

    def __bool__(self) -> bool:
        return self.feasible


def is_feasible(flow: Flow) -> FeasibilityReport:
    """Capacity check with ``CAP_TOLERANCE`` slack; reports the worst edge."""
    matrix = flow.system.matrix
    if not matrix.edges:
        return FeasibilityReport(True, None, 0.0)
    excess = _load_vector(flow) - matrix.caps
    worst = int(np.argmax(excess))
    return FeasibilityReport(
        bool(excess[worst] <= CAP_TOLERANCE), matrix.edges[worst], float(excess[worst])
    )


def branch_value(flow: Flow, commodity_index: int) -> float:
    """Total value routed for one commodity, summed in path order."""
    total = 0.0
    for v in flow.values[commodity_index - 1]:
        total += v
    return total


def branch_values(flow: Flow) -> tuple[float, ...]:
    return tuple(branch_value(flow, i) for i in range(1, flow.system.k + 1))


def flow_value(flow: Flow) -> float:
    """Total flow value: the sum of all branch values, in commodity order."""
    total = 0.0
    for i in range(1, flow.system.k + 1):
        total += branch_value(flow, i)
    return total


def min_ratio(flow: Flow, bounds: tuple[float, ...] | list[float] | None = None) -> float:
    """Worst per-commodity service ratio ``min_i V_i / b_i``."""
    if bounds is None:
        bounds = flow.system.network.bounds()
    if len(bounds) != flow.system.k:
        raise ModelError("bounds length does not match the commodity count")
    if flow.system.k == 0:
        raise ModelError("min_ratio needs at least one commodity")
    for b in bounds:
        if not b > 0.0:
            raise ModelError(f"bound must be positive, got {b}")
    return min(branch_value(flow, i + 1) / bounds[i] for i in range(flow.system.k))


def enumerate_paths(
    network: Network, commodity: Commodity, max_edges: int, limit: int | None = None
) -> list[Path]:
    """All simple source-to-sink paths with at most ``max_edges`` edges.

    Only positive-capacity edges are walked; directed edges only forward.
    The result is ordered lexicographically by edge-id sequence, which the
    depth-first search (on an explicit stack, so no path length meets the
    recursion limit) yields directly by trying edges in id order, so
    ``limit`` stops the search once that many paths are found and returns
    the first ``limit`` paths of the full list. A source equal to the sink
    enumerates closed walks.
    """
    if max_edges < 1:
        raise ValueError(f"max_edges must be >= 1, got {max_edges}")
    for endpoint in (commodity.source, commodity.sink):
        if endpoint not in network.nodes:
            raise ModelError(f"node {endpoint!r} not in network")

    # Candidate steps per node, in edge-id order (one entry per usable direction).
    adjacency: dict[str, list[tuple[str, bool, str]]] = {n: [] for n in network.nodes}
    for edge in sorted(network.edges, key=lambda e: e.id):
        if not edge.capacity > 0.0:
            continue
        adjacency[edge.tail].append((edge.id, True, edge.head))
        if not edge.directed and edge.head != edge.tail:
            adjacency[edge.head].append((edge.id, False, edge.tail))
    for steps in adjacency.values():
        steps.sort(key=lambda item: item[0])

    source, sink = commodity.source, commodity.sink
    found: list[Path] = []
    prefix: list[Traversal] = []
    visited = {source}
    # One frame per node on the current prefix: the node and its untried steps.
    stack = [(source, iter(adjacency[source]))]
    while stack:
        for edge_id, forward, nxt in stack[-1][1]:
            if len(found) == limit:
                return found
            if nxt == sink and (nxt not in visited or sink == source):
                found.append(Path(commodity.index, (*prefix, Traversal(edge_id, forward))))
                continue
            # A prefix of max_edges steps takes no further step.
            if nxt in visited or len(stack) == max_edges:
                continue
            prefix.append(Traversal(edge_id, forward))
            visited.add(nxt)
            stack.append((nxt, iter(adjacency[nxt])))
            break
        else:
            node, _ = stack.pop()
            if stack:
                visited.remove(node)
                prefix.pop()
    return found
