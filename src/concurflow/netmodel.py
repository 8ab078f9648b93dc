"""Network model for capacitated hybrid graphs with explicit path systems.

A network couples a hybrid graph (every edge is individually directed or
undirected) with per-edge capacities and a list of source/sink commodities.
Flows live directly on explicit per-commodity path lists: a flow assigns a
nonnegative value to each listed path, and an edge's load, the gross sum of
the values of all paths using it, is checked by ``compare.capacity_slack``.

A path system is checked in one walk over each path: ``PathSystem``
orients a path given as raw edge ids, applies every path rule and records
each step's edge number. It compiles once, into ``PathSystem.grouped``, over
those numbers; ``GroupedPaths`` lays out each live-group mask's
``PathMatrix`` (the edge-by-path incidence) from integer step rows, and
``GroupedPaths.build`` compiles grouped edge keys, in one walk over the
keys. ``GroupedProblem`` is the one reader of the input both bounded-flow
engines take: a ``GroupedPaths`` beside its own ``capacities`` view, whose
columns a call reuses, checking only its bounds, where ``None`` is the one
spelling of unbounded. It builds the one bounded LP both engines solve, the
exact engine by simplex and the packing engine by its loop, and lays each
result out as one flat array over every input path: the ``x`` a ``Flow``
holds.

Everything in this module is immutable after construction and safe to share
across threads; the operations are pure functions. ``GroupedPaths`` builds
its ``capacities`` view with its arrays and fills caches, each entry set
once to a value any caller would have computed: the layouts, and the rows
of each bound pattern's LP. The exact engine's pivot paths over those rows
grow with each new right-hand side, one finished branch per
``dict.setdefault``, up to a fixed number of rounds, and a replayed solve
gives the bits of a cold one, so no result depends on which calls came
first.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, islice
from numbers import Real
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .simplex import RowBlocks, left_sum

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
    # Per edge id: (tail, head, directed, its forward and backward Traversal,
    # its position in ``edges``), so the path walks read plain tuples and
    # every path of this network shares one step object per edge and direction.
    _walks: dict[str, tuple] = field(init=False, repr=False, compare=False)
    # Positions in ``edges`` of the edges without positive capacity.
    _zero: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        node_set = set()
        for node in self.nodes:
            if node in node_set:
                raise ModelError(f"duplicate node id {node!r}")
            node_set.add(node)
        walks: dict[str, tuple] = {}
        for n, edge in enumerate(self.edges):
            if edge.id in walks:
                raise ModelError(f"duplicate edge id {edge.id!r}")
            for endpoint in (edge.tail, edge.head):
                if endpoint not in node_set:
                    raise ModelError(f"edge {edge.id!r}: unknown node {endpoint!r}")
            forward, backward = Traversal(edge.id, True), Traversal(edge.id, False)
            walks[edge.id] = (edge.tail, edge.head, edge.directed, forward, backward, n)
        for pos, com in enumerate(self.commodities, start=1):
            if com.index != pos:
                raise ModelError(
                    f"commodity at position {pos} carries index {com.index}"
                )
            for endpoint in (com.source, com.sink):
                if endpoint not in node_set:
                    raise ModelError(f"commodity {com.index}: unknown node {endpoint!r}")
        object.__setattr__(self, "_walks", walks)
        object.__setattr__(self, "_zero", frozenset(
            n for n, e in enumerate(self.edges) if not e.capacity > 0.0
        ))

    @property
    def k(self) -> int:
        return len(self.commodities)

    def edge(self, edge_id: str) -> Edge:
        try:
            return self.edges[self._walks[edge_id][5]]
        except KeyError:
            raise ModelError(f"unknown edge id {edge_id!r}") from None

    def bounds(self) -> tuple[float, ...]:
        return tuple(c.bound for c in self.commodities)

    @cached_property
    def _moves(self) -> dict[str, dict[str, tuple]]:
        """Per node and edge id leaving it: (the node it reaches, the step, the edge's position).

        Built once, on first use. The steps are the shared ``Traversal``
        objects of ``_walks``; a loop is walked forward.
        """
        moves: dict[str, dict[str, tuple]] = {node: {} for node in self.nodes}
        for tail, head, directed, forward, backward, n in self._walks.values():
            moves[tail][forward.edge_id] = (head, forward, n)
            if not directed and head != tail:
                moves[head][forward.edge_id] = (tail, backward, n)
        return moves


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


def _walk(
    network: Network,
    source: str,
    sink: str | None,
    steps: Sequence,
    moves: dict[str, dict[str, tuple]] | None,
    rows: list[int],
) -> tuple[str | None, tuple]:
    """Check a path's steps from ``source`` to ``sink`` in one walk.

    Without ``moves`` the steps are ``(edge_id, forward)`` pairs: each must
    be such a pair, not a string, and name a known edge, walked in a legal
    direction, that chains onto the previous step. With the network's
    ``_moves`` they are raw edge ids, each oriented away from the
    current node (a directed edge only from its tail). Then, unless ``sink``
    is None, come the whole path's rules, in ``PathSystem``'s order. Appends
    each step's position in ``network.edges`` to ``rows``. Returns the first
    violation (``None`` if none; positions are 1-based) and the oriented steps,
    the network's shared ``Traversal`` objects, a loop's walked forward.
    """
    first = len(rows)
    current = source
    nodes = [current]
    visit, record = nodes.append, rows.append  # bound once: the loops run per step
    walks = network._walks
    taken = []
    take = taken.append
    if moves is None:
        step, text = None, str
        try:
            for step in steps:
                if step.__class__ is text:  # a raw id: unpacking would split it into characters
                    raise TypeError
                edge_id, forward = step
                walk = walks.get(edge_id)
                if walk is None:
                    return f"unknown edge id {edge_id!r} at position {len(nodes)}", steps
                start, end, directed, ahead, back, number = walk
                if not forward:
                    if directed:
                        return f"directed edge {edge_id!r} walked backwards at position {len(nodes)}", steps
                    if start != end:  # a loop is stored forward, as ``_moves`` walks it
                        start, end, ahead = end, start, back
                if start != current:
                    return f"broken chain at position {len(nodes)}", steps
                current = end
                take(ahead)
                visit(end)
                record(number)
        except (TypeError, ValueError):  # the step is no (edge_id, forward) pair
            return f"step {step!r} at position {len(nodes)} is not an (edge_id, forward) pair", steps
    else:
        try:
            for edge_id in steps:
                current, step, number = moves[current][edge_id]
                take(step)
                visit(current)
                record(number)
        except KeyError:  # no such edge leaves the current node, or no such node
            if edge_id in walks:
                return f"broken chain at position {len(nodes)}", steps
            return f"unknown edge id {edge_id!r} at position {len(nodes)}", steps
    steps = tuple(taken)
    if sink is None:
        return None, steps
    if not steps:
        return "empty path", steps
    if current != sink:
        return f"path ends at {current!r}, expected sink {sink!r}", steps
    # All nodes pairwise distinct, except the first and last may coincide.
    if len(set(nodes)) != len(nodes) - (source == current):
        return "repeated node on path", steps
    zero = network._zero
    if zero and not zero.isdisjoint(rows[first:]):
        for pos, number in enumerate(rows[first:], start=1):
            if number in zero:
                return f"zero-capacity edge {network.edges[number].id!r} at position {pos}", steps
    return None, steps


def infer_traversals(network: Network, source: str, edge_ids: list[str] | tuple[str, ...]) -> tuple[Traversal, ...]:
    """Orient a raw edge-id sequence by chaining nodes from ``source``.

    Directed edges must depart from their tail; an undirected edge is
    oriented away from the current node. Raises ``ModelError`` with a
    1-based position when the sequence does not chain. The steps are the
    network's shared ``Traversal`` objects.
    """
    violation, steps = _walk(network, source, None, edge_ids, network._moves, [])
    if violation is not None:
        raise ModelError(violation)
    return steps


def _first_use(rows: np.ndarray, count: int) -> np.ndarray:
    """The numbers in ``range(count)`` that ``rows`` holds, in order of first use."""
    first = np.full(count, rows.size)
    np.minimum.at(first, rows, np.arange(rows.size))
    return first.argsort()[: np.count_nonzero(first < rows.size)]


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


@dataclass(frozen=True, eq=False)
class GroupedResult:
    """Per-path values over every input path, in group order, with their total.

    ``x`` is read-only and holds 0.0 for each dropped path; ``total`` sums
    each group's values in order, then the group sums. ``iterations`` counts
    simplex pivots for the exact LP and loop steps for the packing
    approximation. ``upper`` is a proven upper bound on the optimum: the
    total itself for the exact LP; for packing, the final dual bound, or
    the bounds' sum when a fully bounded run ends within ``1+eps`` of it.
    """

    x: np.ndarray
    total: float
    iterations: int
    upper: float


@dataclass(frozen=True, eq=False)
class GroupedPaths:
    """Grouped paths compiled once, with their edges' capacities.

    A search asks the same question about one path system with changing
    bounds only, so it passes one of these as the ``groups`` of every engine
    call, with its ``capacities`` beside it: ``caps`` by edge key, read-only,
    the one mapping the engines accept beside these paths. The paths are
    integer step ``rows`` into ``edges``, ``lengths`` steps per path and
    ``sizes`` paths per group, and ``caps`` holds each edge's capacity, finite
    and nonnegative; construction makes the arrays read-only and builds
    ``capacities``. ``build`` numbers grouped edge keys in one walk, where no
    path may be empty and every capacity must be a real number. Each
    live-group mask's columns are laid out on first use, and each bound
    pattern's LP rows, with the exact engine's recorded pivot paths, in ``lps``.
    """

    sizes: tuple[int, ...]
    edges: tuple[Hashable, ...]
    caps: np.ndarray
    rows: np.ndarray
    lengths: np.ndarray
    capacities: Mapping[Hashable, float] = field(init=False, repr=False)
    _columns: dict = field(default_factory=dict, init=False, repr=False)
    lps: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        caps = self.caps.tolist()
        for key, cap in zip(self.edges, caps):
            if not (math.isfinite(cap) and cap >= 0):
                raise ValueError(f"edge {key!r} has capacity {cap}, not finite and >= 0")
        for arr in (self.caps, self.rows, self.lengths):
            arr.flags.writeable = False
        object.__setattr__(self, "capacities", MappingProxyType(dict(zip(self.edges, caps))))

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
        try:
            caps = [capacities[key] for key in row_of]
        except KeyError as exc:
            raise ValueError(f"path uses edge {exc.args[0]!r} with no capacity entry") from None
        for key, cap in zip(row_of, caps):
            if not isinstance(cap, Real):  # NumPy would read the string "1.5" as 1.5
                raise TypeError(f"edge {key!r} has capacity {cap!r}, not a real number")
        return cls(tuple(map(len, groups)), tuple(row_of), np.array(caps, dtype=float), rows, lengths)

    def __len__(self) -> int:
        return len(self.sizes)

    def columns(self, live: tuple[bool, ...]) -> tuple[PathMatrix, np.ndarray]:
        """The incidence over the kept paths of the live groups, and ``keep``."""
        cached = self._columns.get(live)
        if cached is None:
            keep = np.repeat(np.array(live, dtype=bool), self.sizes)
            if not self.caps.all():  # drop the paths over a zero-capacity edge
                path_of = np.repeat(np.arange(keep.size), self.lengths)
                keep[path_of[self.caps[self.rows] == 0]] = False
            lengths = self.lengths[keep]
            rows = self.rows[np.repeat(keep, self.lengths)]
            used = _first_use(rows, len(self.edges))
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
    """Checked grouped path input, compiled to the bounded LP of its kept paths.

    A call's bounds hold one cap per group: ``None`` for unbounded, 0 for a
    group switched off; a NaN, negative or infinite bound is rejected, so
    ``None`` is the one spelling of unbounded. A path is kept when its group
    is on and it crosses no zero-capacity edge. ``matrix`` covers only the
    kept paths, in input order (so its edges follow their first use among
    them), and ``keep`` marks them among all input paths. ``paths`` is the
    compiled input the columns come from.

    Both engines maximize the total over the kept paths subject to
    ``rows``, ``(coeffs, "<=", rhs)`` triples: one per row of ``matrix.a``
    with its capacity, then the ``g`` row of each group with a positive
    finite bound that keeps a path, with that bound. A group with no kept
    path gets no row. ``blocks`` stacks the same coefficients: ``matrix.a``
    itself, then those ``g`` rows. Each pattern of off, unbounded and
    bounded groups builds its blocks and edge rows once, in ``paths.lps``.
    """

    paths: GroupedPaths
    matrix: PathMatrix
    keep: np.ndarray
    rows: list[tuple[np.ndarray, str, float]]
    blocks: RowBlocks

    @classmethod
    def build(
        cls,
        capacities: Mapping[Hashable, float],
        groups: Sequence[Sequence[Sequence[Hashable]]],
        bounds: Sequence[float | None] | None,
    ) -> "GroupedProblem":
        """Read one engine call's input.

        ``groups`` must be a ``GroupedPaths``, or ``TypeError`` is raised,
        and ``capacities`` its own ``capacities`` view, or ``ValueError``.
        """
        if not isinstance(groups, GroupedPaths):
            raise TypeError(f"engine groups must be compiled with GroupedPaths.build, not a {type(groups).__name__}")
        if groups.capacities is not capacities:
            raise ValueError("a GroupedPaths must come with its own capacities snapshot")
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
                if bound == math.inf:
                    raise ValueError(f"infinite bound for group {g}; None means unbounded")
                bound = float(bound)
            checked.append(bound)
        matrix, keep = groups.columns(tuple(bound != 0 for bound in checked))
        pattern = tuple(None if bound is None else bound > 0 for bound in checked)
        lp = groups.lps.get(pattern)
        if lp is None:
            has_path = matrix.g.any(axis=1).tolist()
            bounded = [i for i, on in enumerate(pattern) if on and has_path[i]]
            group_rows = matrix.g[bounded]
            group_rows.flags.writeable = False
            edge_rows = [(coeffs, "<=", cap) for coeffs, cap in zip(matrix.a, matrix.caps.tolist())]
            lp = (edge_rows, tuple(zip(bounded, group_rows)), RowBlocks((matrix.a, group_rows)))
            lp = groups.lps.setdefault(pattern, lp)
        edge_rows, bound_rows, blocks = lp
        rows = edge_rows + [(coeffs, "<=", checked[i]) for i, coeffs in bound_rows]
        return cls(groups, matrix, keep, rows, blocks)

    def result(
        self, values: Sequence[float], iterations: int, upper: float | None = None
    ) -> GroupedResult:
        """``values`` of the kept columns, laid out over all input paths.

        ``upper`` defaults to the total, for an engine that solves exactly.
        """
        x = np.zeros(self.keep.size)
        x[self.keep] = values
        x.flags.writeable = False
        total = float(left_sum(_group_sums(x, self.paths.sizes)))
        return GroupedResult(x, total, iterations, total if upper is None else upper)


def _group_sums(x: np.ndarray, sizes: Iterable[int]) -> list[float]:
    """Each group's values of the flat ``x``, summed in path order; 0.0 for an empty group.

    Zeros are skipped: a left-to-right total from ``0`` is never -0.0, so adding
    a zero of either sign would leave its bits as they are.
    """
    flat = iter(x.tolist())
    return [float(left_sum(filter(None, islice(flat, size)))) for size in sizes]


@dataclass(frozen=True)
class PathSystem:
    """Per-commodity explicit path lists over one network.

    Every listed path must validate and paths are distinct within their
    commodity. Commodities may carry empty lists. A path is a ``Path``, whose
    steps are a tuple of ``Traversal``s or of the plain tuples they equal, or
    a tuple of raw edge ids, which is oriented as ``infer_traversals`` does.
    Either is stored as a ``Path`` of the network's shared ``Traversal``s, a
    loop walked forward. It is the one path check: a ``Path`` carries its
    commodity's index and a tuple of steps; then, in one walk from the
    source, each step names a known edge, walked in a legal direction, that
    chains on; the path is not empty and ends at the sink; no node repeats,
    except that source may equal sink; no edge has zero capacity. The walk
    records each step's edge number, from which ``grouped`` compiles on
    first use. A broken rule raises ``PathRuleError``, which locates the
    path. ``matrix`` reads ``grouped``: the edges the paths use, in first-use
    order, with their capacities ``caps``.
    """

    network: Network
    paths: tuple[tuple[Path, ...], ...]
    # Every step's position in ``network.edges``, path after path.
    _rows: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.paths) != self.network.k:
            raise ModelError(
                f"path system lists {len(self.paths)} commodities, network has {self.network.k}"
            )
        network = self.network
        rows: list[int] = []
        groups = []
        for i, (group, com) in enumerate(zip(self.paths, network.commodities), start=1):
            seen = set()
            kept = []
            for j, path in enumerate(group):
                if isinstance(path, tuple):
                    violation, steps = _walk(network, com.source, com.sink, path, network._moves, rows)
                    path = Path(i, steps)
                elif isinstance(path, Path):
                    if path.commodity != i:
                        raise PathRuleError(
                            f"path filed under commodity {i} carries index {path.commodity}", i, j
                        )
                    if not isinstance(path.steps, tuple):  # its steps are hashed below
                        raise PathRuleError(
                            f"commodity {i}: the steps of path {j + 1} are a "
                            f"{type(path.steps).__name__}, not a tuple",
                            i,
                            j,
                        )
                    violation, steps = _walk(network, com.source, com.sink, path.steps, None, rows)
                    path = Path(i, steps)
                else:
                    raise PathRuleError(
                        f"commodity {i}: path {j + 1} is a {type(path).__name__}, "
                        "not a Path or a tuple of edge ids",
                        i,
                        j,
                    )
                if violation is not None:
                    raise PathRuleError(f"commodity {i}: invalid path ({violation})", i, j)
                if steps in seen:
                    raise PathRuleError(f"commodity {i}: duplicate path {path.edge_ids()}", i, j)
                seen.add(steps)
                kept.append(path)
            groups.append(tuple(kept))
        object.__setattr__(self, "paths", tuple(groups))
        object.__setattr__(self, "_rows", rows)

    @property
    def k(self) -> int:
        return len(self.paths)

    @property
    def path_count(self) -> int:
        return sum(len(group) for group in self.paths)

    @cached_property
    def grouped(self) -> GroupedPaths:
        """The paths compiled once, on first use, over every network edge.

        The steps' edge numbers are the rows; each layout orders the edges
        its paths use by first use, as ``GroupedPaths.build`` numbers keys.
        """
        edges = self.network.edges
        lengths = [len(path.steps) for group in self.paths for path in group]
        return GroupedPaths(
            tuple(map(len, self.paths)),
            tuple([e.id for e in edges]),
            np.array([e.capacity for e in edges], dtype=float),
            np.fromiter(self._rows, int, len(self._rows)),
            np.fromiter(lengths, int, len(lengths)),
        )

    @property
    def matrix(self) -> PathMatrix:
        """Incidence over the edges the paths use: ``grouped``'s all-groups columns."""
        return self.grouped.columns((True,) * self.k)[0]


@dataclass(frozen=True, eq=False)
class Flow:
    """Finite nonnegative value per path of a path system, path after path in group order.

    ``x`` is a read-only copy of the values given, one per path of the
    system, as the engines lay out their results. ``values`` splits it per
    commodity.
    """

    system: PathSystem
    x: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x)
        if x.dtype.kind not in "biuf":  # NumPy would read the string "0.5" as 0.5
            for value in np.asarray(self.x, dtype=object).ravel().tolist():
                if not isinstance(value, Real):
                    raise TypeError(f"path value {value!r} is not a real number")
        x = np.array(x, dtype=float)
        if x.shape != (self.system.path_count,):
            raise ModelError("flow values do not match the path list")
        if not x.min(initial=0.0) >= 0.0:  # a NaN fails too
            raise ModelError(f"negative path value {x[~(x >= 0.0)][0]}")
        if x.max(initial=0.0) == math.inf:
            raise ModelError("path value inf is not finite")
        x.flags.writeable = False
        object.__setattr__(self, "x", x)

    @cached_property
    def values(self) -> tuple[tuple[float, ...], ...]:
        """``x`` as one tuple of floats per commodity, split once, on first read."""
        flat = iter(self.x.tolist())
        return tuple(tuple(islice(flat, len(group))) for group in self.system.paths)


def edge_loads(flow: Flow) -> dict[str, float]:
    """Gross load per edge of the path system, in first-use order.

    A load is the sum of the values of all paths using the edge. A path
    counts once even if it walks an undirected edge in both directions;
    traversal direction never enters the sum.
    """
    matrix = flow.system.matrix
    return dict(zip(matrix.edges, (matrix.a @ flow.x).tolist()))


def branch_values(flow: Flow) -> tuple[float, ...]:
    """Total value routed per commodity, each summed in path order."""
    return tuple(_group_sums(flow.x, map(len, flow.system.paths)))


def flow_value(flow: Flow) -> float:
    """Total flow value: the branch values summed in order, as ``GroupedResult.total`` is."""
    return float(left_sum(branch_values(flow)))


def min_ratio(flow: Flow, bounds: tuple[float, ...] | list[float] | None = None) -> float:
    """Worst per-commodity service ratio ``min_i V_i / b_i``; ``bounds`` must pass ``_check_bounds``."""
    if bounds is None:
        bounds = flow.system.network.bounds()
    _check_bounds(bounds, flow.system.k)
    if flow.system.k == 0:
        raise ModelError("min_ratio needs at least one commodity")
    return min(v / b for v, b in zip(branch_values(flow), bounds))


def _check_bounds(bounds: Sequence[float], k: int | None = None) -> None:
    """Demand bounds: ``k`` of them if ``k`` is given, each positive and finite."""
    if k is not None and len(bounds) != k:
        raise ValueError("bounds length does not match the commodity count")
    for b in bounds:
        if not (math.isfinite(b) and b > 0.0):
            raise ValueError(f"bounds must be positive and finite, got {b}")


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
    enumerates closed walks. ``max_edges`` must be an integer of at least 1
    and ``limit`` ``None`` or an integer of at least 0, or ``ValueError`` is
    raised: any other value would never meet its cap and enumerate every
    simple path.
    """
    if not isinstance(max_edges, (int, np.integer)) or max_edges < 1:
        raise ValueError(f"max_edges must be an integer >= 1, got {max_edges!r}")
    if limit is not None and (not isinstance(limit, (int, np.integer)) or limit < 0):
        raise ValueError(f"limit must be None or an integer >= 0, got {limit!r}")
    for endpoint in (commodity.source, commodity.sink):
        if endpoint not in network.nodes:
            raise ModelError(f"node {endpoint!r} not in network")

    # Each node's moves over positive-capacity edges, in edge-id order: the
    # network's move table, which holds one per usable direction.
    zero = network._zero
    adjacency = {
        node: [(nxt, step) for _, (nxt, step, n) in sorted(moves.items()) if n not in zero]
        for node, moves in network._moves.items()
    }

    source, sink = commodity.source, commodity.sink
    found: list[Path] = []
    prefix: list[Traversal] = []
    visited = {source}
    # One frame per node on the current prefix: the node and its untried steps.
    stack = [(source, iter(adjacency[source]))]
    while stack:
        for nxt, step in stack[-1][1]:
            if len(found) == limit:
                return found
            if nxt == sink and (nxt not in visited or sink == source):
                found.append(Path(commodity.index, (*prefix, step)))
                continue
            # A prefix of max_edges steps takes no further step.
            if nxt in visited or len(stack) == max_edges:
                continue
            prefix.append(step)
            visited.add(nxt)
            stack.append((nxt, iter(adjacency[nxt])))
            break
        else:
            node, _ = stack.pop()
            if stack:
                visited.remove(node)
                prefix.pop()
    return found
