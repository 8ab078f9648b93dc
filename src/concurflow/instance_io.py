"""Instance and solution text formats.

An instance file is line-oriented: one record per line, tokens separated
by whitespace, ``#`` starting a comment. Records:

    format concurflow-instance 1
    name <string>                                  (optional, at most once)
    seed <int>                                     (optional, at most once)
    node <id>
    edge <id> <tail> <head> <capacity> directed|undirected
    commodity <id> <source> <sink> <bound>
    path <commodity-id> <edge-id> [<edge-id> ...]

Path lines list raw edge ids, which the parser hands to ``PathSystem`` as
they are: its one walk over each path orients it (over undirected edges by
chaining nodes from the commodity source), checks every path rule and
numbers its edges. Parse errors carry the 1-based line number. An unknown
edge id is reported at its own line as soon as it is read. A path that does
not chain, ends off its sink, repeats a node, crosses a zero-capacity edge
or repeats an earlier path of its commodity is reported once the file is
read (the first line in the file that does not chain before any other), and
its line is looked up only once the error is raised. Serialization renders
floats with ``repr`` so a parse/serialize round trip is the identity and
files diff cleanly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .netmodel import (
    Commodity,
    Edge,
    Flow,
    ModelError,
    Network,
    PathRuleError,
    PathSystem,
    branch_values,
    infer_traversals,
)
from .solver import SolveReport

FORMAT_INSTANCE = "concurflow-instance"
FORMAT_SOLUTION = "concurflow-solution"
FORMAT_VERSION = "1"

# What ends a token: whitespace as ``str.split`` reads it, and the comment sign.
_NOT_IN_TOKEN = re.compile(r"[\s#]")


class InstanceError(ValueError):
    """Malformed instance or solution text; carries a line number."""

    def __init__(self, line: int | None, message: str):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class Instance:
    """A parsed instance: the model plus file-level naming metadata.

    The name and every node, edge and commodity id must be one token (not
    empty, no whitespace, no ``#``), and there is one distinct commodity id
    per commodity, so that ``serialize_instance`` writes text that
    ``parse_instance`` reads back. A breach raises ``ValueError`` naming the
    field.
    """

    name: str
    seed: int | None
    network: Network
    path_system: PathSystem
    commodity_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        ids = self.commodity_ids
        fields = (
            ("name", (self.name,)),
            ("network node id", self.network.nodes),
            ("network edge id", [edge.id for edge in self.network.edges]),
            ("commodity_ids", ids),
        )
        for label, tokens in fields:
            if all(tokens) and not _NOT_IN_TOKEN.search("".join(tokens)):
                continue
            bad = next(token for token in tokens if not token or _NOT_IN_TOKEN.search(token))
            raise ValueError(f"{label}: {bad!r} is not one token without whitespace or '#'")
        if len(ids) != self.k:
            raise ValueError(f"commodity_ids: {len(ids)} ids for {self.k} commodities")
        if len(set(ids)) != len(ids):
            repeated = next(cid for cid in ids if ids.count(cid) > 1)
            raise ValueError(f"commodity_ids: {repeated!r} is repeated")

    @property
    def k(self) -> int:
        return self.network.k

    def commodity_id(self, index: int) -> str:
        return self.commodity_ids[index - 1]


def _fmt(x: float) -> str:
    return repr(float(x))


def parse_instance(text: str) -> Instance:
    """Parse instance text into a validated :class:`Instance`."""
    nodes: list[str] = []
    node_lines: dict[str, int] = {}
    edges: list[Edge] = []
    edge_ids_known: set[str] = set()
    commodity_rows: list[tuple[str, str, str, float]] = []
    commodity_line: dict[str, int] = {}
    path_rows: list[tuple[int, str, tuple[str, ...]]] = []
    named: dict[str, str | int] = {}  # the format, name and seed records, each at most once

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind == "path":  # first: most lines of a file are paths
            if len(args) < 2:
                raise InstanceError(lineno, "path takes: commodity-id edge-id...")
            cid, edge_ids = args[0], tuple(args[1:])
            if cid not in commodity_line:
                raise InstanceError(lineno, f"unknown commodity id {cid!r}")
            if not edge_ids_known.issuperset(edge_ids):
                unknown = next(eid for eid in edge_ids if eid not in edge_ids_known)
                raise InstanceError(lineno, f"unknown edge id {unknown!r}")
            path_rows.append((lineno, cid, edge_ids))
        elif kind in named:
            raise InstanceError(lineno, f"repeated {kind!r} record")
        elif kind == "format":
            if args != [FORMAT_INSTANCE, FORMAT_VERSION]:
                raise InstanceError(lineno, f"unsupported format {' '.join(args)!r}")
            named[kind] = args[0]
        elif kind == "name":
            if len(args) != 1:
                raise InstanceError(lineno, "name takes exactly one token")
            named[kind] = args[0]
        elif kind == "seed":
            try:
                (seed_text,) = args
                named[kind] = int(seed_text)
            except ValueError:
                raise InstanceError(lineno, "seed takes one integer") from None
        elif kind == "node":
            if len(args) != 1:
                raise InstanceError(lineno, "node takes exactly one id")
            if args[0] in node_lines:
                raise InstanceError(lineno, f"duplicate node id {args[0]!r}")
            node_lines[args[0]] = lineno
            nodes.append(args[0])
        elif kind == "edge":
            if len(args) != 5:
                raise InstanceError(lineno, "edge takes: id tail head capacity directed|undirected")
            eid, tail, head, cap_text, mode = args
            if eid in edge_ids_known:
                raise InstanceError(lineno, f"duplicate edge id {eid!r}")
            if mode not in ("directed", "undirected"):
                raise InstanceError(lineno, f"edge mode must be directed|undirected, got {mode!r}")
            try:
                cap = float(cap_text)
            except ValueError:
                raise InstanceError(lineno, f"bad capacity {cap_text!r}") from None
            for endpoint in (tail, head):
                if endpoint not in node_lines:
                    raise InstanceError(lineno, f"unknown node {endpoint!r}")
            if not (math.isfinite(cap) and cap >= 0):
                raise InstanceError(lineno, f"capacity must be >= 0 and finite, got {cap}")
            edge_ids_known.add(eid)
            edges.append(Edge(eid, tail, head, cap, mode == "directed"))
        elif kind == "commodity":
            if len(args) != 4:
                raise InstanceError(lineno, "commodity takes: id source sink bound")
            cid, source, sink, bound_text = args
            if cid in commodity_line:
                raise InstanceError(lineno, f"duplicate commodity id {cid!r}")
            try:
                bound = float(bound_text)
            except ValueError:
                raise InstanceError(lineno, f"bad bound {bound_text!r}") from None
            if not (math.isfinite(bound) and bound > 0):
                raise InstanceError(lineno, f"bound must be positive and finite, got {bound}")
            for endpoint in (source, sink):
                if endpoint not in node_lines:
                    raise InstanceError(lineno, f"unknown node {endpoint!r}")
            commodity_line[cid] = lineno
            commodity_rows.append((cid, source, sink, bound))
        else:
            raise InstanceError(lineno, f"unknown record {kind!r}")

    if "format" not in named:
        raise InstanceError(None, f"missing 'format {FORMAT_INSTANCE} {FORMAT_VERSION}' header")
    if not commodity_rows:
        raise InstanceError(None, "instance declares no commodities")

    try:
        network = Network(
            nodes=tuple(nodes),
            edges=tuple(edges),
            commodities=tuple(
                Commodity(i, s, t, b)
                for i, (_, s, t, b) in enumerate(commodity_rows, start=1)
            ),
        )
    except ModelError as exc:
        raise InstanceError(None, str(exc)) from None

    commodity_ids = tuple(cid for cid, *_ in commodity_rows)
    index_of = {cid: i for i, cid in enumerate(commodity_ids, start=1)}
    groups: list[list[tuple[str, ...]]] = [[] for _ in commodity_rows]
    group_lines: list[list[int]] = [[] for _ in commodity_rows]
    for lineno, cid, edge_ids in path_rows:
        ci = index_of[cid] - 1
        groups[ci].append(edge_ids)
        group_lines[ci].append(lineno)

    try:
        system = PathSystem(network, tuple(map(tuple, groups)))
    except PathRuleError as exc:
        # The walk goes commodity by commodity; a path that does not chain
        # is reported first, and the first such line in file order.
        for lineno, cid, edge_ids in path_rows:
            source = network.commodities[index_of[cid] - 1].source
            try:
                infer_traversals(network, source, edge_ids)
            except ModelError as chain:
                raise InstanceError(lineno, f"path for {cid!r}: {chain}") from None
        raise InstanceError(group_lines[exc.commodity - 1][exc.index], str(exc)) from None
    except ModelError as exc:
        raise InstanceError(None, str(exc)) from None
    return Instance(named.get("name", "unnamed"), named.get("seed"), network, system, commodity_ids)


def serialize_instance(instance: Instance) -> str:
    lines = [f"format {FORMAT_INSTANCE} {FORMAT_VERSION}"]
    lines.append(f"name {instance.name}")
    if instance.seed is not None:
        lines.append(f"seed {instance.seed}")
    for node in instance.network.nodes:
        lines.append(f"node {node}")
    for e in instance.network.edges:
        mode = "directed" if e.directed else "undirected"
        lines.append(f"edge {e.id} {e.tail} {e.head} {_fmt(e.capacity)} {mode}")
    for cid, com in zip(instance.commodity_ids, instance.network.commodities):
        lines.append(f"commodity {cid} {com.source} {com.sink} {_fmt(com.bound)}")
    for ci, group in enumerate(instance.path_system.paths, start=1):
        cid = instance.commodity_ids[ci - 1]
        for path in group:
            lines.append(f"path {cid} {' '.join(path.edge_ids())}")
    return "\n".join(lines) + "\n"


def serialize_solution(report: SolveReport, instance: Instance) -> str:
    """Render a solve report; deterministic for a fixed report.

    Wall time deliberately stays out of the file so repeated runs with
    identical inputs produce byte-identical output; the CLI reports timing
    on stderr instead.
    """
    lines = [f"format {FORMAT_SOLUTION} {FORMAT_VERSION}"]
    lines.append(f"instance {instance.name}")
    lines.append(f"eta {_fmt(report.eta)}")
    lines.append(f"eps {_fmt(report.eps)}")
    lines.append(f"l_star {report.l_star}")
    lines.append(f"h_star {report.h_star}")
    # Copies of l_star/h_star, kept for format compatibility.
    lines.append(f"outer_iterations {report.l_star}")
    lines.append(f"inner_iterations {report.h_star}")
    lines.append(f"subroutine_calls {report.subroutine_calls}")
    lines.append(f"value {_fmt(report.value)}")
    lines.append(f"value_lower {_fmt(report.value_lower)}")
    lines.append(f"value_upper {_fmt(report.value_upper)}")
    lines.append(f"min_ratio {_fmt(report.min_ratio_value)}")
    lines.append(f"min_ratio_lower {_fmt(report.min_ratio_lower)}")
    lines.append(f"min_ratio_upper {_fmt(report.min_ratio_upper)}")
    lines += _flow_lines(instance, report.flow)
    return "\n".join(lines) + "\n"


def _flow_lines(instance: Instance, flow: Flow) -> list[str]:
    """A flow's ``branch`` lines, one per commodity, then its ``flow`` lines, one per path."""
    lines = [
        f"branch {instance.commodity_id(i)} {_fmt(total)}"
        for i, total in enumerate(branch_values(flow), start=1)
    ]
    for ci, row in enumerate(flow.values, start=1):
        cid = instance.commodity_id(ci)
        lines += [f"flow {cid} {pj} {_fmt(value)}" for pj, value in enumerate(row)]
    return lines


@dataclass(frozen=True)
class SolutionData:
    """Parsed solution file (used by tests and downstream tooling)."""

    instance: str
    scalars: dict[str, float]
    counters: dict[str, int]
    branches: dict[str, float]
    flows: dict[tuple[str, int], float]


_SOLUTION_SCALARS = (
    "eta",
    "eps",
    "value",
    "value_lower",
    "value_upper",
    "min_ratio",
    "min_ratio_lower",
    "min_ratio_upper",
)
_SOLUTION_COUNTERS = ("l_star", "h_star", "outer_iterations", "inner_iterations", "subroutine_calls")


def parse_solution(text: str) -> SolutionData:
    """Read a solution file: each record at most once, every number finite, and
    no counter, path index, ``branch`` or ``flow`` value negative (-0.0 is 0)."""
    named: dict[str, str] = {}
    scalars: dict[str, float] = {}
    counters: dict[str, int] = {}
    branches: dict[str, float] = {}
    flows: dict[tuple[str, int], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *args = line.split()
        if kind in named:  # a second format or instance line, whatever its arguments
            raise InstanceError(lineno, f"repeated {kind!r} record")
        try:
            if kind == "format" and args != [FORMAT_SOLUTION, FORMAT_VERSION]:
                raise InstanceError(lineno, f"unsupported format {' '.join(args)!r}")
            if kind in ("format", "instance"):
                table, key, value = named, kind, args[0]
            elif kind in _SOLUTION_SCALARS:
                table, key, value = scalars, kind, float(args[0])
            elif kind in _SOLUTION_COUNTERS:
                table, key, value = counters, kind, int(args[0])
            elif kind == "branch":
                table, key, value = branches, args[0], float(args[1])
            elif kind == "flow":
                table, key, value = flows, (args[0], int(args[1])), float(args[2])
            else:
                raise InstanceError(lineno, f"unknown record {kind!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, InstanceError):
                raise
            raise InstanceError(lineno, f"malformed {kind!r} record") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise InstanceError(lineno, f"{kind} must be finite, got {value}")
        if kind == "flow" and key[1] < 0:
            raise InstanceError(lineno, f"flow path index must be >= 0, got {key[1]}")
        if kind in (*_SOLUTION_COUNTERS, "branch", "flow") and value < 0:
            raise InstanceError(lineno, f"{kind} must be >= 0, got {value}")
        if key in table:
            raise InstanceError(lineno, f"repeated {kind!r} record")
        table[key] = value
    if "format" not in named:
        raise InstanceError(None, f"missing 'format {FORMAT_SOLUTION} {FORMAT_VERSION}' header")
    return SolutionData(named.get("instance", ""), scalars, counters, branches, flows)
