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
from collections.abc import Collection, Iterator
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
FORMAT_ORACLE = "concurflow-oracle"
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

    ``network`` must equal the path system's own network. The name and every
    node, edge and commodity id must be one token (not empty, no whitespace,
    no ``#``), and there is one distinct commodity id per commodity, so that
    ``serialize_instance`` writes text that ``parse_instance`` reads back. A
    breach raises ``ValueError`` naming the field.
    """

    name: str
    seed: int | None
    network: Network
    path_system: PathSystem
    commodity_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.network != self.path_system.network:
            raise ValueError("network: not the network of path_system")
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


def _records(text: str, fmt: str, kinds: Collection[str], once: Collection[str]) -> Iterator[tuple]:
    """Yield ``(line, kind, args)`` per record of ``text``, skipping comments, blank lines and the header.

    The header must read ``format <fmt> 1``; a text without one is rejected
    once read. Every other record must be one of ``kinds``. A second header or
    ``once`` record is reported as repeated before its arguments are read.
    """
    watched = {"format", *once}  # one set lookup per line: most records are neither
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind in watched:
            if kind in seen:
                raise InstanceError(lineno, f"repeated {kind!r} record")
            seen.add(kind)
            if kind == "format":
                if tokens[1:] != [fmt, FORMAT_VERSION]:
                    raise InstanceError(lineno, f"unsupported format {' '.join(tokens[1:])!r}")
                continue
        elif kind not in kinds:
            raise InstanceError(lineno, f"unknown record {kind!r}")
        yield lineno, kind, tokens[1:]
    if "format" not in seen:
        raise InstanceError(None, f"missing 'format {fmt} {FORMAT_VERSION}' header")


def parse_instance(text: str) -> Instance:
    """Parse instance text into a validated :class:`Instance`."""
    node_lines: dict[str, int] = {}  # in file order
    edges: list[Edge] = []
    edge_ids_known: set[str] = set()
    commodities: list[Commodity] = []
    index_of: dict[str, int] = {}  # each commodity id's 1-based index
    path_rows: list[tuple[int, str, tuple[str, ...]]] = []
    named: dict[str, str | int] = {}  # the name and seed records

    kinds = ("path", "name", "seed", "node", "edge", "commodity")
    for lineno, kind, args in _records(text, FORMAT_INSTANCE, kinds, ("name", "seed")):
        if kind == "path":  # first: most lines of a file are paths
            if len(args) < 2:
                raise InstanceError(lineno, "path takes: commodity-id edge-id...")
            cid, edge_ids = args[0], tuple(args[1:])
            if cid not in index_of:
                raise InstanceError(lineno, f"unknown commodity id {cid!r}")
            if not edge_ids_known.issuperset(edge_ids):
                unknown = next(eid for eid in edge_ids if eid not in edge_ids_known)
                raise InstanceError(lineno, f"unknown edge id {unknown!r}")
            path_rows.append((lineno, cid, edge_ids))
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
            if cid in index_of:
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
            index_of[cid] = len(index_of) + 1
            commodities.append(Commodity(index_of[cid], source, sink, bound))

    if not commodities:
        raise InstanceError(None, "instance declares no commodities")

    try:
        network = Network(nodes=tuple(node_lines), edges=tuple(edges), commodities=tuple(commodities))
    except ModelError as exc:
        raise InstanceError(None, str(exc)) from None

    groups: list[list[tuple[str, ...]]] = [[] for _ in commodities]
    group_lines: list[list[int]] = [[] for _ in commodities]
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
    return Instance(named.get("name", "unnamed"), named.get("seed"), network, system, tuple(index_of))


def serialize_instance(instance: Instance) -> str:
    lines = [f"format {FORMAT_INSTANCE} {FORMAT_VERSION}", f"name {instance.name}"]
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


# The solution file's scalar (float) and counter (int) records, in file order, each with the
# ``SolveReport`` field it renders; the two iteration counters copy the levels, for compatibility.
_SOLUTION_RECORDS = {
    "eta": (float, "eta"),
    "eps": (float, "eps"),
    "l_star": (int, "l_star"),
    "h_star": (int, "h_star"),
    "outer_iterations": (int, "l_star"),
    "inner_iterations": (int, "h_star"),
    "subroutine_calls": (int, "subroutine_calls"),
    "value": (float, "value"),
    "value_lower": (float, "value_lower"),
    "value_upper": (float, "value_upper"),
    "min_ratio": (float, "min_ratio_value"),
    "min_ratio_lower": (float, "min_ratio_lower"),
    "min_ratio_upper": (float, "min_ratio_upper"),
}


def serialize_solution(report: SolveReport, instance: Instance) -> str:
    """Render a solve report; deterministic for a fixed report.

    Wall time deliberately stays out of the file so repeated runs with
    identical inputs produce byte-identical output; the CLI reports timing
    on stderr instead.
    """
    records = [f"{kind} {(_fmt if number is float else int)(getattr(report, field))}"
               for kind, (number, field) in _SOLUTION_RECORDS.items()]
    return _result_text(FORMAT_SOLUTION, instance, records, report.flow)


def serialize_oracle(instance: Instance, problem: str, lambda_star: float | None, value: float | None,
                     flow: Flow | None) -> str:
    """Render an exact oracle result: each of ``lambda_star``, ``value`` and ``flow`` that is given."""
    records = [f"problem {problem}"]
    records += [f"{kind} {_fmt(x)}" for kind, x in (("lambda_star", lambda_star), ("value", value)) if x is not None]
    return _result_text(FORMAT_ORACLE, instance, records, flow)


def _result_text(fmt: str, instance: Instance, records: list[str], flow: Flow | None) -> str:
    """A solution or oracle file: header, ``records``, then a flow's ``branch`` and ``flow`` lines."""
    lines = [f"format {fmt} {FORMAT_VERSION}", f"instance {instance.name}", *records]
    if flow is not None:
        lines += [f"branch {instance.commodity_id(i)} {_fmt(v)}" for i, v in enumerate(branch_values(flow), start=1)]
        for ci, row in enumerate(flow.values, start=1):
            cid = instance.commodity_id(ci)
            lines += [f"flow {cid} {pj} {_fmt(value)}" for pj, value in enumerate(row)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SolutionData:
    """Parsed solution file (used by tests and downstream tooling)."""

    instance: str
    scalars: dict[str, float]
    counters: dict[str, int]
    branches: dict[str, float]
    flows: dict[tuple[str, int], float]


def parse_solution(text: str) -> SolutionData:
    """Read a solution file: each record at most once and with its grammar's tokens, every
    number finite, and no counter, path index, ``branch`` or ``flow`` value negative (-0.0 is 0)."""
    instance = ""
    scalars: dict[str, float] = {}
    counters: dict[str, int] = {}
    branches: dict[str, float] = {}
    flows: dict[tuple[str, int], float] = {}
    kinds = ("flow", "branch", "instance", *_SOLUTION_RECORDS)
    for lineno, kind, args in _records(text, FORMAT_SOLUTION, kinds, ("instance",)):
        try:
            if kind == "flow":
                cid, index, text_value = args
                table, key, value = flows, (cid, int(index)), float(text_value)
            elif kind == "branch":
                key, text_value = args
                table, value = branches, float(text_value)
            elif kind == "instance":
                (instance,) = args
                continue
            else:
                number, (text_value,) = _SOLUTION_RECORDS[kind][0], args
                table, key, value = scalars if number is float else counters, kind, number(text_value)
        except ValueError:
            raise InstanceError(lineno, f"malformed {kind!r} record") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise InstanceError(lineno, f"{kind} must be finite, got {value}")
        if kind == "flow" and key[1] < 0:
            raise InstanceError(lineno, f"flow path index must be >= 0, got {key[1]}")
        if table is not scalars and value < 0:
            raise InstanceError(lineno, f"{kind} must be >= 0, got {value}")
        if key in table:
            raise InstanceError(lineno, f"repeated {kind!r} record")
        table[key] = value
    return SolutionData(instance, scalars, counters, branches, flows)
