import math
from functools import cached_property

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concurflow import generate_instance
from concurflow.instance_io import (
    FORMAT_INSTANCE,
    FORMAT_VERSION,
    Instance,
    InstanceError,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from concurflow.netmodel import (
    Commodity,
    Edge,
    ModelError,
    Network,
    Path,
    PathRuleError,
    PathSystem,
    enumerate_paths,
    infer_traversals,
)
from concurflow.solver import solve
from conftest import make_network, make_system, t1_system, t2_system, t3_system

T1_TEXT = """\
format concurflow-instance 1
name t1
node s
node t
edge e1 s t 1.0 directed
commodity c1 s t 1.0
commodity c2 s t 2.0
path c1 e1
path c2 e1
"""


def instance_from_system(system, name, ids=None):
    k = system.k
    return Instance(
        name=name,
        seed=None,
        network=system.network,
        path_system=system,
        commodity_ids=ids or tuple(f"c{i}" for i in range(1, k + 1)),
    )


@pytest.fixture
def fixtures():
    return [
        instance_from_system(t1_system(), "t1"),
        instance_from_system(t2_system(), "t2"),
        instance_from_system(t3_system(), "t3"),
    ]


class TestParse:
    def test_t1_shape(self):
        inst = parse_instance(T1_TEXT)
        assert inst.name == "t1"
        assert len(inst.network.nodes) == 2
        assert len(inst.network.edges) == 1
        assert inst.k == 2
        assert inst.path_system.path_count == 2

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\n" + T1_TEXT + "\n# trailing\n"
        inst = parse_instance(text)
        assert inst.k == 2

    def test_missing_format_header(self):
        with pytest.raises(InstanceError, match="missing 'format"):
            parse_instance("node a\n")

    def test_unknown_record(self):
        with pytest.raises(InstanceError, match="line 2: unknown record"):
            parse_instance("format concurflow-instance 1\nwidget a b\n")

    def test_duplicate_node(self):
        text = "format concurflow-instance 1\nnode a\nnode a\n"
        with pytest.raises(InstanceError, match="line 3: duplicate node"):
            parse_instance(text)

    def test_dangling_edge_endpoint(self):
        text = "format concurflow-instance 1\nnode a\nedge e a b 1.0 directed\n"
        with pytest.raises(InstanceError, match="line 3: unknown node 'b'"):
            parse_instance(text)

    def test_unknown_edge_in_path(self):
        text = T1_TEXT + "path c1 e9\n"
        with pytest.raises(InstanceError, match="line 10: unknown edge id 'e9'"):
            parse_instance(text)

    def test_out_of_order_path_names_line(self):
        text = """\
format concurflow-instance 1
node s
node u
node t
edge e2 s u 1.0 directed
edge e3 u t 1.0 directed
commodity c1 s t 1.0
path c1 e3 e2
"""
        with pytest.raises(InstanceError, match="line 8: path for 'c1': broken chain at position 1"):
            parse_instance(text)

    def test_nonpositive_bound(self):
        text = T1_TEXT.replace("commodity c1 s t 1.0", "commodity c1 s t 0.0")
        with pytest.raises(InstanceError, match="bound must be positive"):
            parse_instance(text)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_non_finite_numbers_name_line(self, token):
        text = T1_TEXT.replace("1.0 directed", f"{token} directed")
        with pytest.raises(InstanceError, match="line 5: capacity must be >= 0 and finite"):
            parse_instance(text)
        text = T1_TEXT.replace("commodity c2 s t 2.0", f"commodity c2 s t {token}")
        with pytest.raises(InstanceError, match="line 7: bound must be positive and finite"):
            parse_instance(text)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            (T1_TEXT.replace("name t1", "name a b"), 2, "name takes exactly one token"),
            (T1_TEXT.replace("node s\n", "node a b\n"), 3, "node takes exactly one id"),
            (
                T1_TEXT.replace("1.0 directed", "1.0"),
                5,
                "edge takes: id tail head capacity directed|undirected",
            ),
            (
                T1_TEXT.replace("1.0 directed", "1.0 sideways"),
                5,
                "edge mode must be directed|undirected, got 'sideways'",
            ),
            (T1_TEXT.replace("c1 s t 1.0", "c1 s t"), 6, "commodity takes: id source sink bound"),
            (T1_TEXT.replace("c1 s t 1.0", "c1 s t x"), 6, "bad bound 'x'"),
            (T1_TEXT.replace("c1 s t 1.0", "c1 s u 1.0"), 6, "unknown node 'u'"),
            (T1_TEXT.split("commodity")[0], None, "instance declares no commodities"),
        ],
        ids=["name-two", "node-two", "edge-four", "edge-mode", "commodity-three", "bound-x",
             "unknown-sink", "no-commodity"],
    )
    def test_record_rejected_at_its_line(self, text, line, message):
        with pytest.raises(InstanceError) as raised:
            parse_instance(text)
        assert raised.value.line == line
        assert str(raised.value) == (message if line is None else f"line {line}: {message}")

    def test_bad_capacity_token(self):
        text = T1_TEXT.replace("1.0 directed", "abc directed")
        with pytest.raises(InstanceError, match="bad capacity"):
            parse_instance(text)

    def test_undirected_orientation_inferred(self):
        text = """\
format concurflow-instance 1
name undirected
node a
node b
node c
edge e1 b a 1.0 undirected
edge e2 b c 1.0 directed
commodity c1 a c 1.0
path c1 e1 e2
"""
        inst = parse_instance(text)
        steps = inst.path_system.paths[0][0].steps
        assert steps[0].forward is False
        assert steps[1].forward is True

    def test_seed_takes_one_integer(self):
        text = T1_TEXT.replace("name t1\n", "name t1\nseed 1 2\n")
        with pytest.raises(InstanceError, match="^line 3: seed takes one integer$"):
            parse_instance(text)
        assert parse_instance(text.replace("seed 1 2", "seed 7")).seed == 7

    @pytest.mark.parametrize(
        "first, second",
        [
            ("name a", "name b"),
            ("seed 1", "seed 2"),
            ("format concurflow-instance 1",) * 2,
            ("format concurflow-instance 1", "format concurflow-instance 2"),
        ],
    )
    def test_repeated_record_rejected(self, first, second):
        kind = first.split()[0]
        text = T1_TEXT.replace("name t1\n", "").replace("node s\n", f"{first}\nnode s\n{second}\n")
        if kind == "format":  # the two inserted lines are the only headers; line 1 turns comment
            text = text.replace("format", "# format", 1)
        with pytest.raises(InstanceError, match=f"^line 4: repeated '{kind}' record$"):
            parse_instance(text)

    def test_failing_parse_builds_one_move_table(self, monkeypatch):
        # Every path line is checked for chaining before the duplicate is named.
        # The instance is generated first: path enumeration reads move tables too.
        instance = generate_instance(1, 7, 11, 3, 4)
        builds, build = [], Network._moves.func

        def counted(network):
            builds.append(network)
            return build(network)

        moves = cached_property(counted)
        moves.__set_name__(Network, "_moves")
        monkeypatch.setattr(Network, "_moves", moves)
        text = serialize_instance(instance)
        last = text.splitlines()[-1]
        assert last.startswith("path ") and instance.path_system.path_count >= 5
        with pytest.raises(InstanceError, match="duplicate path"):
            parse_instance(text + last + "\n")
        assert len(builds) == 1

    # Paths of c2 come before and after c1's, so a line must be found through
    # the commodity's own list, not the file order of all paths.
    PATH_RULES_TEXT = """\
format concurflow-instance 1
node a
node b
node c
node d
edge e1 a b 1.0 undirected
edge e2 b c 1.0 undirected
edge e3 c a 1.0 undirected
edge e4 a d 0.0 undirected
edge e5 d c 1.0 undirected
commodity c1 a b 1.0
commodity c2 a c 1.0
path c2 e3
path c1 e1
path c2 e1 e2
"""

    @pytest.mark.parametrize(
        "line, message",
        [
            (
                "path c1 e1 e2",
                "commodity 1: invalid path (path ends at 'c', expected sink 'b')",
            ),
            ("path c1 e1 e2 e3 e1", "commodity 1: invalid path (repeated node on path)"),
            ("path c2 e4 e5", "commodity 2: invalid path (zero-capacity edge 'e4' at position 1)"),
            ("path c2 e1 e2", "commodity 2: duplicate path ('e1', 'e2')"),
        ],
        ids=["wrong-sink", "repeated-node", "zero-capacity", "duplicate"],
    )
    def test_path_rule_names_line(self, line, message):
        text = self.PATH_RULES_TEXT + line + "\npath c1 e3 e2\n"
        with pytest.raises(InstanceError) as info:
            parse_instance(text)
        assert str(info.value) == f"line 16: {message}"
        assert info.value.line == 16


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self, fixtures):
        for inst in fixtures:
            text = serialize_instance(inst)
            once = parse_instance(text)
            twice = parse_instance(serialize_instance(once))
            assert once == twice

    def test_serialize_is_stable(self, fixtures):
        for inst in fixtures:
            text = serialize_instance(inst)
            assert serialize_instance(parse_instance(text)) == text

    def test_float_rendering_round_trips(self):
        text = T1_TEXT.replace("edge e1 s t 1.0 directed", "edge e1 s t 0.30000000000000004 directed")
        inst = parse_instance(text)
        assert inst.network.edge("e1").capacity == 0.30000000000000004
        assert "0.30000000000000004" in serialize_instance(inst)


class TestInstanceFields:
    """Only what ``parse_instance`` can read back is accepted, naming the field."""

    @pytest.mark.parametrize(
        "name, message",
        [("my inst", "name: 'my inst'"), ("", "name: ''"), ("a#b", "name: 'a#b'")],
        ids=["whitespace", "empty", "hash"],
    )
    def test_name_must_be_one_token(self, name, message):
        with pytest.raises(ValueError, match=message):
            instance_from_system(t1_system(), name)

    @pytest.mark.parametrize(
        "ids, message",
        [
            (("c 1", "c2"), "commodity_ids: 'c 1' is not one token"),
            (("", "c2"), "commodity_ids: '' is not one token"),
            (("c1", "#c2"), "commodity_ids: '#c2' is not one token"),
            (("c1", "c1"), "commodity_ids: 'c1' is repeated"),
            (("c1",), "commodity_ids: 1 ids for 2 commodities"),
        ],
        ids=["whitespace", "empty", "hash", "repeated", "short"],
    )
    def test_commodity_ids(self, ids, message):
        with pytest.raises(ValueError, match=message):
            instance_from_system(t1_system(), "t1", ids)

    @pytest.mark.parametrize(
        "node, edge, message",
        [
            ("s t", "e1", "network node id: 's t' is not one token"),
            ("s", "e#1", "network edge id: 'e#1' is not one token"),
        ],
        ids=["node-whitespace", "edge-hash"],
    )
    def test_network_ids(self, node, edge, message):
        net = make_network([node, "t"], [(edge, node, "t", 1.0, True)], [(node, "t", 1.0)])
        with pytest.raises(ValueError, match=message):
            instance_from_system(make_system(net, [[[edge]]]), "x")

    def test_network_must_be_the_path_systems(self):
        # t1's paths written over t2's edges would not read back; an equal
        # network built apart is the same network.
        with pytest.raises(ValueError, match="^network: not the network of path_system$"):
            Instance("mix", None, t2_system().network, t1_system(), ("c1", "c2"))
        inst = Instance("t1", None, t1_system().network, t1_system(), ("c1", "c2"))
        assert serialize_instance(parse_instance(serialize_instance(inst))) == serialize_instance(inst)

    def test_accepted_instance_round_trips(self):
        inst = instance_from_system(t2_system(), 'a,"b"', ("c,1", 'c"2'))
        text = serialize_instance(inst)
        assert serialize_instance(parse_instance(text)) == text


class TestSolutionFile:
    def test_values_reproduced_exactly(self, fixtures):
        inst = fixtures[0]
        report = solve(inst.path_system, 0.05, subroutine="oracle")
        data = parse_solution(serialize_solution(report, inst))
        assert data.instance == "t1"
        assert data.scalars["eta"] == report.eta
        assert data.scalars["eps"] == report.eps
        assert data.scalars["value"] == report.value
        assert data.scalars["value_lower"] == report.value_lower
        assert data.scalars["value_upper"] == report.value_upper
        assert data.scalars["min_ratio"] == report.min_ratio_value
        assert data.counters["l_star"] == report.l_star
        assert data.counters["h_star"] == report.h_star
        assert data.counters["subroutine_calls"] == report.subroutine_calls
        for ci, row in enumerate(report.flow.values, start=1):
            for pj, value in enumerate(row):
                assert data.flows[(inst.commodity_id(ci), pj)] == value

    def test_no_wall_time_in_file(self, fixtures):
        inst = fixtures[2]
        report = solve(inst.path_system, 0.25, subroutine="oracle")
        assert "wall" not in serialize_solution(report, inst)

    def test_plain_tuple_steps_solve_alike(self):
        # A plain (edge_id, forward) step validates like a Traversal, so every
        # reader must take it too.
        system = t2_system()
        plain = PathSystem(system.network, tuple(
            tuple(Path(p.commodity, tuple(tuple(step) for step in p.steps)) for p in group)
            for group in system.paths
        ))
        assert type(plain.paths[0][0].steps[0]) is tuple
        texts = []
        for each in (system, plain):
            inst = instance_from_system(each, "t2")
            report = solve(each, 0.1, subroutine="oracle")
            texts.append((serialize_instance(inst), serialize_solution(report, inst)))
        assert texts[0] == texts[1]

    def test_malformed_solution_rejected(self):
        with pytest.raises(InstanceError, match="missing 'format"):
            parse_solution("value 1.0\n")
        with pytest.raises(InstanceError, match="line 2: malformed"):
            parse_solution("format concurflow-solution 1\nflow c1 zero\n")
        # A record with a token more or fewer than its grammar is not read in part.
        for record in ["instance a extra", "eta 0.1 junk", "l_star 3 4", "branch c1 0.5 0.7",
                       "flow c1 0 0.5 9", "instance", "eta", "branch c1", "flow c1 0"]:
            kind = record.split()[0]
            with pytest.raises(InstanceError, match=f"^line 2: malformed '{kind}' record$"):
                parse_solution(f"format concurflow-solution 1\n{record}\n")

    @pytest.mark.parametrize(
        "record", ["value nan", "eta inf", "flow c1 0 inf", "branch c1 -inf", "min_ratio NaN"]
    )
    def test_non_finite_number_rejected(self, record):
        kind, number = record.split()[0], float(record.split()[-1])
        with pytest.raises(InstanceError, match=f"^line 3: {kind} must be finite, got {number}$"):
            parse_solution(f"format concurflow-solution 1\ninstance x\n{record}\n")

    @pytest.mark.parametrize(
        "first, second",
        [
            ("l_star 3", "l_star 4"),
            ("value 1.0", "value 1.0"),
            ("instance x", "instance y"),
            ("branch c1 0.5", "branch c1 0.25"),
            ("flow c1 0 0.5", "flow c1 00 0.5"),
        ],
    )
    def test_repeated_record_rejected(self, first, second):
        kind = first.split()[0]
        text = f"format concurflow-solution 1\n{first}\nbranch c2 1.0\n{second}\n"
        with pytest.raises(InstanceError, match=f"^line 4: repeated '{kind}' record$"):
            parse_solution(text)

    def test_repeated_header_rejected(self):
        # A second header is named as a repeat before its arguments are read.
        for version in (1, 2):
            text = f"format concurflow-solution 1\nformat concurflow-solution {version}\n"
            with pytest.raises(InstanceError, match="^line 2: repeated 'format' record$"):
                parse_solution(text)

    @pytest.mark.parametrize(
        "record, message",
        [
            ("l_star -3", "l_star must be >= 0, got -3"),
            ("subroutine_calls -1", "subroutine_calls must be >= 0, got -1"),
            ("flow c1 -1 0.5", "flow path index must be >= 0, got -1"),
            ("flow c1 0 -2.0", "flow must be >= 0, got -2.0"),
            ("branch c1 -7.5", "branch must be >= 0, got -7.5"),
        ],
    )
    def test_negative_number_rejected(self, record, message):
        # solve writes levels >= 1, indices >= 0 and flows that Flow accepts.
        with pytest.raises(InstanceError, match=f"^line 3: {message}$"):
            parse_solution(f"format concurflow-solution 1\ninstance x\n{record}\n")

    def test_negative_zero_and_signed_scalars_read(self):
        data = parse_solution(
            "format concurflow-solution 1\nbranch c1 -0.0\nflow c1 0 -0.0\nvalue_lower -0.25\n"
        )
        assert data.branches["c1"] == 0.0 and data.flows[("c1", 0)] == 0.0
        assert data.scalars["value_lower"] == -0.25


@pytest.mark.parametrize("parse, fmt", [(parse_instance, "concurflow-instance"), (parse_solution, "concurflow-solution")])
@pytest.mark.parametrize(
    "body, message",
    [
        ("format {fmt} 2\n", "line 1: unsupported format '{fmt} 2'"),
        ("  # a comment\n\nformat {fmt} 1 # trailing\nbogus 1\n", "line 4: unknown record 'bogus'"),
        ("# only a comment\n\n", "missing 'format {fmt} 1' header"),
    ],
    ids=["version", "unknown", "no-header"],
)
def test_both_parsers_share_the_record_rules(parse, fmt, body, message):
    with pytest.raises(InstanceError, match=f"^{message.format(fmt=fmt)}$"):
        parse(body.format(fmt=fmt))


# --- parse_instance against the parser as it stood before paths reached the
# path system as raw edge ids: it oriented every path line in file order with
# infer_traversals, then built the system from Paths. Kept verbatim. ---


def reference_parse_instance(text: str) -> Instance:
    """Parse instance text into a validated :class:`Instance`."""
    name = "unnamed"
    seed: int | None = None
    nodes: list[str] = []
    node_lines: dict[str, int] = {}
    edges: list[Edge] = []
    edge_lines: dict[str, int] = {}
    commodity_rows: list[tuple[str, str, str, float]] = []
    commodity_line: dict[str, int] = {}
    path_rows: list[tuple[int, str, list[str]]] = []
    saw_format = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind == "format":
            if args != [FORMAT_INSTANCE, FORMAT_VERSION]:
                raise InstanceError(lineno, f"unsupported format {' '.join(args)!r}")
            saw_format = True
        elif kind == "name":
            if len(args) != 1:
                raise InstanceError(lineno, "name takes exactly one token")
            name = args[0]
        elif kind == "seed":
            try:
                (seed_text,) = args
                seed = int(seed_text)
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
            if eid in edge_lines:
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
            edge_lines[eid] = lineno
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
        elif kind == "path":
            if len(args) < 2:
                raise InstanceError(lineno, "path takes: commodity-id edge-id...")
            cid, edge_ids = args[0], args[1:]
            if cid not in commodity_line:
                raise InstanceError(lineno, f"unknown commodity id {cid!r}")
            for eid in edge_ids:
                if eid not in edge_lines:
                    raise InstanceError(lineno, f"unknown edge id {eid!r}")
            path_rows.append((lineno, cid, edge_ids))
        else:
            raise InstanceError(lineno, f"unknown record {kind!r}")

    if not saw_format:
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
    groups: list[list[Path]] = [[] for _ in commodity_rows]
    group_lines: list[list[int]] = [[] for _ in commodity_rows]
    for lineno, cid, edge_ids in path_rows:
        ci = index_of[cid]
        source = network.commodities[ci - 1].source
        try:
            steps = infer_traversals(network, source, edge_ids)
        except ModelError as exc:
            raise InstanceError(lineno, f"path for {cid!r}: {exc}") from None
        groups[ci - 1].append(Path(ci, steps))
        group_lines[ci - 1].append(lineno)

    try:
        system = PathSystem(network, tuple(tuple(g) for g in groups))
    except PathRuleError as exc:
        raise InstanceError(group_lines[exc.commodity - 1][exc.index], str(exc)) from None
    except ModelError as exc:
        raise InstanceError(None, str(exc)) from None
    return Instance(name, seed, network, system, commodity_ids)


# Lines that break the format or a path rule, each at the place it is drawn to.
MALFORMED_LINES = [
    "path c1",
    "path nosuch e0",
    "widget x",
    "node v0",
    "edge e0 v0 v1 1.0 directed",
    "commodity c1 v0 v1 1.0",
    "seed x",
]


@st.composite
def instance_text(draw):
    """A small instance whose path lines interleave across commodities, with
    up to two bad path lines or malformed lines among them."""
    nodes = [f"v{i}" for i in range(draw(st.integers(min_value=2, max_value=5)))]
    edges = [
        (f"e{i}", draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)),
         draw(st.sampled_from(["0.0", "1.0", "2.5"])),
         draw(st.sampled_from(["directed", "undirected"])))
        for i in range(draw(st.integers(min_value=1, max_value=7)))
    ]
    ends = [(draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    network = Network(
        tuple(nodes),
        tuple(Edge(e, t, h, float(c), m == "directed") for e, t, h, c, m in edges),
        tuple(Commodity(i, s, t, 1.0) for i, (s, t) in enumerate(ends, start=1)),
    )
    paths = []
    for com in network.commodities:
        for path in enumerate_paths(network, com, len(nodes), limit=3):
            paths.append(f"path c{com.index} {' '.join(path.edge_ids())}")
    paths = draw(st.permutations(paths))
    ids = [edge[0] for edge in edges] + ["zz"]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        kind = draw(st.sampled_from(["malformed", "random", "chained", "duplicate", "prefix"]))
        c = draw(st.integers(min_value=1, max_value=len(ends)))
        if kind == "malformed":
            line = draw(st.sampled_from(MALFORMED_LINES))
        elif kind == "random":
            walk = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4))
            line = f"path c{c} " + " ".join(walk)
        elif kind == "chained" or not paths:
            # A walk from the source that chains: it may end off the sink,
            # repeat a node or cross a zero-capacity edge.
            current, walk = ends[c - 1][0], []
            for _ in range(draw(st.integers(min_value=1, max_value=4))):
                leaving = [
                    e for e in edges
                    if e[1] == current or (e[4] == "undirected" and e[2] == current)
                ]
                if not leaving:
                    break
                edge = draw(st.sampled_from(leaving))
                walk.append(edge[0])
                current = edge[2] if edge[1] == current else edge[1]
            line = f"path c{c} " + " ".join(walk or ["zz"])
        elif kind == "duplicate":
            line = draw(st.sampled_from(paths))
        else:  # a valid path cut short, or left with its commodity id only
            line = draw(st.sampled_from(paths)).rsplit(" ", 1)[0]
        paths.insert(draw(st.integers(min_value=0, max_value=len(paths))), line)
    head = [f"format {FORMAT_INSTANCE} {FORMAT_VERSION}", "name gen"]
    head += [f"node {node}" for node in nodes]
    head += [f"edge {' '.join(edge)}" for edge in edges]
    head += [f"commodity c{i} {s} {t} 1.0" for i, (s, t) in enumerate(ends, start=1)]
    return "\n".join(head + paths) + "\n"


def parse_outcome(parse, text):
    try:
        instance = parse(text)
    except InstanceError as exc:
        return str(exc), exc.line
    steps = [[[(s.edge_id, s.forward) for s in path.steps] for path in group]
             for group in instance.path_system.paths]
    return instance, steps


UNKNOWN_EDGE_THEN_MALFORMED = T1_TEXT + "path c1 e9\npath c1\n"


@settings(max_examples=300, deadline=None)
@given(instance_text())
@example(UNKNOWN_EDGE_THEN_MALFORMED)
@example(T1_TEXT.replace("path c1 e1", "path c2 e1\npath c1 e1 e1"))
# A path of c1 ends off its sink; a later one of c2 does not chain.
@example(TestParse.PATH_RULES_TEXT + "path c1 e1 e2\npath c2 e2\n")
def test_parse_matches_reference_parser(text):
    assert parse_outcome(parse_instance, text) == parse_outcome(reference_parse_instance, text)


def test_unknown_edge_raises_at_its_line_before_a_later_malformed_line():
    with pytest.raises(InstanceError) as info:
        parse_instance(UNKNOWN_EDGE_THEN_MALFORMED)
    assert (str(info.value), info.value.line) == ("line 10: unknown edge id 'e9'", 10)
