import pytest

from concurflow.instance_io import (
    Instance,
    InstanceError,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from concurflow.netmodel import Path, PathSystem
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
        text = "format concurflow-solution 1\nformat concurflow-solution 1\n"
        with pytest.raises(InstanceError, match="^line 2: repeated 'format' record$"):
            parse_solution(text)
