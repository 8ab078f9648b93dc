import builtins
import csv
import math

import pytest

from concurflow.cli import cli_main
from concurflow.compare import CSV_COLUMNS, csv_header, row_to_csv, run_compare
from concurflow.instance_io import parse_instance, parse_solution, serialize_instance, serialize_solution
from concurflow.simplex import left_sum
from concurflow.solver import solve
from test_instance_io import instance_from_system
from conftest import make_network, make_system, t1_system, t2_system


@pytest.fixture
def t1_instance():
    return instance_from_system(t1_system(), "t1")


@pytest.fixture
def t2_instance():
    return instance_from_system(t2_system(), "t2")


@pytest.fixture
def t1_file(tmp_path, t1_instance):
    path = tmp_path / "t1.flow"
    path.write_text(serialize_instance(t1_instance))
    return str(path)


class TestRunCompare:
    def test_t2_all_checks_pass(self, t2_instance):
        row = run_compare(t2_instance, 0.05, subroutine="oracle")
        assert row.status == "ok"
        assert row.all_passed
        assert row.lambda_star == pytest.approx(0.5, abs=1e-9)
        assert row.v_opt == pytest.approx(1.5, abs=1e-9)
        assert len(row.checks) == 5

    def test_t1_wider_eta(self, t1_instance):
        row = run_compare(t1_instance, 0.2, subroutine="oracle")
        assert row.all_passed
        assert row.lambda_star == pytest.approx(1 / 3, abs=1e-9)

    def test_csv_row_matches_columns(self, t1_instance):
        row = run_compare(t1_instance, 0.1, subroutine="oracle")
        assert len(csv_header().split(",")) == len(CSV_COLUMNS)
        assert len(row_to_csv(row).split(",")) == len(CSV_COLUMNS)

    def test_csv_header_text(self):
        assert csv_header() == (
            "instance,eta,k,sum_bounds,lambda_star,v_opt,l_star,h_star,value,min_ratio,"
            "feasible_ok,value_sandwich_ok,min_ratio_lb_ok,lambda_localized_ok,"
            "vopt_localized_ok,margin_feasible,margin_value_lower,margin_value_upper,"
            "margin_min_ratio,margin_lambda,margin_vopt,solver_seconds,oracle_seconds,status"
        )

    @pytest.mark.parametrize(
        "oracle_fails, expected",
        [
            (False, "t1,0.1,2,3.0,0.3333333333333333,1.0,4,2,1.0,0.30000000000000004,"
                    "1,1,1,1,1,0.0,0.19999999999999996,0.10000000000000009,0.2,"
                    "0.06666666666666671,0.40000000000000013,ok"),
            (True, "t1,0.1,2,3.0,,,4,2,1.0,0.30000000000000004,1,1,1,0,0,0.0,"
                   "0.19999999999999996,0.10000000000000009,0.2,nan,nan,oracle-failed"),
        ],
    )
    def test_csv_row_fields(self, t1_instance, monkeypatch, oracle_fails, expected):
        import concurflow.compare as compare_mod
        from concurflow.oracle import OracleError

        if oracle_fails:
            def boom(system, bounds):
                raise OracleError("forced failure")

            monkeypatch.setattr(compare_mod, "lp_emcfpsc", boom)
        fields = row_to_csv(run_compare(t1_instance, 0.1, subroutine="oracle")).split(",")
        timed = [CSV_COLUMNS.index("solver_seconds"), CSV_COLUMNS.index("oracle_seconds")]
        for i in timed:
            float(fields[i])
        assert ",".join(f for i, f in enumerate(fields) if i not in timed) == expected

    def test_csv_quotes_only_names_that_need_it(self):
        name = 'a,"b"'
        row = run_compare(instance_from_system(t1_system(), name), 0.1, subroutine="oracle")
        line = row_to_csv(row)
        (fields,) = csv.reader([line])
        assert len(fields) == len(CSV_COLUMNS)
        assert fields[0] == name
        # Every other field is written as it stands, so plain rows keep their bytes.
        assert line == '"a,""b""",' + ",".join(fields[1:])

    def test_oracle_failure_marks_row(self, t1_instance, monkeypatch):
        import concurflow.compare as compare_mod
        from concurflow.oracle import OracleError

        def boom(system, bounds):
            raise OracleError("forced failure")

        monkeypatch.setattr(compare_mod, "lp_emcfpsc", boom)
        row = run_compare(t1_instance, 0.1, subroutine="oracle")
        assert row.oracle_failed
        assert row.status == "oracle-failed"
        # Solver results still reported.
        assert row.report.l_star >= 1
        assert not row.check("lambda_localized").passed

    def test_warns_on_large_instance(self, t1_instance, monkeypatch):
        import concurflow.compare as compare_mod

        monkeypatch.setattr(compare_mod, "ORACLE_SIZE_WARNING", 1)
        with pytest.warns(UserWarning, match="paths"):
            run_compare(t1_instance, 0.2, subroutine="oracle")


class TestCliSolve:
    def test_writes_solution_file(self, tmp_path, t1_file):
        out = tmp_path / "sol.txt"
        code = cli_main(
            ["solve", "--input", t1_file, "--eta", "0.1", "--output", str(out),
             "--subroutine", "oracle"]
        )
        assert code == 0
        data = parse_solution(out.read_text())
        assert data.counters["l_star"] == 4
        assert data.counters["h_star"] == 2

    def test_missing_file(self):
        assert cli_main(["solve", "--input", "no-such.flow", "--eta", "0.1"]) == 1

    def test_bad_eta(self, t1_file):
        assert cli_main(["solve", "--input", t1_file, "--eta", "1.5"]) == 1

    def test_eta_too_small_for_packing(self, t1_file, capsys):
        # The searches could make about 4e300 calls: a usage error.
        assert cli_main(["solve", "--input", t1_file, "--eta", "1e-300"]) == 1
        assert "is too small" in capsys.readouterr().err

    def test_eta_too_small_for_the_oracle(self, t1_file, capsys):
        # The oracle has no iteration cap to trip; the call limit rejects it.
        args = ["solve", "--input", t1_file, "--subroutine", "oracle", "--eta", "1e-7"]
        assert cli_main(args) == 1
        assert "eta 1e-07 is too small" in capsys.readouterr().err

    def test_unknown_flag(self, t1_file, capsys):
        code = cli_main(["solve", "--input", t1_file, "--eta", "0.1", "--frobnicate"])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_parse_error_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.flow"
        bad.write_text("format concurflow-instance 1\nnode a\nnode a\n")
        assert cli_main(["solve", "--input", str(bad), "--eta", "0.1"]) == 1

    def test_internal_error_maps_to_3(self, t1_file, monkeypatch):
        import concurflow.cli as cli_mod

        def boom(system, eta, subroutine="fptas"):
            raise RuntimeError("wedged")

        monkeypatch.setattr(cli_mod, "solve", boom)
        assert cli_main(["solve", "--input", t1_file, "--eta", "0.1"]) == 3


class TestCliOracle:
    @pytest.mark.parametrize(
        "problem,expect",
        [
            ("mmfp", "value 1.0"),
            ("mmfpb", "value 1.0"),
            ("emcfp", "lambda_star 0.333333333"),
            ("emcfpsc", "value 1.0"),
        ],
    )
    def test_problems(self, tmp_path, t1_file, problem, expect):
        out = tmp_path / f"{problem}.txt"
        code = cli_main(["oracle", "--input", t1_file, "--problem", problem, "--output", str(out)])
        assert code == 0
        assert expect in out.read_text()

    def test_unknown_problem(self, t1_file):
        assert cli_main(["oracle", "--input", t1_file, "--problem", "mcf"]) == 1

    @pytest.mark.parametrize("problem", ["mmfp", "mmfpb", "emcfp", "emcfpsc"])
    def test_output_bytes(self, tmp_path, problem):
        # Parallel edges of capacity 0.5 and 0.25 for c1, 1.0 for c2: every
        # optimum saturates all three, so each file is pinned byte for byte.
        net = make_network(
            ["s", "t"],
            [("e1", "s", "t", 0.5, True), ("e2", "s", "t", 0.25, True), ("e3", "s", "t", 1.0, True)],
            [("s", "t", 2.0), ("s", "t", 2.0)],
        )
        system = make_system(net, [[["e1"], ["e2"]], [["e3"]]])
        source, out = tmp_path / "parallel.flow", tmp_path / "out.txt"
        source.write_text(serialize_instance(instance_from_system(system, "parallel")))
        assert cli_main(["oracle", "--input", str(source), "--problem", problem, "--output", str(out)]) == 0
        flow = "branch c1 0.75\nbranch c2 1.0\nflow c1 0 0.5\nflow c1 1 0.25\nflow c2 0 1.0\n"
        body = {
            "mmfp": "value 1.75\n" + flow,
            "mmfpb": "value 1.75\n" + flow,
            "emcfp": "lambda_star 0.375\n",
            "emcfpsc": "lambda_star 0.375\nvalue 1.75\n" + flow,
        }[problem]
        header = f"format concurflow-oracle 1\ninstance parallel\nproblem {problem}\n"
        assert out.read_text() == header + body


class TestCliGen:
    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("a.flow", "b.flow"):
            path = tmp_path / name
            code = cli_main(
                ["gen", "--seed", "7", "--nodes", "6", "--edges", "9",
                 "--commodities", "2", "--max-paths", "4", "--output", str(path)]
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_env_seed_override(self, tmp_path, monkeypatch):
        direct = tmp_path / "direct.flow"
        assert cli_main(
            ["gen", "--seed", "3", "--nodes", "6", "--edges", "9",
             "--commodities", "2", "--max-paths", "4", "--output", str(direct)]
        ) == 0
        monkeypatch.setenv("CONCURFLOW_SEED", "3")
        overridden = tmp_path / "override.flow"
        assert cli_main(
            ["gen", "--seed", "99", "--nodes", "6", "--edges", "9",
             "--commodities", "2", "--max-paths", "4", "--output", str(overridden)]
        ) == 0
        assert direct.read_bytes() == overridden.read_bytes()

    def test_generated_instance_solvable(self, tmp_path):
        path = tmp_path / "gen.flow"
        assert cli_main(
            ["gen", "--seed", "5", "--nodes", "6", "--edges", "10",
             "--commodities", "2", "--max-paths", "3", "--output", str(path)]
        ) == 0
        inst = parse_instance(path.read_text())
        assert inst.path_system.path_count >= 2

    def test_impossible_generation(self):
        code = cli_main(
            ["gen", "--seed", "0", "--nodes", "2", "--edges", "1",
             "--commodities", "3", "--max-paths", "2"]
        )
        assert code == 1


class TestCliCompare:
    def test_exit_zero_and_csv(self, tmp_path, t1_file, capsys):
        csv_path = tmp_path / "rows.csv"
        code = cli_main(
            ["compare", "--input", t1_file, "--eta", "0.1",
             "--csv", str(csv_path), "--subroutine", "oracle"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 5
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == csv_header()
        assert lines[1].endswith(",ok")

    def test_check_failure_exit_two(self, t1_file, monkeypatch):
        import concurflow.cli as cli_mod
        from concurflow.compare import CheckResult, CompareRow

        real = cli_mod.run_compare

        def sabotaged(instance, eta, subroutine="fptas"):
            row = real(instance, eta, subroutine="oracle")
            checks = tuple(
                CheckResult(c.name, False, -1.0) if c.name == "min_ratio_lb" else c
                for c in row.checks
            )
            return CompareRow(
                row.instance, row.eta, row.k, row.sum_bounds, row.lambda_star,
                row.v_opt, row.report, checks, row.solver_seconds,
                row.oracle_seconds, row.oracle_failed,
            )

        monkeypatch.setattr(cli_mod, "run_compare", sabotaged)
        assert cli_main(["compare", "--input", t1_file, "--eta", "0.1"]) == 2


GEN_ARGS = ["gen", "--seed", "7", "--nodes", "6", "--edges", "9", "--commodities", "2", "--max-paths", "4"]


@pytest.mark.parametrize("command", ["solve", "oracle", "gen", "compare"])
def test_unwritable_output_is_usage_error(tmp_path, t1_file, capsys, command):
    # --output into a missing directory; --csv naming a directory.
    target = tmp_path if command == "compare" else tmp_path / "missing" / "out.txt"
    argv = {
        "solve": ["solve", "--input", t1_file, "--eta", "0.1", "--subroutine", "oracle", "--output"],
        "oracle": ["oracle", "--input", t1_file, "--problem", "mmfp", "--output"],
        "gen": [*GEN_ARGS, "--output"],
        "compare": ["compare", "--input", t1_file, "--eta", "0.1", "--subroutine", "oracle", "--csv"],
    }[command]
    assert cli_main([*argv, str(target)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {str(target)!r}: ")


REAL_SUM = sum


def compensated_sum(values, start=0):
    """Builtin ``sum`` as Python 3.12 computes it over floats: Neumaier's compensated sum.

    Any other input, or a start other than 0, goes to the real ``sum``.
    """
    values = list(values)
    if start != 0 or not values or not all(type(v) is float for v in values):
        return REAL_SUM(values, start)
    total = compensation = 0.0
    for v in values:
        t = total + v
        compensation += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


# The oracle run's scalar records on the instance below, as Python 3.10 and 3.11
# write them. Their eps and value interval rest on sum(b) = 0.9999999999999999,
# the left-to-right total, which a compensated sum would round to 1.0.
TEN_ORACLE_RECORDS = """eta 0.1
eps 0.10000000000000002
l_star 3
h_star 5
outer_iterations 3
inner_iterations 5
subroutine_calls 8
value 0.55
value_lower 0.4000000000000001
value_upper 0.7000000000000001
min_ratio 0.09999999999999999
min_ratio_lower -1.8
min_ratio_upper 0.30000000000000004
"""


def test_outputs_do_not_depend_on_builtin_sum(monkeypatch):
    # Ten bounds of 0.1 add up to 0.9999999999999999 left to right and to 1.0
    # compensated, which would move eps, the value interval and sum_bounds.
    assert (left_sum([0.1] * 10), compensated_sum([0.1] * 10)) == (0.9999999999999999, 1.0)
    nodes = ["s", "t"]
    edges = [(f"e{i}", "s", "t", 0.01 * i, True) for i in range(1, 11)]
    net = make_network(nodes, edges, [("s", "t", 0.1)] * 10)
    instance = instance_from_system(make_system(net, [[[f"e{i}"]] for i in range(1, 11)]), "ten")
    timed = [CSV_COLUMNS.index("solver_seconds"), CSV_COLUMNS.index("oracle_seconds")]

    def outputs():
        texts = []
        for subroutine in ("fptas", "oracle"):
            report = solve(instance.path_system, 0.1, subroutine=subroutine)
            fields = row_to_csv(run_compare(instance, 0.1, subroutine=subroutine)).split(",")
            texts += [serialize_solution(report, instance), [f for i, f in enumerate(fields) if i not in timed]]
        return texts

    plain = outputs()
    # The bytes themselves, so that an interpreter whose own sum compensates is checked too.
    fptas_text, fptas_row, oracle_text, oracle_row = plain
    assert "\neps 0.10000000000000002\n" in fptas_text
    assert oracle_text.startswith("format concurflow-solution 1\ninstance ten\n" + TEN_ORACLE_RECORDS)
    sum_bounds = CSV_COLUMNS.index("sum_bounds")
    assert fptas_row[sum_bounds] == oracle_row[sum_bounds] == "0.9999999999999999"
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert outputs() == plain
