"""Smoke runs of the scripts under scripts/, each in its own interpreter."""

import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "name, args, expected",
    [
        (
            "run_corpus_compare.py",
            ("--count", "3", "--etas", "0.2", "--subroutine", "fptas", "--bound-range", "0.2", "0.6"),
            "0 failures",
        ),
        ("growth_study.py", ("--halvings", "1"), "packing iterations"),
    ],
)
def test_script_runs(name, args, expected):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout


def test_byte_identity_records_every_call(tmp_path):
    out = tmp_path / "ids.json"
    args = ("--src", str(ROOT / "src"), "--seeds", "1", "--limit", "2", "--out", str(out))
    proc = run_script("byte_identity.py", *args)
    assert proc.returncode == 0, proc.stderr
    records = json.loads(out.read_text())
    workloads = ("corpus-oracle", "fptas-search", "packing-fullrun", "large-oracle")
    assert [r["workload"] for r in records] == [name for name in workloads for _ in range(2)]
    # The cases of one instance text differ only in eta or eps, so they share
    # a system digest; two relabelled copies of one instance do not.
    by_instance = {}
    for record in records:
        key = (record["workload"], record["case"].split("@")[0])
        assert len(record["system"]) == 64
        assert by_instance.setdefault(key, record["system"]) == record["system"]
    large = [r["system"] for r in records if r["workload"] == "large-oracle"]
    assert large[0] != large[1]
    for record in records:
        kinds = {call[0] for call in record["calls"]}
        if record["workload"] == "packing-fullrun":
            assert kinds == {"pack", "layout"} and "solve_mmfpb" in record and "checks" not in record
        else:
            assert record["solution"].startswith("format concurflow-solution 1\n")
            assert {"lp", "layout"} <= kinds and "lp_emcfpsc" in record
            names = ["feasible", "value_sandwich", "min_ratio_lb", "lambda_localized", "vopt_localized"]
            assert [name for name, *_ in record["checks"]] == names
            for _, passed, margin in record["checks"]:
                assert passed is True and math.isfinite(float(margin))
        layouts = [call for call in record["calls"] if call[0] == "layout"]
        assert all(len(call) == 2 and len(call[1]) == 64 for call in layouts)
        if record["workload"] in ("fptas-search", "packing-fullrun"):
            # One layout digest per engine call; here every engine call packs.
            assert len(layouts) == sum(call[0] == "pack" for call in record["calls"])
        if record["workload"] == "fptas-search":
            assert "pack" in kinds


def test_byte_identity_diff_counts_what_differs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("--src", str(ROOT / "src"), "--seeds", "1", "--limit", "1", "--out", str(a))
    proc = run_script("byte_identity.py", *args, "--workloads", "corpus-oracle", "packing-fullrun")
    assert proc.returncode == 0, proc.stderr
    proc = run_script("byte_identity.py", "--diff", str(a), str(a))
    assert proc.returncode == 0, proc.stderr
    none = (
        "system 0, lp_emcfpsc 0, solve_mmfpb 0, checks 0, calls 0; calls differing only in "
        "pack steps: 0 cases, 0 pack entries, 0 -> 0 iterations; solution lines differing: none"
    )
    assert proc.stdout.splitlines() == [
        f"{name}: 1 cases in both, 0 in one only; cases differing in {none}"
        for name in ("corpus-oracle", "packing-fullrun")
    ]
    records = json.loads(a.read_text())
    corpus, packing = records
    corpus["calls"] = corpus["calls"][1:]
    corpus["solution"] = corpus["solution"].replace("\nsubroutine_calls ", "\nsubroutine_calls 9")
    corpus["solution"] = corpus["solution"].replace("\nflow ", "\nflow x", 2)
    packing["solve_mmfpb"] += " "
    b.write_text(json.dumps(records + [{**packing, "seed": 2}]))
    proc = run_script("byte_identity.py", "--diff", str(a), str(b))
    assert proc.returncode == 1, proc.stderr
    no_steps = "calls differing only in pack steps: 0 cases, 0 pack entries, 0 -> 0 iterations"
    assert proc.stdout.splitlines() == [
        "corpus-oracle: 1 cases in both, 0 in one only; cases differing in system 0, "
        f"lp_emcfpsc 0, solve_mmfpb 0, checks 0, calls 1; {no_steps}; "
        "solution lines differing: subroutine_calls 1, flow 2",
        "packing-fullrun: 1 cases in both, 1 in one only; cases differing in system 0, "
        f"lp_emcfpsc 0, solve_mmfpb 1, checks 0, calls 0; {no_steps}; solution lines differing: none",
    ]


def test_byte_identity_diff_says_how_far_lp_emcfpsc_moved(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("--src", str(ROOT / "src"), "--seeds", "1", "--limit", "3", "--out", str(a))
    proc = run_script("byte_identity.py", *args, "--workloads", "corpus-oracle")
    assert proc.returncode == 0, proc.stderr
    records = json.loads(a.read_text())
    # The first case's total moves by 1.5e-15 relative and the second's
    # ratio by one step; the third is left as it is.
    (lam, total, values), second = (ast.literal_eval(r["lp_emcfpsc"]) for r in records[:2])
    records[0]["lp_emcfpsc"] = repr((lam, total * (1 + 1.5e-15), values))
    records[1]["lp_emcfpsc"] = repr((math.nextafter(second[0], 0.0), *second[1:]))
    b.write_text(json.dumps(records))
    proc = run_script("byte_identity.py", "--diff", str(a), str(b))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "corpus-oracle: 3 cases in both, 0 in one only; cases differing in system 0, "
        "lp_emcfpsc 2 (lambda 1, V_opt up to 1.6e-15 relative), solve_mmfpb 0, checks 0, "
        "calls 0; calls differing only in pack steps: 0 cases, 0 pack entries, 0 -> 0 iterations; "
        "solution lines differing: none"
    ]


def test_byte_identity_diff_counts_check_margins(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("--src", str(ROOT / "src"), "--seeds", "1", "--limit", "2", "--out", str(a))
    proc = run_script("byte_identity.py", *args, "--workloads", "corpus-oracle")
    assert proc.returncode == 0, proc.stderr
    records = json.loads(a.read_text())
    # The first case's feasible margin moves by one step; nothing else changes.
    name, passed, margin = records[0]["checks"][0]
    assert name == "feasible"
    records[0]["checks"][0] = [name, passed, repr(math.nextafter(float(margin), -math.inf))]
    b.write_text(json.dumps(records))
    proc = run_script("byte_identity.py", "--diff", str(a), str(b))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "corpus-oracle: 2 cases in both, 0 in one only; cases differing in system 0, "
        "lp_emcfpsc 0, solve_mmfpb 0, checks 1, calls 0; calls differing only in pack steps: "
        "0 cases, 0 pack entries, 0 -> 0 iterations; solution lines differing: none"
    ]


def test_byte_identity_diff_counts_pack_iterations(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("--src", str(ROOT / "src"), "--seeds", "1", "--limit", "3", "--out", str(a))
    proc = run_script("byte_identity.py", *args, "--workloads", "fptas-search")
    assert proc.returncode == 0, proc.stderr
    records = json.loads(a.read_text())
    packs = [
        [i for i, call in enumerate(record["calls"]) if call[0] == "pack"] for record in records
    ]
    assert all(len(found) >= 2 for found in packs)
    # Fewer iterations in two pack entries of the first case; in the second,
    # fewer in one pack entry and a new layout digest, which is not a
    # step-only change.
    first, second = (record["calls"] for record in records[:2])
    iterations = [first[i][1] for i in packs[0][:2]]
    for i in packs[0][:2]:
        first[i][1] -= 7
    second[packs[1][0]][1] -= 7
    layout = next(i for i, call in enumerate(second) if call[0] == "layout")
    second[layout][1] = "0" * 64
    b.write_text(json.dumps(records))
    proc = run_script("byte_identity.py", "--diff", str(a), str(b))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "fptas-search: 3 cases in both, 0 in one only; cases differing in system 0, "
        "lp_emcfpsc 0, solve_mmfpb 0, checks 0, calls 2; calls differing only in pack steps: "
        f"1 cases, 2 pack entries, {sum(iterations)} -> {sum(iterations) - 14} iterations; "
        "solution lines differing: none"
    ]


def load_byte_identity():
    spec = importlib.util.spec_from_file_location("byte_identity", ROOT / "scripts" / "byte_identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_byte_identity_records_what_solve_runs():
    from concurflow.solver import solve
    from conftest import t1_system

    calls = []
    with load_byte_identity().recording(calls):
        report = solve(t1_system(), 0.25)
    packs = [call for call in calls if call[0] == "pack"]
    assert len(packs) == report.subroutine_calls
    assert len(packs) == sum(call[0] == "layout" for call in calls)


@pytest.mark.parametrize("workload", ["corpus-oracle", "packing-fullrun"])
def test_ab_compare_runs_both_sides(workload):
    src = str(ROOT / "src")
    args = ("--a", src, "--b", src, "--workload", workload, "--rounds", "2", "--limit", "3")
    proc = run_script("ab_compare.py", *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"{workload} seed 1: 3 cases x 2 rounds, outputs equal"
    assert [line[:2] for line in lines[1:3]] == ["A ", "B "]
    assert all("median" in line and "p75" in line and "mean" in line for line in lines[1:3])
    assert lines[3].startswith("median per-operation ratio B/A: ")


def test_ab_compare_rejects_unknown_workload():
    src = str(ROOT / "src")
    proc = run_script("ab_compare.py", "--a", src, "--b", src, "--workload", "nope")
    assert proc.returncode == 2
    assert "unknown workload 'nope'" in proc.stderr
