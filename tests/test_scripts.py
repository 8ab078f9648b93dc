"""Smoke runs of the scripts under scripts/, each in its own interpreter."""

import json
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
    for record in records:
        kinds = {call[0] for call in record["calls"]}
        if record["workload"] == "packing-fullrun":
            assert kinds == {"pack"} and "solve_mmfpb" in record
        else:
            assert record["solution"].startswith("format concurflow-solution 1\n")
            assert "lp" in kinds and "lp_emcfpsc" in record
        if record["workload"] == "fptas-search":
            assert "pack" in kinds
