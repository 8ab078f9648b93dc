"""Smoke runs of the scripts under scripts/, each in its own interpreter."""

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
