"""Smoke runs of the benchmark in a copy of the checkout.

``perfbench/run.py --trace 1`` passes ``solve`` a 4-argument callable
subroutine and patches the pipeline's module-level names, so these runs
catch a change that breaks either. The copy keeps the trace files it writes
out of the repository's ``perfbench/``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["corpus-oracle", "fptas-search"])
def test_traced_run_is_correct(tmp_path, workload):
    skip = shutil.ignore_patterns("out", "__pycache__")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    proc = subprocess.run(
        [
            sys.executable, str(tmp_path / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(proc.stdout.strip().splitlines()[-1])
    assert outcome["correct"], proc.stderr
    assert outcome["failed"] == 0
