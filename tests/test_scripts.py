"""Smoke tests: the experiment scripts run end to end on tiny instances."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, expect", [
    ("heuristic_gap.py", ["--instances", "3", "--n-max", "6", "--k", "2"],
     "greedy/exact:"),
    # --n-max is an explicit instance size, so n=10 is solved exactly
    ("heuristic_gap.py", ["--instances", "12", "--n-max", "10", "--k", "2",
                          "--seed", "0"], "greedy/exact:"),
    ("reverse_pipeline.py", ["--n", "5", "--k", "2", "--q-grid", "16"],
     "structure preserved"),
], ids=["heuristic_gap", "heuristic_gap_n_max_10", "reverse_pipeline"])
def test_script_runs(script, args, expect):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert expect in res.stdout
