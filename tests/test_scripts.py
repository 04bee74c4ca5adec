"""Smoke tests: the experiment scripts run end to end on tiny instances."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the ratio summary, then the count of instances local search left short
GAP_SUMMARY = (r"greedy/exact: .*\nlocal/exact: .*\nlocal < exact on \d+ of "
               r"{} instances(; largest gap \d+\.\d{{4}} nats "
               r"\(instance \d+, n=\d+\))?\n$")
# each instance's greedy, local and exact scores, then the structure verdict
REVERSE_SCORES = (r"\nintended scores:  greedy \d+\.\d{4}, local \d+\.\d{4}, "
                  r"exact \d+\.\d{4}\n[\s\S]*\ninduced scores:   greedy "
                  r"\d+\.\d{6}, local \d+\.\d{6}, exact \d+\.\d{6}\n"
                  r"[\s\S]*\nstructure preserved\n$")


@pytest.mark.parametrize("script, args, expect", [
    ("heuristic_gap.py", ["--instances", "3", "--n-max", "6", "--k", "2"],
     GAP_SUMMARY.format(3)),
    # --n-max is an explicit instance size, so n=10 is solved exactly
    ("heuristic_gap.py", ["--instances", "12", "--n-max", "10", "--k", "2",
                          "--seed", "0"], GAP_SUMMARY.format(12)),
    ("reverse_pipeline.py", ["--n", "5", "--k", "2", "--q-grid", "16"],
     REVERSE_SCORES),
], ids=["heuristic_gap", "heuristic_gap_n_max_10", "reverse_pipeline"])
def test_script_runs(script, args, expect):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert re.search(expect, res.stdout), res.stdout
