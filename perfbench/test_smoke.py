"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest perfbench/test_smoke.py

The smoke run drives the real CLI on all three workloads, traced and not,
and must pass every output check and report exactly the metrics that
BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402


def _declared(section: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def test_smoke_runs_every_workload_with_declared_metrics():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    runs, total = lines[:-1], lines[-1]
    assert {(r["details"]["workload"], r["details"]["trace"]) for r in runs} == {
        (w, t) for w in ("learn_csv", "solve_weights", "reverse_parity")
        for t in (False, True)}
    for r in runs:
        res = r["result"]
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        want = _declared("per_layer" if r["details"]["trace"] else "end_to_end")
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert total["correct"] and total["failed"] == 0


def test_inputs_depend_only_on_the_seed(tmp_path):
    for workload in ("learn_csv", "solve_weights", "reverse_parity"):
        a = inputs.build(workload, 7, tmp_path / "a" / workload, "smoke")
        b = inputs.build(workload, 7, tmp_path / "b" / workload, "smoke")
        c = inputs.build(workload, 8, tmp_path / "c" / workload, "smoke")
        assert a["sha256"] == b["sha256"]
        assert a["sha256"] != c["sha256"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "learn_csv", "--seed", "1", "--seconds", "1",
                          "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
