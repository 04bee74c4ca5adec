"""The library calls the benchmark makes, run in process at smoke sizes.

``perfbench/replay.py`` replays each workload's CLI commands through the
package's public functions. Running it here means that removing or renaming
a function the benchmark calls fails these tests, not a benchmark run.
"""

import math
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import inputs  # noqa: E402
import replay  # noqa: E402


def _build(workload, tmp_path):
    inp = inputs.build(workload, 1, tmp_path / "inputs", "smoke")
    return {name: str(path) for name, path in inp["files"].items()}, inp["params"]


def test_replay_learn_csv(tmp_path):
    f, params = _build("learn_csv", tmp_path)
    doc = replay.replay_learn(replay.Tracer(), f["data"],
                              str(tmp_path / "structure.json"), params["k"],
                              "local")
    assert doc["method"] == "local_search" and doc["k"] == params["k"]
    assert math.isfinite(doc["score"])
    assert math.isfinite(doc["divergence_decomposed"])


def test_replay_solve_weights(tmp_path):
    f, params = _build("solve_weights", tmp_path)
    t = replay.Tracer()
    big = replay.replay_learn(t, f["w_big"], str(tmp_path / "big.json"), None,
                              "local")
    exact = replay.replay_learn(t, f["w_exact"], str(tmp_path / "exact.json"),
                                None, "exact", exact_limit=params["exact_n"])
    assert big["n"] == params["n"] and exact["n"] == params["exact_n"]
    assert "note" in big and "note" in exact
    assert t.counters["solvers.exact_states"] > 0


def test_replay_reverse_parity(tmp_path):
    f, params = _build("reverse_parity", tmp_path)
    t = replay.Tracer()
    sample = str(tmp_path / "sample.csv")
    prov = replay.replay_gen_parity(t, f["targets"], sample)
    assert prov["rows"] > 0
    structure = str(tmp_path / "structure.json")
    learned = replay.replay_learn(t, sample, structure, params["k"], "exact")
    report = replay.replay_eval(t, sample, structure,
                                str(tmp_path / "report.json"),
                                str(tmp_path / "model.json"))
    assert report["score"] == learned["score"]
    assert report["identity_residual"] <= 1e-9
    assert (tmp_path / "model.json").is_file()
