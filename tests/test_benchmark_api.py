"""The library calls the benchmark makes, run in process at smoke sizes.

``perfbench/replay.py`` replays each workload's CLI commands through the
package's public functions, and ``perfbench/checks.py`` checks their outputs
against NumPy recomputations, running solvers of its own. Running both here
means that removing or renaming a function the benchmark calls, or changing
what an output means, fails these tests, not a benchmark run.
"""

import math
import sys
from pathlib import Path

import pytest

from hypertree.dataset import load_dataset
from hypertree.structure import load_ktree
from hypertree.weights import load_weights

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
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
    checks.learn_from_data(doc, checks.DataOracle(f["data"]), params["k"])


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
    checks.learn_from_weights(big, checks.load_json(f["w_big"]))
    wexact = checks.load_json(f["w_exact"])
    checks.learn_from_weights(exact, wexact)
    checks.solver_dominance(exact, wexact)


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
    oracle = checks.DataOracle(sample)
    checks.gen_parity(prov, oracle)
    checks.learn_from_data(learned, oracle, params["k"])
    checks.evaluation(report, learned, oracle, params["k"])


# Four kinds of bad file, as each loader meets them: a JSON document that is
# not an object, a missing field (a CSV record short of a cell), a field of
# the wrong type (a CSV cell that is not an integer) and a bad CSV record (an
# unterminated quote; a JSON syntax error to the JSON loaders).
NOT_AN_OBJECT = "[1, 2]"
BAD_RECORD = 'a,b\n"0,1\n'
BAD_FILES = {
    load_dataset: (NOT_AN_OBJECT, "a,b\n0\n", "a,b\n0,x\n", BAD_RECORD),
    load_weights: (NOT_AN_OBJECT, '{"k": 1}',
                   '{"k": "1", "n": 2, "weights": []}', BAD_RECORD),
    load_ktree: (NOT_AN_OBJECT, '{"k": 1, "n": 2}',
                 '{"k": 1, "n": 2, "seed": ["0", 1]}', BAD_RECORD),
}


@pytest.mark.parametrize("kind", range(4), ids=[
    "not-an-object", "missing-field", "wrong-type", "bad-csv-record"])
@pytest.mark.parametrize("load", BAD_FILES, ids=lambda f: f.__name__)
def test_loaders_name_the_file_at_fault(tmp_path, load, kind):
    path = tmp_path / "input"
    path.write_text(BAD_FILES[load][kind])
    with pytest.raises(ValueError) as exc:
        load(str(path))
    assert str(exc.value).startswith(f"{path}: "), exc.value
