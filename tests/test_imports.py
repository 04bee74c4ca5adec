"""Import cost and the package namespace.

The combinatorial path (help text, and learning from a weight file) must not
load NumPy; the package's top-level names load their module on first use
and still resolve to the same objects.
"""

import importlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypertree
from hypertree.weights import WeightFunction, weights_to_dict

SRC = Path(hypertree.__file__).resolve().parent.parent

# Runs the CLI as ``python -m hypertree.cli`` does and reports, after the
# command has exited, whether NumPy was ever imported.
PROBE = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('numpy loaded:', 'numpy' in sys.modules,"
    " file=sys.stderr))\n"
    "runpy.run_module('hypertree.cli', run_name='__main__', alter_sys=True)\n"
)

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "dataset": ["Dataset", "JointTable", "VariableSpec", "entropy",
                "joint_entropy", "load_dataset", "marginal"],
    "errors": ["GuardLimitError"],
    "paritygen": ["ParitySample", "TargetBiases", "bias_to_weight", "generate",
                  "realize_weights", "weight_to_bias"],
    "projection": ["NEG_INFINITY", "ProjectedModel", "divergence_decomposed",
                   "divergence_direct", "log_likelihood", "project"],
    "solvers": ["SolverResult", "chow_liu", "exact_search", "greedy",
                "local_search"],
    "structure": ["KTree", "cliques_of", "score"],
    "weights": ["WeightFunction", "attachment_gain", "compute_weights"],
}


def _run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run([sys.executable, "-c", PROBE, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stderr.splitlines()[-1]


def _weight_file(tmp_path, k):
    n = 6
    rng = np.random.default_rng(k)
    w = {}
    for size in range(1, k + 2):
        for h in itertools.combinations(range(n), size):
            w[h] = -float(rng.random()) if size == 1 else float(rng.normal())
    path = tmp_path / f"w{k}.json"
    path.write_text(json.dumps(weights_to_dict(WeightFunction(k, n, w))))
    return path


@pytest.mark.parametrize("args", [
    ["--help"],
    ["learn", "--help"],
    ["gen-parity", "--help"],
    ["learn", "{w1}", "--solver", "chow_liu"],
    ["learn", "{w2}", "--solver", "greedy"],
    ["learn", "{w2}", "--solver", "local"],
    ["learn", "{w2}", "--solver", "exact", "--out", "{out}"],
], ids=["help", "learn-help", "gen-parity-help", "chow_liu", "greedy",
        "local", "exact"])
def test_combinatorial_commands_do_not_load_numpy(tmp_path, args):
    files = {"w1": _weight_file(tmp_path, 1), "w2": _weight_file(tmp_path, 2),
             "out": tmp_path / "s.json"}
    assert _run_cli([a.format(**files) for a in args]) == "numpy loaded: False"


def test_learning_from_data_loads_numpy(tmp_path):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("a,b,c\n0,1,1\n1,0,1\n1,1,0\n0,0,0\n")
    assert (_run_cli(["learn", str(csv_path), "--k", "1"])
            == "numpy loaded: True")


def test_package_names_resolve_to_their_modules():
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"hypertree.{module}")
        assert getattr(hypertree, module) is sub
        for name in names:
            assert getattr(hypertree, name) is getattr(sub, name), name
    listed = dir(hypertree)
    every = [name for names in EXPORTS.values() for name in names]
    assert set(every) <= set(listed)
    assert set(every) <= set(hypertree.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        hypertree.no_such_name
