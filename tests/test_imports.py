"""Import cost.

Importing the package loads none of its modules, help text loads none of
the library's computing modules, no codec (``csv``, ``json``) and no
``__future__``, learning from a weight file does not load NumPy, and a
command line that names one file twice is refused before the input is read.
The installed console script is the CLI's entry point.
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
from hypertree.weights import from_subset_weights, weights_to_dict

SRC = Path(hypertree.__file__).resolve().parent.parent

# Modules whose import a cold start should not pay for unless it uses them.
WATCHED = ("__future__", "csv", "json", "numpy", "hypertree.dataset",
           "hypertree.paritygen", "hypertree.projection", "hypertree.solvers",
           "hypertree.structure", "hypertree.weights")

# Runs the CLI as ``python -m hypertree.cli`` does and reports, after the
# command has exited, which of the watched modules were ever imported.
PROBE = (
    "import atexit, runpy, sys\n"
    f"atexit.register(lambda: print('loaded:', *[m for m in {WATCHED!r}"
    " if m in sys.modules], file=sys.stderr))\n"
    "runpy.run_module('hypertree.cli', run_name='__main__', alter_sys=True)\n"
)

def _python(*args):
    """Run a fresh interpreter that imports the package from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _run_cli(args, code=0):
    res = _python("-c", PROBE, *args)
    assert res.returncode == code, res.stderr
    return set(res.stderr.splitlines()[-1].split()[1:])


def _weight_file(tmp_path, k):
    n = 6
    rng = np.random.default_rng(k)
    w = {}
    for size in range(1, k + 2):
        for h in itertools.combinations(range(n), size):
            w[h] = -float(rng.random()) if size == 1 else float(rng.normal())
    path = tmp_path / f"w{k}.json"
    path.write_text(json.dumps(weights_to_dict(from_subset_weights(k, n, w))))
    return path


# Learning from a weight file needs the solvers but no array code.
ARRAY_FREE = ("numpy", "hypertree.dataset")


@pytest.mark.parametrize("args, absent", [
    (["--help"], WATCHED),
    (["learn", "--help"], WATCHED),
    (["gen-parity", "--help"], WATCHED),
    (["learn", "{w1}", "--solver", "chow_liu"], ARRAY_FREE),
    (["learn", "{w2}", "--solver", "greedy"], ARRAY_FREE),
    (["learn", "{w2}", "--solver", "local"], ARRAY_FREE),
    (["learn", "{w2}", "--solver", "exact", "--out", "{out}"], ARRAY_FREE),
], ids=["help", "learn-help", "gen-parity-help", "chow_liu", "greedy",
        "local", "exact"])
def test_combinatorial_commands_do_not_load_numpy(tmp_path, args, absent):
    files = {"w1": _weight_file(tmp_path, 1), "w2": _weight_file(tmp_path, 2),
             "out": tmp_path / "s.json"}
    loaded = _run_cli([a.format(**files) for a in args])
    assert loaded.isdisjoint(absent), loaded


def test_weights_structure_and_solvers_import_without_numpy():
    # solvers imports weights and structure; none of them pulls in NumPy
    res = _python("-c", "import sys, hypertree.weights, hypertree.solvers\n"
                  "print(*sorted(m for m in sys.modules\n"
                  "              if m == 'numpy' or m.startswith('hypertree.')))")
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["hypertree.errors", "hypertree.solvers",
                                  "hypertree.structure", "hypertree.weights"]


def test_exact_refused_from_a_csv_header_without_numpy(tmp_path):
    csv_path = tmp_path / "wide.csv"
    csv_path.write_text(",".join(f"x{i}" for i in range(12)) + "\n"
                        + "0," * 11 + "0\n")
    loaded = _run_cli(["learn", str(csv_path), "--k", "2", "--solver",
                       "exact"], code=3)
    assert loaded.isdisjoint(ARRAY_FREE), loaded


def test_exact_refuses_a_bad_wide_csv_header_without_numpy(tmp_path):
    # the header rule refuses the repeated name before any array code loads
    csv_path = tmp_path / "wide.csv"
    csv_path.write_text("x0," + ",".join(f"x{i}" for i in range(12)) + "\n"
                        + "0," * 12 + "0\n")
    loaded = _run_cli(["learn", str(csv_path), "--k", "2", "--solver",
                       "exact"], code=2)
    assert loaded.isdisjoint(ARRAY_FREE), loaded


def test_chow_liu_refused_at_k2_without_numpy(tmp_path):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("a,b,c\n0,1,1\n1,0,1\n")
    loaded = _run_cli(["learn", str(csv_path), "--k", "2", "--solver",
                       "chow_liu"], code=2)
    assert loaded.isdisjoint(ARRAY_FREE), loaded


def test_an_output_naming_the_data_is_refused_before_any_import(tmp_path):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("a,b,c\n0,1,1\n1,0,1\n")
    loaded = _run_cli(["learn", str(csv_path), "--k", "1", "--out",
                       str(csv_path)], code=2)
    assert loaded.isdisjoint(("numpy", "hypertree.dataset",
                              "hypertree.weights", "hypertree.solvers")), loaded


def test_learning_from_data_loads_numpy(tmp_path):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("a,b,c\n0,1,1\n1,0,1\n1,1,0\n0,0,0\n")
    assert "numpy" in _run_cli(["learn", str(csv_path), "--k", "1"])


def test_package_import_loads_no_module():
    # names are imported from their module; the package re-exports none
    res = _python("-c", "import sys, hypertree\n"
                  "print(*sorted(m for m in sys.modules\n"
                  "              if m == 'numpy' or m.startswith('hypertree.')))\n"
                  "try:\n"
                  "    hypertree.greedy\n"
                  "except AttributeError:\n"
                  "    print('no greedy')\n"
                  "from hypertree import solvers\n"
                  "print(solvers.greedy.__module__)")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["", "no greedy", "hypertree.solvers"]


def test_console_script_resolves_to_main():
    # pyproject.toml's ``hypertree`` script is the CLI's own entry point
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, name = scripts["hypertree"].partition(":")
    from hypertree import cli

    assert (module, name) == ("hypertree.cli", "main")
    assert getattr(importlib.import_module(module), name) is cli.main
