import codecs
import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypertree
from hypertree import weights
from hypertree.cli import main
from hypertree.dataset import dump_dataset, load_dataset
from hypertree.paritygen import TargetBiases, biases_to_dict
from hypertree.projection import log_likelihood, project
from hypertree.structure import ktree_to_dict
from hypertree.weights import compute_weights, weights_from_dict

from oracles import (
    generate_reference,
    joint_table,
    random_dataset,
    random_ktree,
    record_counted_scopes,
    tally,
    target_samples,
)


SRC = Path(hypertree.__file__).resolve().parent.parent  # holds the package


class CliResult(NamedTuple):
    exit_code: int
    output: str  # stdout, then stderr


@pytest.fixture
def run(capsys):
    """Run the CLI in this process on a list of arguments."""

    def invoke(args):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return CliResult(code, out + err)

    return invoke


def _write_xor_csv(path, t=64):
    rows = []
    for i in range(t):
        a, b = (i >> 0) & 1, (i >> 1) & 1
        rows.append(f"{a},{b},{a ^ b}")
    path.write_text("x0,x1,x2\n" + "\n".join(rows) + "\n")


def _write_chain_csv(path):
    # deterministic empirical chain: x1 follows x0, x2 follows x1, with
    # 1-in-5 flips laid out explicitly
    rng = np.random.default_rng(42)
    lines = []
    for _ in range(400):
        a = int(rng.integers(0, 2))
        b = a ^ int(rng.random() < 0.2)
        c = b ^ int(rng.random() < 0.2)
        lines.append(f"{a},{b},{c}")
    path.write_text("x0,x1,x2\n" + "\n".join(lines) + "\n")


def test_weights_xor(run, tmp_path):
    csv_path = tmp_path / "xor.csv"
    _write_xor_csv(csv_path)
    out = tmp_path / "weights.json"
    res = run(["weights", str(csv_path), "--k", "2",
               "--out", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert doc["log_base"] == "e" and doc["k"] == 2 and doc["n"] == 3
    by_vars = {tuple(e["vars"]): e["w"] for e in doc["weights"]}
    assert len(by_vars) == 7  # 3 singletons, 3 pairs, 1 triple
    for pair in itertools.combinations(range(3), 2):
        assert abs(by_vars[pair]) <= 1e-12
    assert by_vars[(0, 1, 2)] == pytest.approx(math.log(2), abs=1e-12)


def test_weights_k1_pairs_only(run, tmp_path):
    csv_path = tmp_path / "xor.csv"
    _write_xor_csv(csv_path)
    res = run(["weights", str(csv_path), "--k", "1"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert max(len(e["vars"]) for e in doc["weights"]) == 2


@pytest.mark.parametrize("text, k, summary", [
    ("a,b,c\n0,0,0\n1,1,0\n", "2", "7 weights (n=3, k=2) to {out}; max "
     "non-singleton weight [0, 1] = 0.693147 (base e)"),
    ("a,b,c\n0,0,0\n1,1,1\n", "1", "6 weights (n=3, k=1) to {out}; max "
     "non-singleton weight [0, 1] = 0.693147 (base e)"),
    ("a\n0\n1\n", "1", "1 weights (n=1, k=1) to {out}"),
], ids=["one-maximum", "equal-maxima", "one-column"])
def test_weights_out_prints_the_first_maximum(run, tmp_path, text, k, summary):
    # three equal columns: each pair weighs ln 2, and the first in (size,
    # vars) order is named
    csv_path = tmp_path / "d.csv"
    csv_path.write_text(text)
    out = tmp_path / "w.json"
    res = run(["weights", str(csv_path), "--k", k, "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert res.output == f"wrote {summary.format(out=out)}\n"


def test_weights_unreadable_file(run, tmp_path):
    res = run(["weights", str(tmp_path / "nope.csv"),
               "--k", "1"])
    assert res.exit_code == 4
    assert "nope.csv" in res.output


def test_weights_parse_error_is_validation(run, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n0,x\n")
    res = run(["weights", str(bad), "--k", "1"])
    assert res.exit_code == 2


def test_csv_header_name_is_refused_before_the_body(run, tmp_path):
    # the repeated name wins over the non-integer cell on line 3
    bad = tmp_path / "dup.csv"
    bad.write_text("a,a\n0,1\n0,x\n")
    res = run(["weights", str(bad), "--k", "1"])
    assert res.exit_code == 2, res.output
    assert res.output == (f"error: {bad}: line 1, column 2: header name 'a' "
                          f"repeats column 1\n")


def test_csv_cell_outside_int64_is_validation(run, tmp_path):
    bad = tmp_path / "huge.csv"
    bad.write_text("a,b\n0,99999999999999999999\n1,0\n")
    res = run(["learn", str(bad), "--k", "1"])
    assert res.exit_code == 2, res.output
    assert "line 2, column 'b'" in res.output


def test_sidecar_unknown_column_is_validation(run, tmp_path):
    csv_path = tmp_path / "xor.csv"
    _write_xor_csv(csv_path)
    sidecar = tmp_path / "arities.json"
    sidecar.write_text(json.dumps({"arities": {"zzz": 3}}))
    res = run(["weights", str(csv_path), "--k", "1",
               "--arities", str(sidecar)])
    assert res.exit_code == 2, res.output
    assert "not in the header: ['zzz']" in res.output


@pytest.mark.parametrize("args, json_input", [
    (["weights", "{jt}", "--k", "1", "--arities", "{side}"], "{jt}"),
    (["learn", "{jt}", "--k", "1", "--arities", "{side}"], "{jt}"),
    (["learn", "{w}", "--arities", "{side}"], "{w}"),
    (["learn", "{w}", "--arities", "{missing}"], "{w}"),
    (["eval", "{jt}", "{s}", "--arities", "{side}"], "{jt}"),
], ids=["weights-joint-table", "learn-joint-table", "learn-weight-file",
        "learn-missing-sidecar", "eval-joint-table"])
def test_arities_with_json_input_is_validation(run, tmp_path, args,
                                               json_input):
    paths = {name: tmp_path / f"{name}.json"
             for name in ("jt", "w", "s", "side", "missing")}
    paths["jt"].write_text(json.dumps({"arities": [2, 2, 2],
                                       "probs": [0.125] * 8}))
    paths["w"].write_text(json.dumps({"k": 1, "n": 3, "weights": []}))
    paths["s"].write_text(json.dumps(
        {"k": 1, "n": 3, "seed": [0, 1], "attachments": [{"v": 2, "anchor": [1]}]}))
    paths["side"].write_text(json.dumps({"arities": {"zzz": 3}}))
    args = [a.format(**paths) for a in args]
    res = run(args)
    assert res.exit_code == 2, res.output
    assert "--arities" in res.output
    assert json_input.format(**paths) in res.output


def test_learn_chain_chow_liu_matches_exact(run, tmp_path):
    csv_path = tmp_path / "chain.csv"
    _write_chain_csv(csv_path)
    out_cl = tmp_path / "cl.json"
    res = run(["learn", str(csv_path), "--k", "1",
               "--solver", "chow_liu", "--out", str(out_cl)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out_cl.read_text())
    edges = {tuple(sorted(c)) for c in doc["maximal_cliques"] if len(c) == 2}
    assert edges == {(0, 1), (1, 2)}

    out_ex = tmp_path / "ex.json"
    res = run(["learn", str(csv_path), "--k", "1",
               "--solver", "exact", "--out", str(out_ex)])
    assert res.exit_code == 0
    assert json.loads(out_ex.read_text())["score"] == pytest.approx(
        doc["score"], abs=1e-12)
    assert "divergence_decomposed" in doc


def test_learn_chow_liu_writes_greedy_document(run, tmp_path):
    # chow_liu is greedy at k=1: the same document but for its name and time
    d = random_dataset(np.random.default_rng(8), 9, 200, arities=[3] * 9)
    csv_path = tmp_path / "data.csv"
    dump_dataset(d, csv_path)
    docs = {}
    for solver in ("chow_liu", "greedy"):
        out = tmp_path / f"{solver}.json"
        res = run(["learn", str(csv_path), "--k", "1", "--solver", solver,
                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        docs[solver] = json.loads(out.read_text())
        assert docs[solver].pop("method") == solver
        docs[solver]["stats"].pop("elapsed_s")
    assert docs["chow_liu"] == docs["greedy"]


def test_learn_guard_refusal_exit_code(run, tmp_path):
    rng = np.random.default_rng(0)
    d = random_dataset(rng, 12, 40, arities=[2] * 12)
    csv_path = tmp_path / "wide.csv"
    dump_dataset(d, csv_path)
    res = run(["learn", str(csv_path), "--k", "2",
               "--solver", "exact"])
    assert res.exit_code == 3
    assert "exceeds" in res.output


def test_learn_exact_refused_before_weights(run, tmp_path):
    # 300 columns: the exact limit refuses before the weight domain guard
    data = tmp_path / "wide.csv"
    data.write_text(",".join(f"x{i}" for i in range(300)) + "\n"
                    + "0," * 299 + "0\n" + "1," * 299 + "1\n")
    res = run(["learn", str(data), "--k", "2", "--solver", "exact"])
    assert res.exit_code == 3, res.output
    assert "exact search refused: n=300" in res.output


def test_learn_exact_refused_from_the_header(run, tmp_path):
    # the header's 12 names refuse exact search before the body is parsed,
    # so the bad cell on line 3 is never reached
    data = tmp_path / "wide.csv"
    data.write_text(",".join(f"x{i}" for i in range(12)) + "\n"
                    + "0," * 11 + "0\n" + "0," * 11 + "z\n")
    res = run(["learn", str(data), "--k", "2", "--solver", "exact"])
    assert res.exit_code == 3, res.output
    assert "exact search refused: n=12 exceeds the limit 9 for k=2" in res.output
    res = run(["learn", str(data), "--k", "2", "--solver", "greedy"])
    assert res.exit_code == 2, res.output
    assert "line 3, column 'x11': non-integer cell 'z'" in res.output


def test_learn_without_k_refused_before_the_body(run, tmp_path):
    # CSV data needs --k; the bad cell on line 3 is never reached
    data = tmp_path / "bad.csv"
    data.write_text("a,b\n0,1\n0,z\n")
    res = run(["learn", str(data)])
    assert res.exit_code == 2, res.output
    assert "error: --k is required when learning from data" in res.output
    assert "non-integer cell" not in res.output


def test_eval_reads_the_structure_before_the_data(run, tmp_path):
    # a missing structure is refused without parsing the CSV
    data = tmp_path / "bad.csv"
    data.write_text("a,b\n0,1\n0,z\n")
    struct = tmp_path / "missing.json"
    res = run(["eval", str(data), str(struct)])
    assert res.exit_code == 4, res.output
    assert str(struct) in res.output
    assert "non-integer cell" not in res.output


WIDE = b",".join(b"x%d" % i for i in range(12))  # a header over the limit
BODY = b"\n" + b"0," * 11 + b"0\n"


@pytest.mark.parametrize("content, why", [
    (b"x" * 200_000 + b"," + WIDE + BODY,
     "line 1: field larger than field limit"),
    (b"\xff," + WIDE + BODY,
     "'utf-8' codec can't decode byte 0xff in position 0"),
    (b"a,," + WIDE + b"\n" + b"0," * 13 + b"0\n",
     "line 1, column 2: empty header name"),
    (b"a,a," + WIDE + b"\n" + b"0," * 13 + b"0\n",
     "line 1, column 2: header name 'a' repeats column 1"),
    (b"\n" + WIDE + BODY, "line 1: empty header row"),
    (b"", "empty CSV: missing header row"),
], ids=["field-limit", "not-utf8", "empty-name", "repeated-name",
        "blank-first-line", "empty-file"])
def test_learn_exact_leaves_a_bad_header_to_the_loader(run, tmp_path, content,
                                                       why):
    # a bad header is refused by the loader's own rule, whatever its width,
    # with the same exit code and message under every solver
    data = tmp_path / "wide.csv"
    data.write_bytes(content)
    exact = run(["learn", str(data), "--k", "2", "--solver", "exact"])
    assert exact.exit_code == 2, exact.output
    assert exact.output.startswith(f"error: {data}: {why}"), exact.output
    assert run(["learn", str(data), "--k", "2", "--solver", "greedy"]) == exact


def test_learn_from_weight_file(run, tmp_path):
    doc = {"k": 2, "n": 4, "log_base": "e",
           "weights": [{"vars": [0, 1, 2], "w": 1.0},
                       {"vars": [0, 1, 3], "w": 1.0}]}
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps(doc))
    res = run(["learn", str(wpath), "--solver", "exact"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["score"] == pytest.approx(2.0, abs=1e-12)
    assert "note" in out  # no data, no divergence

    res = run(["learn", str(wpath), "--k", "3"])
    assert res.exit_code == 2  # k conflicts with the file


def test_learn_chow_liu_rejects_k2(run, tmp_path):
    csv_path = tmp_path / "xor.csv"
    _write_xor_csv(csv_path)
    res = run(["learn", str(csv_path), "--k", "2",
               "--solver", "chow_liu"])
    assert res.exit_code == 2


def test_learn_chow_liu_refused_at_k2_before_the_input(run, tmp_path):
    # a missing input would exit 4
    missing = tmp_path / "missing.csv"
    res = run(["learn", str(missing), "--k", "2", "--solver", "chow_liu"])
    assert res.exit_code == 2, res.output
    assert res.output == ("error: --solver chow_liu applies to --k 1 only, "
                          "got --k 2\n")


def test_learn_bad_solver_is_usage_error(run, tmp_path):
    res = run(["learn", "x.csv", "--k", "1",
               "--solver", "annealing"])
    assert res.exit_code == 2


def test_eval_report(run, tmp_path):
    csv_path = tmp_path / "chain.csv"
    _write_chain_csv(csv_path)
    struct = tmp_path / "structure.json"
    res = run(["learn", str(csv_path), "--k", "1",
               "--solver", "chow_liu", "--out", str(struct)])
    assert res.exit_code == 0
    report_path = tmp_path / "report.json"
    model_path = tmp_path / "model.json"
    res = run(["eval", str(csv_path), str(struct),
               "--model-out", str(model_path),
               "--out", str(report_path)])
    assert res.exit_code == 0, res.output
    report = json.loads(report_path.read_text())
    assert report["identity_residual"] <= 1e-9
    assert report["log_base"] == "e" and report["k"] == 1
    assert "loglik_per_row" in report
    assert model_path.exists()
    model = json.loads(model_path.read_text())
    assert {tuple(f["vars"]) for f in model["factors"]} >= {(0,), (1,), (2,)}


def test_eval_variable_mismatch(run, tmp_path):
    csv_path = tmp_path / "xor.csv"
    _write_xor_csv(csv_path)
    struct = tmp_path / "structure.json"
    struct.write_text(json.dumps(
        {"k": 1, "n": 5, "seed": [0, 1],
         "attachments": [{"v": 2, "anchor": [0]}, {"v": 3, "anchor": [1]},
                         {"v": 4, "anchor": [3]}]}))
    res = run(["eval", str(csv_path), str(struct)])
    assert res.exit_code == 2
    assert "spans" in res.output


def test_eval_size_mismatch_names_both_files(run, tmp_path):
    csv_path = tmp_path / "two.csv"
    csv_path.write_text("a,b\n0,1\n1,0\n")
    struct = tmp_path / "three.json"
    struct.write_text(json.dumps({"k": 1, "n": 3, "seed": [0, 1],
                                  "attachments": [{"v": 2, "anchor": [1]}]}))
    res = run(["eval", str(csv_path), str(struct)])
    assert res.exit_code == 2, res.output
    assert (f"error: {struct}: structure spans 3 variables, {csv_path} has 2"
            in res.output)


def test_eval_large_n_reports_direct(run, tmp_path):
    rng = np.random.default_rng(1)
    d = random_dataset(rng, 11, 50, arities=[4] * 11)  # 4^11 joint cells
    csv_path = tmp_path / "big.csv"
    dump_dataset(d, csv_path)
    struct = tmp_path / "structure.json"
    res = run(["learn", str(csv_path), "--k", "1",
               "--solver", "chow_liu", "--out", str(struct)])
    assert res.exit_code == 0, res.output
    res = run(["eval", str(csv_path), str(struct)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["identity_residual"] <= 1e-9
    assert "loglik_per_row" in report and "note" not in report


def test_eval_joint_table_reports_every_quantity(run, tmp_path):
    # the chain x0 -> x1 -> x2 on the path 0-1-2 is its own projection
    jt = tmp_path / "chain.json"
    probs = [0.5 * (0.8 if b == a else 0.2) * (0.8 if c == b else 0.2)
             for a, b, c in itertools.product(range(2), repeat=3)]
    jt.write_text(json.dumps({"arities": [2, 2, 2], "probs": probs}))
    struct = tmp_path / "structure.json"
    struct.write_text(json.dumps({"k": 1, "n": 3, "seed": [0, 1],
                                  "attachments": [{"v": 2, "anchor": [1]}]}))
    res = run(["eval", str(jt), str(struct)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["divergence_direct"] == pytest.approx(0.0, abs=1e-12)
    assert report["identity_residual"] <= 1e-12
    # the training identity: loglik_per_row = -H(x0, x1, x2) here
    entropy = -sum(p * math.log(p) for p in probs)
    assert report["loglik_per_row"] == pytest.approx(-entropy, abs=1e-12)


def _tiny_cell_table(tmp_path, tiny):
    """A joint table over two binary variables, 1.0 at (0, 0) and tiny at
    (1, 1), and the 1-tree on both: (its path, the structure's path)."""
    jt = tmp_path / "tiny.json"
    jt.write_text(json.dumps({"arities": [2, 2],
                              "probs": [1.0, 0, 0, tiny]}))
    struct = tmp_path / "structure.json"
    struct.write_text(json.dumps({"k": 1, "n": 2, "seed": [0, 1],
                                  "attachments": []}))
    return jt, struct


def test_eval_forms_a_factor_whose_sub_factors_multiply_below_the_floats(
        run, tmp_path):
    # the singleton factors of the cell (1, 1), 1e-170 each, multiply to 0,
    # but the pair factor is formed in log space: 1e-170 / 1e-340 = 1e170
    jt, struct = _tiny_cell_table(tmp_path, 1e-170)
    res = run(["eval", str(jt), str(struct)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["score"] == 3.914394658089878e-168
    assert report["identity_residual"] == 0.0
    res = run(["learn", str(jt), "--k", "1"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["score"] == report["score"]


def test_eval_scores_a_factor_over_the_float_range(run, tmp_path):
    # at 1e-310 the pair factor of the cell (1, 1) is 1e310, over the
    # largest float, but its log is a float, and eval reads only the logs
    jt, struct = _tiny_cell_table(tmp_path, 1e-310)
    res = run(["eval", str(jt), str(struct)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["score"] == 7.13801378828152e-308
    assert report["divergence_decomposed"] == 0.0
    assert report["divergence_direct"] == 0.0


def _run_fresh(args):
    """Run ``python -m hypertree.cli`` on args in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, "-m", "hypertree.cli", *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_eval_refuses_a_factor_over_the_float_range(tmp_path):
    # the model dump forms the factor 1e310 itself: refused by name in a
    # fresh interpreter, with no NumPy warning on stderr and no file written
    jt, struct = _tiny_cell_table(tmp_path, 1e-310)
    model, report = tmp_path / "sub-model.json", tmp_path / "report.json"
    res = _run_fresh(["eval", str(jt), str(struct), "--model-out", str(model),
                      "--out", str(report)])
    assert res.returncode == 2, res.stderr
    assert res.stderr == ("error: the factor of clique (0, 1) overflows the "
                          "float range\n")
    assert not model.exists() and not report.exists()


def test_gen_parity_roundtrip(run, tmp_path):
    biases = {"k": 1, "n": 3, "Q": 4,
              "biases": [{"vars": [0, 1], "p": 2}]}
    bpath = tmp_path / "biases.json"
    bpath.write_text(json.dumps(biases))
    out_csv = tmp_path / "sample.csv"
    res = run(["gen-parity", str(bpath), "--out", str(out_csv)])
    assert res.exit_code == 0, res.output
    prov = json.loads((tmp_path / "sample.provenance.json").read_text())
    assert prov["Q"] == 4 and prov["rows"] == 3 * 4 * 8
    assert "block_log" not in prov  # the biases already fix every block

    # recomputed weights match the bias formula
    d = load_dataset(out_csv)
    wf = compute_weights(d, 1)
    from hypertree.paritygen import bias_to_weight
    expect = bias_to_weight((2 / 4) / 3)
    assert wf[(0, 1)] == pytest.approx(expect, abs=1e-9)
    for pair in ((0, 2), (1, 2)):
        assert abs(wf[pair]) <= 1e-12


def test_gen_parity_writes_the_block_sample(run, tmp_path):
    # the CSV holds the rows of the concatenated blocks, equal rows together
    tb = TargetBiases(k=2, n=5, q=3, entries={(0, 1, 2): 2, (1, 3, 4): 1})
    bpath = tmp_path / "biases.json"
    bpath.write_text(json.dumps(biases_to_dict(tb)))
    out_csv = tmp_path / "sample.csv"
    res = run(["gen-parity", str(bpath), "--out", str(out_csv)])
    assert res.exit_code == 0, res.output
    rows, _ = generate_reference(tb)
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow([f"x{i}" for i in range(tb.n)])
    writer.writerows(rows.tolist())
    got_lines = out_csv.read_text().splitlines()
    want_lines = want.getvalue().splitlines()
    assert got_lines[0] == want_lines[0]
    assert sorted(got_lines[1:]) == sorted(want_lines[1:])
    prov = biases_to_dict(tb)
    prov["rows"] = len(rows)
    prov["rows_per_block"] = 1 << tb.n
    assert ((tmp_path / "sample.provenance.json").read_text()
            == json.dumps(prov, indent=2) + "\n")


def test_gen_parity_writes_the_sorted_block_rows_byte_for_byte(tmp_path):
    # the csv module's rendering of the concatenated blocks, sorted; the
    # zero numerator the spec lists makes that subset's blocks all cubes
    tb = TargetBiases(k=2, n=4, q=3, entries={(0, 1, 2): 0, (1, 2, 3): 2})
    bpath = tmp_path / "biases.json"
    bpath.write_text(json.dumps(biases_to_dict(tb)))
    out_csv = tmp_path / "sample.csv"
    res = _run_fresh(["gen-parity", str(bpath), "--out", str(out_csv)])
    assert res.returncode == 0, res.stderr
    rows, _ = generate_reference(tb)
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow([f"x{i}" for i in range(tb.n)])
    writer.writerows(sorted(rows.tolist()))
    assert out_csv.read_bytes() == want.getvalue().encode()


def test_gen_parity_targets_input(run, tmp_path):
    targets = {"k": 1, "n": 3, "q_grid": 64,
               "targets": [{"vars": [0, 2], "w": 0.5}]}
    tpath = tmp_path / "targets.json"
    tpath.write_text(json.dumps(targets))
    out_csv = tmp_path / "sample.csv"
    res = run(["gen-parity", str(tpath), "--out", str(out_csv)])
    assert res.exit_code == 0, res.output
    prov = json.loads((tmp_path / "sample.provenance.json").read_text())
    assert "scale" in prov and "total_abs_error" in prov
    d = load_dataset(out_csv)
    wf = compute_weights(d, 1)
    assert wf[(0, 2)] > 0
    assert abs(wf[(0, 1)]) <= 1e-12


@pytest.mark.parametrize("spec", [
    {"k": 2, "n": 5, "Q": 3, "biases": [{"vars": [0, 1, 2], "p": 2},
                                        {"vars": [1, 3, 4], "p": 1}]},
    {"k": 1, "n": 4, "q_grid": 16, "targets": [{"vars": [0, 2], "w": 0.3},
                                               {"vars": [1, 3], "w": 0.1}]},
], ids=["biases", "targets"])
def test_gen_parity_provenance_is_its_own_spec(run, tmp_path, spec):
    # the provenance lists k, n, Q and the biases, which fix every block
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    res = run(["gen-parity", str(spec_path), "--out", str(first)])
    assert res.exit_code == 0, res.output
    res = run(["gen-parity", str(tmp_path / "first.provenance.json"),
               "--out", str(again)])
    assert res.exit_code == 0, res.output
    assert again.read_bytes() == first.read_bytes()


def test_gen_parity_guard(run, tmp_path):
    biases = {"k": 1, "n": 15, "Q": 2, "biases": []}
    bpath = tmp_path / "biases.json"
    bpath.write_text(json.dumps(biases))
    res = run(["gen-parity", str(bpath)])
    assert res.exit_code == 3, res.output
    assert "n=15 exceeds cube limit 14" in res.output


def test_gen_parity_row_guard(run, tmp_path):
    # n is within the cube limit, but Q=10^6 asks for 6 * 10^6 * 16 rows
    bpath = tmp_path / "biases.json"
    bpath.write_text(json.dumps({"k": 1, "n": 4, "Q": 1000000, "biases": []}))
    out_csv = tmp_path / "sample.csv"
    res = run(["gen-parity", str(bpath), "--out", str(out_csv)])
    assert res.exit_code == 3, res.output
    assert "96000000 rows x n=4 is 3072000000 bytes" in res.output
    assert not out_csv.exists()


@pytest.mark.parametrize("extra, vars_, why", [
    ({}, [0, 1, 9], "subset (0, 1, 9) has a vertex outside [0, 4)"),
    ({}, [0, 1, 1], "subset (0, 1, 1) is not strictly ascending"),
    ({"scale": 0}, [0, 1, 2], "scale must be finite and > 0"),
    ({"scale": 100}, [0, 1, 2],
     "infeasible scaling: subset (0, 1, 2) needs weight 50.000000 at scale 100"),
], ids=["vertex-outside", "repeated-vertex", "zero-scale", "overshooting-scale"])
def test_gen_parity_invalid_targets(run, tmp_path, extra, vars_, why):
    tpath = tmp_path / "targets.json"
    tpath.write_text(json.dumps(dict(
        k=2, n=4, q_grid=8, targets=[{"vars": vars_, "w": 0.5}], **extra)))
    out_csv = tmp_path / "sample.csv"
    res = run(["gen-parity", str(tpath), "--out", str(out_csv)])
    assert res.exit_code == 2, res.output
    assert f"error: {tpath}: {why}" in res.output
    assert not out_csv.exists()


@pytest.mark.parametrize("doc, message", [
    ({"k": 1, "n": 3}, "input must contain either a 'biases' or a 'targets' "
                       "list"),
    ({"k": 1, "n": 3, "Q": 4, "biases": [], "q_grid": 4,
      "targets": [{"vars": [0, 1], "w": 0.3}]},
     "input must contain either a 'biases' or a 'targets' list, not both"),
], ids=["neither", "both"])
def test_gen_parity_spec_lists_one_of_biases_and_targets(run, tmp_path, doc,
                                                         message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out_csv = tmp_path / "sample.csv"
    res = run(["gen-parity", str(spec), "--out", str(out_csv)])
    assert (res.exit_code, res.output) == (2, f"error: {spec}: {message}\n")
    assert not out_csv.exists()


def test_gen_parity_unknown_schema(run, tmp_path):
    bpath = tmp_path / "junk.json"
    bpath.write_text(json.dumps({"foo": 1}))
    res = run(["gen-parity", str(bpath)])
    assert res.exit_code == 2


@pytest.mark.parametrize("filename, text, args, field", [
    ("arr.json", "[1, 2]", ["learn", "{bad}", "--k", "1"], "JSON object"),
    ("s.json", json.dumps({"k": 1, "n": 3, "attachments": []}),
     ["eval", "{csv}", "{bad}"], "'seed'"),
    ("w.json", json.dumps({"k": 1, "n": 3, "weights": [{"vars": [0, 1]}]}),
     ["learn", "{bad}"], "'w'"),
    ("t.json", json.dumps(
        {"k": 1, "q_grid": 8, "targets": [{"vars": [0, 1], "w": 0.5}]}),
     ["gen-parity", "{bad}", "--out", "{out}"], "'n'"),
    ("a.json", json.dumps({"names": {"x0": 2}}),
     ["weights", "{csv}", "--k", "1", "--arities", "{bad}"], "'arities'"),
    ("a.json", json.dumps({"arities": ["x0"]}),
     ["weights", "{csv}", "--k", "1", "--arities", "{bad}"], "'arities'"),
    ("a.json", json.dumps({"arities": {"x0": [2]}}),
     ["weights", "{csv}", "--k", "1", "--arities", "{bad}"],
     "'arities.x0' must be an integer"),
    ("jt.json", json.dumps({"arities": [2, 2], "probs": [1.0]}),
     ["learn", "{bad}", "--k", "1"], "probs"),
    ("w.json", json.dumps({"k": 1, "n": 3,
                           "weights": [{"vars": [0, 1], "w": math.inf}]}),
     ["learn", "{bad}"], "not finite"),
    ("w.json", json.dumps({"k": 1, "n": 3,
                           "weights": [{"vars": [0, 1], "w": "0.5"},
                                       {"vars": [1, 2], "w": True}]}),
     ["learn", "{bad}"], "'w' must be a number, got '0.5'"),
    ("w.json", json.dumps({"k": 1, "n": 3,
                           "weights": [{"vars": [1, 2], "w": True}]}),
     ["learn", "{bad}"], "'w' must be a number, got True"),
    ("w.json", json.dumps({"k": 1, "n": 3,
                           "weights": [{"vars": [1, 2], "w": 10 ** 400}]}),
     ["learn", "{bad}"], "outside the float range"),
    ("t.json", json.dumps({"k": 1, "n": 3, "q_grid": 8,
                           "targets": [{"vars": [0, 1], "w": "0.5"}]}),
     ["gen-parity", "{bad}", "--out", "{out}"], "'w' must be a number"),
    ("t.json", json.dumps({"k": 1, "n": 3, "q_grid": 8, "scale": True,
                           "targets": [{"vars": [0, 1], "w": 0.5}]}),
     ["gen-parity", "{bad}", "--out", "{out}"],
     "'scale' must be a number, got True"),
    ("jt.json", json.dumps({"arities": [2, 2],
                            "probs": ["0.25", "0.25", False, 0.5]}),
     ["weights", "{bad}", "--k", "1"], "'probs' must be a number, got '0.25'"),
    ("jt.json", json.dumps({"arities": [2, 2],
                            "probs": [0.25, 0.25, False, 0.5]}),
     ["weights", "{bad}", "--k", "1"], "'probs' must be a number, got False"),
    ("jt.json", json.dumps({"arities": [2, 2],
                            "probs": [math.nan, 0.5, 0.25, 0.25]}),
     ["weights", "{bad}", "--k", "1"], "probs[0] is nan"),
    ("jt.json", json.dumps({"arities": [2, 2],
                            "probs": [math.nan, 0.5, 0.25, 0.25]}),
     ["eval", "{bad}", "{tree}"], "probs[0] is nan"),
    ("jt.json", json.dumps({"arities": [2, 2],
                            "probs": [0.75, 0.5, -0.25, 0.0]}),
     ["weights", "{bad}", "--k", "1"], "probs[2] is -0.25"),
    ("t.json", json.dumps({"k": 1, "n": 3, "q_grid": 8, "scale": [1],
                           "targets": [{"vars": [0, 1], "w": 0.5}]}),
     ["gen-parity", "{bad}", "--out", "{out}"], "'scale' must be a number"),
    ("s.json", json.dumps({"k": 1, "n": 3, "seed": [0.9, 1],
                           "attachments": [{"v": 2, "anchor": [1]}]}),
     ["eval", "{csv}", "{bad}"],
     "seed: subset (0.9, 1) has a non-integer vertex 0.9"),
    ("s.json", json.dumps({"k": 1, "n": 3, "seed": [0, 1],
                           "attachments": [{"v": 2.7, "anchor": [1]}]}),
     ["eval", "{csv}", "{bad}"],
     "vertex 2.7 attached to (1,): subset (1, 2.7) has a non-integer vertex 2.7"),
    ("s.json", json.dumps({"k": 1, "n": 3, "seed": [0, 1],
                           "attachments": [{"v": 2, "anchor": [True]}]}),
     ["eval", "{csv}", "{bad}"],
     "vertex 2 attached to (True,): subset (True, 2) has a non-integer "
     "vertex True"),
    ("s.json", json.dumps({"k": "1", "n": 3, "seed": [0, 1],
                           "attachments": [{"v": 2, "anchor": [1]}]}),
     ["eval", "{csv}", "{bad}"], "'k' must be an integer, got '1'"),
    ("w.json", json.dumps({"k": 1.8, "n": 2,
                           "weights": [{"vars": [0, 1], "w": 0.5}]}),
     ["learn", "{bad}"], "'k' must be an integer, got 1.8"),
    ("w.json", json.dumps({"k": 1, "n": 2,
                           "weights": [{"vars": [0, 1.9], "w": 0.5}]}),
     ["learn", "{bad}"], "subset (0, 1.9) has a non-integer vertex 1.9"),
    ("w.json", json.dumps({"k": 1, "n": True, "weights": []}),
     ["learn", "{bad}"], "'n' must be an integer, got True"),
    ("t.json", json.dumps({"k": 1, "n": 3, "q_grid": 8,
                           "targets": [{"vars": [0, 1.5], "w": 0.5}]}),
     ["gen-parity", "{bad}", "--out", "{out}"],
     "subset (0, 1.5) has a non-integer vertex 1.5"),
    ("t.json", json.dumps({"k": 1, "n": 3, "q_grid": 8.5,
                           "targets": [{"vars": [0, 1], "w": 0.5}]}),
     ["gen-parity", "{bad}", "--out", "{out}"],
     "'q_grid' must be an integer, got 8.5"),
    ("b.json", json.dumps({"k": 1, "n": 3, "Q": 4,
                           "biases": [{"vars": [0, 1], "p": 1.5}]}),
     ["gen-parity", "{bad}", "--out", "{out}"], "'p' must be an integer, got 1.5"),
    ("jt.json", json.dumps({"arities": [2, 2.0], "probs": [0.25] * 4}),
     ["learn", "{bad}", "--k", "1"], "'arities' must be an integer, got 2.0"),
    ("w.json", json.dumps({"k": 1, "n": 3,
                           "weights": [{"vars": [0, 1], "w": 1.0},
                                       {"vars": [1, 0], "w": -5.0}]}),
     ["learn", "{bad}"], "subset (0, 1) is listed more than once"),
    ("t.json", json.dumps({"k": 1, "n": 3, "q_grid": 8,
                           "targets": [{"vars": [0, 1], "w": 1.0},
                                       {"vars": [1, 0], "w": 0.0}]}),
     ["gen-parity", "{bad}", "--out", "{out}"],
     "subset (0, 1) is listed more than once"),
    ("b.json", json.dumps({"k": 1, "n": 3, "Q": 4,
                           "biases": [{"vars": [0, 1], "p": 3},
                                      {"vars": [1, 0], "p": 0}]}),
     ["gen-parity", "{bad}", "--out", "{out}"],
     "subset (0, 1) is listed more than once"),
    ("deep.json", "[" * 100_000, ["learn", "{bad}"],
     "maximum recursion depth exceeded"),
    ("s.json", json.dumps({"k": 1, "n": 3, "seed": 5}),
     ["eval", "{csv}", "{bad}"], "'seed' must be a list, got int"),
    ("s.json", json.dumps({"k": 1, "n": 3, "seed": [0, 1],
                           "attachments": {"v": 2, "anchor": [1]}}),
     ["eval", "{csv}", "{bad}"], "'attachments' must be a list, got dict"),
    ("s.json", json.dumps({"k": 1, "n": 3, "seed": [0, 1],
                           "attachments": [5]}),
     ["eval", "{csv}", "{bad}"], "'attachments' must list objects, got int"),
    ("s.json", json.dumps({"k": 1, "n": 3, "seed": [0, 1],
                           "attachments": [{"v": 2, "anchor": 5}]}),
     ["eval", "{csv}", "{bad}"], "'anchor' must be a list, got int"),
    ("w.json", json.dumps({"k": 1, "n": 3, "weights": [5]}),
     ["learn", "{bad}"], "'weights' must list objects, got int"),
    ("w.json", json.dumps({"k": 1, "n": 3, "weights": {"a": 1}}),
     ["learn", "{bad}"], "'weights' must be a list, got dict"),
    ("w.json", json.dumps({"k": 1, "n": 3,
                           "weights": [{"vars": 5, "w": 0.5}]}),
     ["learn", "{bad}"], "'vars' must be a list, got int"),
    ("t.json", json.dumps({"k": 1, "n": 3, "q_grid": 8, "targets": 5}),
     ["gen-parity", "{bad}", "--out", "{out}"],
     "'targets' must be a list, got int"),
    ("b.json", json.dumps({"k": 1, "n": 3, "Q": 4, "biases": ["ab"]}),
     ["gen-parity", "{bad}", "--out", "{out}"],
     "'biases' must list objects, got str"),
    ("jt.json", json.dumps({"arities": 5, "probs": [1.0]}),
     ["learn", "{bad}", "--k", "1"], "'arities' must be a list, got int"),
    ("jt.json", json.dumps({"arities": [2], "probs": 5}),
     ["weights", "{bad}", "--k", "1"], "'probs' must be a list, got int"),
], ids=["learn-array", "eval-no-seed", "learn-entry-no-w", "gen-parity-no-n",
        "arities-no-key", "arities-not-object", "arity-not-integer",
        "joint-table-probs-size", "learn-weight-not-finite",
        "weights-w-string", "weights-w-bool", "weights-w-huge-int",
        "targets-w-string", "targets-scale-bool", "joint-table-probs-string",
        "joint-table-probs-bool", "weights-joint-table-nan",
        "eval-joint-table-nan", "joint-table-probs-negative",
        "gen-parity-scale-not-number", "structure-seed-float",
        "structure-vertex-float", "structure-anchor-bool",
        "structure-k-string", "weights-k-float", "weights-vars-float",
        "weights-n-bool", "targets-vars-float", "targets-q-grid-float",
        "biases-p-float", "joint-table-arity-float", "weights-repeated-subset",
        "targets-repeated-subset", "biases-repeated-subset",
        "learn-deeply-nested", "structure-seed-not-list",
        "structure-attachments-not-list", "structure-attachment-not-object",
        "structure-anchor-not-list", "weights-entry-not-object",
        "weights-not-list", "weights-vars-not-list", "targets-not-list",
        "biases-entry-not-object", "joint-table-arities-not-list",
        "joint-table-probs-not-list"])
def test_malformed_json_input_is_validation(run, tmp_path, filename, text,
                                            args, field):
    csv_path = tmp_path / "xor.csv"
    _write_xor_csv(csv_path)
    bad = tmp_path / filename
    bad.write_text(text)
    tree = tmp_path / "tree.json"  # eval reads its structure first
    tree.write_text(json.dumps({"k": 1, "n": 2, "seed": [0, 1]}))
    args = [a.format(csv=csv_path, bad=bad, out=tmp_path / "sample.csv",
                     tree=tree) for a in args]
    res = run(args)
    assert res.exit_code == 2, res.output
    assert str(bad) in res.output and field in res.output


SUBSET_FILES = {
    "weights": ({"k": 1, "n": 3, "weights": [{"vars": None, "w": 0.5}]},
                ["learn", "{bad}", "--out", "{out}"]),
    "biases": ({"k": 1, "n": 3, "Q": 4, "biases": [{"vars": None, "p": 1}]},
               ["gen-parity", "{bad}", "--out", "{out}"]),
    "targets": ({"k": 1, "n": 3, "q_grid": 8,
                 "targets": [{"vars": None, "w": 0.5}]},
                ["gen-parity", "{bad}", "--out", "{out}"]),
}


@pytest.mark.parametrize("kind", sorted(SUBSET_FILES))
@pytest.mark.parametrize("vs, named", [
    ([0, 1.9], "subset (0, 1.9) has a non-integer vertex 1.9"),
    (["a", "b"], "subset ('a', 'b') has a non-integer vertex 'a'"),
    ([True, 2], "subset (True, 2) has a non-integer vertex True"),
    ([None, 1], "'vars' must be an integer, got None"),
    ([[0], 1], "'vars' must be an integer, got [0]"),
    ([[0], [1]], "'vars' must be an integer, got [0]"),
    ([0, 0], "subset (0, 0) is not strictly ascending"),
    ([0, 9], "subset (0, 9) has a vertex outside [0, 3)"),
], ids=["float", "strings", "bool", "null", "list-and-int", "lists",
        "repeat", "outside"])
def test_each_file_subset_fault_names_its_vertex(run, tmp_path, kind, vs,
                                                 named):
    # the store that keeps the subsets names the fault; only a vertex that
    # does not sort or hash is named while the file is parsed
    doc, args = SUBSET_FILES[kind]
    doc = json.loads(json.dumps(doc))
    doc[kind][0]["vars"] = vs
    bad, out = tmp_path / f"{kind}.json", tmp_path / "out"
    bad.write_text(json.dumps(doc))
    res = run([a.format(bad=bad, out=out) for a in args])
    assert res.exit_code == 2, res.output
    assert f"{bad}: " in res.output and named in res.output, res.output
    assert not out.exists()


@pytest.mark.parametrize("k, message", [
    (1, "k-tree score is not finite: inf"),
    (2, "weight for subset (0, 1, 2) is not finite: inf"),
])
def test_score_past_the_float_range_is_refused(run, tmp_path, k, message):
    # every weight is finite; at k=1 the score of two 1e308 edges is not,
    # and at k=2 the triple's total of three is refused by the store
    pairs = [[0, 1], [1, 2]] + [[0, 2]] * (k == 2)
    path, out = tmp_path / "w.json", tmp_path / "s.json"
    path.write_text(json.dumps({"k": k, "n": 3, "weights": [
        {"vars": p, "w": 1e308} for p in pairs]}))
    res = run(["learn", str(path), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert message in res.output, res.output
    assert not out.exists()


@pytest.mark.parametrize("kind, args, count", [
    ("csv", ["weights", "{data}", "--k", "2"], "300 vertices number 4500250"),
    ("json", ["learn", "{data}"], "100000 vertices number 5000050000"),
    ("csv", ["eval", "{data}", "{tree}"], None),
    ("csv", ["eval", "{data}", "{clique}"],
     "1 maximal cliques number up to 1073741823"),
], ids=["csv", "weight-file", "eval", "eval-one-clique"])
def test_weight_domain_guard(run, tmp_path, kind, args, count):
    # eval weighs only the 2-tree's 1,195 cliques, never the 4,500,250
    # subsets of sizes 1..3 that weights refuses on the same CSV; the one
    # clique of 30 vertices has 2^30 - 1 subsets, refused before listing any
    data = tmp_path / f"data.{kind}"
    n = 30 if "{clique}" in args else 300
    if kind == "csv":
        names = [f"x{i}" for i in range(n)]
        data.write_text(",".join(names) + "\n" + ",".join("0" * n) + "\n")
    else:
        data.write_text(json.dumps({"k": 1, "n": 100000, "weights": []}))
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"k": 2, "n": 300, "seed": [0, 1, 2],
                                "attachments": [{"v": v, "anchor": [v - 2, v - 1]}
                                                for v in range(3, 300)]}))
    clique = tmp_path / "clique.json"
    clique.write_text(json.dumps({"k": 29, "n": 30, "seed": list(range(30))}))
    res = run([a.format(data=data, tree=tree, clique=clique) for a in args])
    if count is None:
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report["score"] == 0.0 and report["divergence_direct"] == 0.0
        return
    assert res.exit_code == 3, res.output
    assert count in res.output and "over 4194304" in res.output


def test_eval_one_clique_structure_wider_than_the_data(run, tmp_path):
    # k=5 on 3 variables is a valid k-tree: its seed is all min(k+1, n) = 3
    # vertices, the same one clique as the 2-tree on them
    csv_path = tmp_path / "t3.csv"
    csv_path.write_text("a,b,c\n0,1,0\n1,1,1\n0,0,1\n")
    reports = {}
    for k in (2, 5):
        struct = tmp_path / f"k{k}.json"
        struct.write_text(json.dumps({"k": k, "n": 3, "seed": [0, 1, 2],
                                      "attachments": []}))
        res = run(["eval", str(csv_path), str(struct)])
        assert res.exit_code == 0, res.output
        reports[k] = json.loads(res.output)
    assert reports[5]["k"] == 5
    assert reports[5]["score"] == 0.8109302162163288
    for key in ("score", "divergence_decomposed", "divergence_direct",
                "identity_residual", "loglik_per_row"):
        assert reports[5][key] == reports[2][key], key


@pytest.mark.parametrize("command", ["learn", "weights"])
@pytest.mark.parametrize("k", ["3", "5", "1000000000"])
def test_k_not_below_the_column_count_is_the_one_clique(run, tmp_path,
                                                        command, k):
    # a k-tree on n <= k+1 variables is the one clique of all of them, so
    # --k at or above the column count is accepted, and every solver learns
    # that clique with the score eval gives it at k=2
    csv_path = tmp_path / "t3.csv"
    csv_path.write_text("a,b,c\n0,1,0\n1,1,1\n0,0,1\n")
    if command == "weights":
        res = run(["weights", str(csv_path), "--k", k])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert (doc["k"], doc["n"]) == (int(k), 3)
        assert len(doc["weights"]) == 7  # every nonempty subset of 3
        return
    struct = tmp_path / "k2.json"
    struct.write_text(json.dumps({"k": 2, "n": 3, "seed": [0, 1, 2]}))
    res = run(["eval", str(csv_path), str(struct)])
    assert res.exit_code == 0, res.output
    score = json.loads(res.output)["score"]
    for solver in ("exact", "greedy", "local"):
        res = run(["learn", str(csv_path), "--k", k, "--solver", solver])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert (doc["k"], doc["seed"], doc["attachments"]) == (int(k),
                                                              [0, 1, 2], [])
        assert doc["score"] == score, solver


@pytest.mark.parametrize("kind", ["csv", "joint-table"])
def test_learn_and_eval_report_the_same_score(run, tmp_path, kind):
    # eval weighs the learned tree's cliques only, learn every subset: the
    # weights they share are bit-identical, so the reports agree byte for byte
    rng = np.random.default_rng(7)
    if kind == "csv":
        data = tmp_path / "data.csv"
        dump_dataset(random_dataset(rng, 7, 300), data)
    else:
        data = tmp_path / "data.json"
        probs = rng.random((2, 3, 2, 2, 3, 2))
        probs[0, 1] = 0.0
        data.write_text(json.dumps({"arities": list(probs.shape),
                                    "probs": (probs / probs.sum()).ravel()
                                    .tolist()}))
    struct = tmp_path / "structure.json"
    res = run(["learn", str(data), "--k", "2", "--solver", "local",
               "--out", str(struct)])
    assert res.exit_code == 0, res.output
    res = run(["eval", str(data), str(struct)])
    assert res.exit_code == 0, res.output
    learned, report = json.loads(struct.read_text()), json.loads(res.output)
    for key in ("score", "divergence_decomposed"):
        assert repr(report[key]) == repr(learned[key]), key


def test_eval_computes_only_the_entropies_of_its_tree(run, tmp_path,
                                                      monkeypatch):
    # the projection's marginals give the clique weights too: each marginal
    # of the tree's family is computed once, in the family's order, and no
    # other
    from hypertree.structure import clique_family, load_ktree

    csv_path = tmp_path / "data.csv"
    dump_dataset(random_dataset(np.random.default_rng(3), 9, 200), csv_path)
    struct = tmp_path / "structure.json"
    assert run(["learn", str(csv_path), "--k", "2",
                "--out", str(struct)]).exit_code == 0
    family = clique_family(load_ktree(struct).maximal_cliques())
    scopes = record_counted_scopes(monkeypatch)
    res = run(["eval", str(csv_path), str(struct)])
    assert res.exit_code == 0, res.output
    # 9 singletons, 15 edges and 7 triangles, of the domain's 129 subsets
    assert len(family) == 31
    assert scopes == family


@given(sample=target_samples(min_vars=2, max_vars=4),
       seed=st.integers(0, 2 ** 16), k=st.integers(1, 3),
       kind=st.sampled_from(["csv", "joint-table"]))
@settings(max_examples=60, deadline=None)
def test_eval_loglik_matches_log_likelihood(tmp_path_factory, sample, seed, k,
                                            kind):
    # eval derives loglik_per_row from the direct divergence; the model's log
    # probability summed over the rows stays its oracle. Declared arities keep
    # a CSV's unseen outcomes in the model
    arities, rows, probs = sample
    tmp = tmp_path_factory.mktemp("loglik")
    if kind == "csv":
        data, path = tally(arities, rows), tmp / "data.csv"
        dump_dataset(data, path)
        sidecar = tmp / "arities.json"
        sidecar.write_text(json.dumps(
            {"arities": {f"x{i}": a for i, a in enumerate(arities)}}))
        extra = ["--arities", str(sidecar)]
    else:
        data, path = joint_table(probs), tmp / "data.json"
        path.write_text(json.dumps({"arities": list(arities),
                                    "probs": probs.ravel().tolist()}))
        extra = []
    tree = random_ktree(np.random.default_rng(seed), len(arities), k)
    struct, out = tmp / "structure.json", tmp / "report.json"
    struct.write_text(json.dumps(ktree_to_dict(tree)))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval", str(path), str(struct), *extra,
                     "--out", str(out)])
    assert code == 0
    got = json.loads(out.read_text())["loglik_per_row"]
    want = log_likelihood(project(data, tree), data) / data.n_rows
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("options, refused", [
    (["--solver", "greedy", "--exact-limit", "3"],
     "--exact-limit applies to --solver exact only"),
    (["--solver", "local", "--exact-limit", "3"],
     "--exact-limit applies to --solver exact only"),
], ids=["greedy-exact-limit", "local-exact-limit"])
def test_learn_refuses_options_of_another_solver(run, tmp_path, options,
                                                 refused):
    # refused before the input is read: a missing input would exit 4
    missing, out = tmp_path / "missing.csv", tmp_path / "structure.json"
    res = run(["learn", str(missing), "--k", "1", *options,
               "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.output == f"error: {refused}\n"
    assert not out.exists()


def test_marginal_table_guard(run, tmp_path):
    # one large code makes a 20,000,001-cell count table; refused unallocated
    data = tmp_path / "wide.csv"
    data.write_text("a,b,c\n20000000,0,1\n0,1,0\n")
    res = run(["weights", str(data), "--k", "1"])
    assert res.exit_code == 3, res.output
    assert ("scope (0,) has 20000001 cells, over 16777216" in res.output)


def test_count_work_guard(run, tmp_path, monkeypatch):
    # 2 distinct rows times the 3 singletons and 3 pairs are 12 row visits
    monkeypatch.setattr(weights, "COUNT_WORK_GUARD", 11)
    data, out = tmp_path / "rows.csv", tmp_path / "w.json"
    data.write_text("a,b,c\n0,1,0\n1,0,1\n0,1,0\n")
    res = run(["weights", str(data), "--k", "1", "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert "2 distinct rows x 6 subsets = 12, over 11" in res.output
    assert not out.exists()


@pytest.mark.parametrize("args, option", [
    (["weights", "{csv}", "--k", "0"], "--k"),
    (["learn", "{csv}", "--k", "1", "--solver", "exact",
      "--exact-limit", "0"], "--exact-limit"),
], ids=["k", "exact-limit"])
def test_positive_integer_options(run, tmp_path, args, option):
    csv_path = tmp_path / "xor.csv"
    _write_xor_csv(csv_path)
    bpath = tmp_path / "biases.json"
    bpath.write_text(json.dumps({"k": 1, "n": 3, "Q": 4, "biases": []}))
    args = [a.format(csv=csv_path, biases=bpath) for a in args]
    res = run(args)
    assert res.exit_code == 2, res.output
    assert option in res.output


@pytest.mark.parametrize("args, named", [
    (["weights", "{csv}", "--k", "0"], "--k"),
    (["weights", "{csv}", "--k", "two"], "--k"),
    (["learn", "{csv}", "--k", "1", "--solver", "annealing"], "annealing"),
    (["weights", "{csv}"], "--k"),
    (["weights", "--k", "1"], "DATA"),
    (["frobnicate", "{csv}"], "frobnicate"),
    (["learn", "{csv}", "--k", "1", "--solver", "exact", "--exact", "5"],
     "--exact"),
    # removed options are refused before any input is read
    (["weights", "{missing}", "--k", "1", "--display-base", "2"],
     "--display-base"),
    (["eval", "{missing}", "{missing}", "--display-base", "e"],
     "--display-base"),
    (["learn", "{missing}", "--k", "1", "--solver", "local",
      "--max-iters", "5"], "--max-iters"),
    (["gen-parity", "{missing}", "--cube-limit", "6"], "--cube-limit"),
], ids=["k-zero", "k-not-integer", "unknown-solver", "missing-k",
        "missing-positional", "unknown-command", "abbreviated-option",
        "weights-display-base", "eval-display-base", "max-iters",
        "cube-limit"])
def test_usage_errors(capsys, tmp_path, args, named):
    csv_path = tmp_path / "xor.csv"
    _write_xor_csv(csv_path)
    out = tmp_path / "out.json"
    fmt = dict(csv=csv_path, missing=tmp_path / "missing.csv")
    with pytest.raises(SystemExit) as exc:
        main([a.format(**fmt) for a in args] + ["--out", str(out)])
    assert exc.value.code == 2
    # the usage shown is that of the command the arguments were given to
    prog = "hypertree" if args[0] == "frobnicate" else f"hypertree {args[0]}"
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {prog} "), err
    last = err.splitlines()[-1]
    assert last.startswith(f"{prog}: error:") and named in last, err
    assert not out.exists()


def test_help_lists_every_command(run):
    res = run(["--help"])
    assert res.exit_code == 0
    for name in ("weights", "learn", "eval", "gen-parity"):
        assert name in res.output


def test_weights_stdout_matches_out_file(run, tmp_path):
    csv_path = tmp_path / "chain.csv"
    _write_chain_csv(csv_path)
    res = run(["weights", str(csv_path), "--k", "2"])
    assert res.exit_code == 0, res.output
    out = tmp_path / "weights.json"
    assert run(["weights", str(csv_path), "--k", "2",
                "--out", str(out)]).exit_code == 0
    assert out.read_bytes() == res.output.encode("utf-8")


def test_eval_truncated_structure_names_the_file(run, tmp_path):
    csv_path = tmp_path / "xor.csv"
    _write_xor_csv(csv_path)
    struct = tmp_path / "structure.json"
    text = json.dumps({"k": 1, "n": 3, "seed": [0, 1],
                       "attachments": [{"v": 2, "anchor": [1]}]})
    struct.write_text(text[:text.index('"attachments"') + 3])
    res = run(["eval", str(csv_path), str(struct)])
    assert res.exit_code == 2, res.output
    assert f"error: {struct}: " in res.output


def test_csv_field_over_the_reader_limit_is_validation(run, tmp_path):
    data = tmp_path / "wide.csv"
    data.write_text("a,b\n0," + "1" * 131_073 + "\n1,0\n")
    res = run(["weights", str(data), "--k", "1"])
    assert res.exit_code == 2, res.output
    assert f"error: {data}: line 2: field larger than field limit" in res.output


def test_csv_line_after_a_quoted_two_line_cell(run, tmp_path):
    data = tmp_path / "quoted.csv"
    data.write_text('a,b\n0,"1\n"\n0,1\n0,x\n')
    res = run(["weights", str(data), "--k", "1"])
    assert res.exit_code == 2, res.output
    assert f"{data}: line 5, column 'b': non-integer cell 'x'" in res.output


def test_gen_parity_wide_targets_refused_before_rounding(run, tmp_path):
    # one target per variable triple would be C(1000, 3) = 1.66e8 roundings
    tpath = tmp_path / "targets.json"
    tpath.write_text(json.dumps(
        {"k": 2, "n": 1000, "q_grid": 8,
         "targets": [{"vars": [0, 1, 2], "w": 0.5},
                     {"vars": [997, 998, 999], "w": 1.0}]}))
    out_csv = tmp_path / "sample.csv"
    res = run(["gen-parity", str(tpath), "--out", str(out_csv)])
    assert res.exit_code == 3, res.output
    assert "n=1000 exceeds cube limit 14" in res.output
    assert not out_csv.exists()


def test_sidecar_arity_below_two_names_the_sidecar(run, tmp_path):
    csv_path = tmp_path / "xor.csv"
    _write_xor_csv(csv_path)
    sidecar = tmp_path / "arities.json"
    sidecar.write_text(json.dumps({"arities": {"x0": 1}}))
    res = run(["weights", str(csv_path), "--k", "1", "--arities", str(sidecar)])
    assert res.exit_code == 2, res.output
    assert (f"{sidecar}: variable 'x0': arity must be >= 2, got 1"
            in res.output)


def test_gen_parity_rounding_error_names_the_file(run, tmp_path):
    tpath = tmp_path / "targets.json"
    tpath.write_text(json.dumps(
        {"k": 1, "n": 3, "q_grid": 1, "targets": [{"vars": [0, 2], "w": 0.5}]}))
    res = run(["gen-parity", str(tpath), "--out", str(tmp_path / "s.csv")])
    assert res.exit_code == 2, res.output
    assert (f"error: {tpath}: infeasible scaling: denominator 1 cannot "
            f"encode a nonzero bias for subset (0, 2)") in res.output


@pytest.mark.parametrize("args, doc, message", [
    (["learn", "{csv}"], None, "--k is required when learning from data"),
    (["learn", "{doc}"], {"k": 1, "n": 3, "log_base": "2", "weights": []},
     "{doc}: unsupported log base '2'"),
    (["gen-parity", "{doc}"], {"k": 1, "n": 3, "Q": 0, "biases": []},
     "{doc}: denominator must be >= 1, got 0"),
    (["gen-parity", "{doc}"],
     {"k": 1, "n": 3, "Q": 4, "biases": [{"vars": [0, 5], "p": 1}]},
     "{doc}: subset (0, 5) has a vertex outside [0, 3)"),
    (["gen-parity", "{doc}"],
     {"k": 2, "n": 4, "q_grid": 8, "targets": [{"vars": [0, 1], "w": 0.5}]},
     "{doc}: subset (0, 1) has 2 vertices, not 3"),
    (["eval", "{csv}", "{doc}"],
     {"k": 1, "n": 3, "seed": [0, 1], "attachments": [{"v": 2, "anchor": [2]}]},
     "{doc}: vertex 2 attached to (2,): subset (2, 2) is not strictly "
     "ascending"),
    (["weights", "{doc}", "--k", "1"], {"arities": [], "probs": [1.0]},
     "{doc}: 'arities' is empty: a joint table needs a variable"),
    (["learn", "{doc}", "--k", "1"], {"arities": [], "probs": [1.0]},
     "{doc}: 'arities' is empty: a joint table needs a variable"),
    # a JSON input is a joint table only when it has one of its fields
    (["learn", "{doc}"], {"k": 1}, "{doc}: missing field 'n'"),
    (["learn", "{doc}", "--k", "1"], {"probs": [1.0]},
     "{doc}: missing field 'arities'"),
    (["learn", "{doc}"], {"arities": [2], "probs": [0.5, 0.5]},
     "--k is required when learning from data"),
], ids=["learn-data-without-k", "weights-log-base-2", "biases-zero-q",
        "biases-subset-outside", "targets-pair-at-k2", "structure-self-anchor",
        "weights-empty-joint-table", "learn-empty-joint-table",
        "learn-weight-file-without-list", "learn-joint-table-without-arities",
        "learn-joint-table-without-k"])
def test_input_refusals(run, tmp_path, args, doc, message):
    fmt = dict(csv=tmp_path / "xor.csv", doc=tmp_path / "doc.json")
    _write_xor_csv(fmt["csv"])
    if doc is not None:
        fmt["doc"].write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    res = run([a.format(**fmt) for a in args] + ["--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.output == f"error: {message.format(**fmt)}\n"
    assert not out.exists()


@pytest.mark.parametrize("vars_, reason", [
    ([0, 5], "has a vertex outside [0, 3)"),
    ([1, 1], "is not strictly ascending"),
    ([0, 1, 2], "has 3 vertices, not {sizes}"),
], ids=["vertex-outside", "repeated-vertex", "wrong-size"])
@pytest.mark.parametrize("command, doc, entries, field, sizes", [
    ("learn", {"k": 1, "n": 3}, "weights", "w", "1..2"),
    ("gen-parity", {"k": 1, "n": 3, "Q": 4}, "biases", "p", "2"),
    ("gen-parity", {"k": 1, "n": 3, "q_grid": 8}, "targets", "w", "2"),
], ids=["weights", "biases", "targets"])
def test_subset_refusals(run, tmp_path, command, doc, entries, field, sizes,
                         vars_, reason):
    # every subset-keyed file is held to one rule, with the same reasons
    path, out = tmp_path / "doc.json", tmp_path / "out.csv"
    path.write_text(json.dumps({**doc, entries: [{"vars": vars_, field: 1}]}))
    res = run([command, str(path), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.output == (f"error: {path}: subset {tuple(vars_)} "
                          f"{reason.format(sizes=sizes)}\n")
    assert not out.exists()


def test_inputs_saved_with_a_byte_order_mark(run, tmp_path):
    def with_bom(path):
        bom = path.with_name("bom-" + path.name)
        bom.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        return bom

    csv_path, sidecar = tmp_path / "xor.csv", tmp_path / "arities.json"
    _write_xor_csv(csv_path)
    sidecar.write_text(json.dumps({"arities": {"x0": 3}}))
    wfile, struct = {}, {}
    for name, data, side in [("plain", csv_path, sidecar),
                             ("bom", with_bom(csv_path), with_bom(sidecar))]:
        wfile[name] = tmp_path / f"{name}.weights.json"
        assert run(["weights", str(data), "--k", "2", "--arities", str(side),
                    "--out", str(wfile[name])]).exit_code == 0
    assert wfile["bom"].read_bytes() == wfile["plain"].read_bytes()
    for name, weights in [("plain", wfile["plain"]),
                          ("bom", with_bom(wfile["plain"]))]:
        struct[name] = tmp_path / f"{name}.structure.json"
        res = run(["learn", str(weights), "--solver", "exact",
                   "--out", str(struct[name])])
        assert res.exit_code == 0, res.output
        struct[name] = json.loads(struct[name].read_text())
        del struct[name]["stats"]["elapsed_s"]
    assert struct["bom"] == struct["plain"]
