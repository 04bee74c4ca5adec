import itertools
import json
import math
from typing import NamedTuple

import numpy as np
import pytest

from hypertree.cli import main
from hypertree.dataset import dump_dataset, load_dataset
from hypertree.weights import compute_weights, weights_from_dict

from oracles import markov_chain_joint, random_dataset, xor_triple_joint


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


def test_learn_guard_refusal_exit_code(run, tmp_path):
    rng = np.random.default_rng(0)
    d = random_dataset(rng, 12, 40, arities=[2] * 12)
    csv_path = tmp_path / "wide.csv"
    dump_dataset(d, csv_path)
    res = run(["learn", str(csv_path), "--k", "2",
               "--solver", "exact"])
    assert res.exit_code == 3
    assert "exceeds" in res.output


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


def test_eval_large_n_omits_direct(run, tmp_path):
    rng = np.random.default_rng(1)
    d = random_dataset(rng, 11, 50, arities=[4] * 11)  # 4^11 > 2^20 cells
    csv_path = tmp_path / "big.csv"
    dump_dataset(d, csv_path)
    struct = tmp_path / "structure.json"
    res = run(["learn", str(csv_path), "--k", "1",
               "--solver", "chow_liu", "--out", str(struct)])
    assert res.exit_code == 0, res.output
    res = run(["eval", str(csv_path), str(struct)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert "divergence_direct" not in report
    assert "not enumerable" in report["note"]


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
    assert len(prov["block_log"]) == 12

    # recomputed weights match the bias formula
    d = load_dataset(out_csv)
    wf = compute_weights(d, 1)
    from hypertree.paritygen import bias_to_weight
    expect = bias_to_weight((2 / 4) / 3)
    assert wf[(0, 1)] == pytest.approx(expect, abs=1e-9)
    for pair in ((0, 2), (1, 2)):
        assert abs(wf[pair]) <= 1e-12


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


def test_gen_parity_guard(run, tmp_path):
    biases = {"k": 1, "n": 15, "Q": 2, "biases": []}
    bpath = tmp_path / "biases.json"
    bpath.write_text(json.dumps(biases))
    res = run(["gen-parity", str(bpath)])
    assert res.exit_code == 3


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
    ({}, [0, 1, 9], "outside [0, 4)"),
    ({}, [0, 1, 1], "repeats a vertex"),
    ({"scale": 0}, [0, 1, 2], "scale must be finite and > 0"),
], ids=["vertex-outside", "repeated-vertex", "zero-scale"])
def test_gen_parity_invalid_targets(run, tmp_path, extra, vars_, why):
    tpath = tmp_path / "targets.json"
    tpath.write_text(json.dumps(dict(
        k=2, n=4, q_grid=8, targets=[{"vars": vars_, "w": 0.5}], **extra)))
    out_csv = tmp_path / "sample.csv"
    res = run(["gen-parity", str(tpath), "--out", str(out_csv)])
    assert res.exit_code == 2, res.output
    assert why in res.output
    assert not out_csv.exists()


def test_gen_parity_unknown_schema(run, tmp_path):
    bpath = tmp_path / "junk.json"
    bpath.write_text(json.dumps({"foo": 1}))
    res = run(["gen-parity", str(bpath)])
    assert res.exit_code == 2


def test_display_base_two(run, tmp_path):
    csv_path = tmp_path / "xor.csv"
    _write_xor_csv(csv_path)
    out = tmp_path / "s.json"
    res = run(["learn", str(csv_path), "--k", "2",
               "--solver", "exact", "--display-base", "2",
               "--out", str(out)])
    assert res.exit_code == 0
    # file stays in nats; the printed summary converts
    doc = json.loads(out.read_text())
    assert doc["score"] == pytest.approx(math.log(2), abs=1e-12)
    assert "1.000000" in res.output and "base 2" in res.output


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
                           "weights": [{"vars": [0, 1], "w": "inf"}]}),
     ["learn", "{bad}"], "not finite"),
    ("t.json", json.dumps({"k": 1, "n": 3, "q_grid": 8, "scale": [1],
                           "targets": [{"vars": [0, 1], "w": 0.5}]}),
     ["gen-parity", "{bad}", "--out", "{out}"], "'scale' must be a number"),
    ("s.json", json.dumps({"k": 1, "n": 3, "seed": [0.9, 1],
                           "attachments": [{"v": 2, "anchor": [1]}]}),
     ["eval", "{csv}", "{bad}"], "'seed' must be an integer, got 0.9"),
    ("s.json", json.dumps({"k": 1, "n": 3, "seed": [0, 1],
                           "attachments": [{"v": 2.7, "anchor": [1]}]}),
     ["eval", "{csv}", "{bad}"], "'v' must be an integer, got 2.7"),
    ("s.json", json.dumps({"k": 1, "n": 3, "seed": [0, 1],
                           "attachments": [{"v": 2, "anchor": [True]}]}),
     ["eval", "{csv}", "{bad}"], "'anchor' must be an integer, got True"),
    ("s.json", json.dumps({"k": "1", "n": 3, "seed": [0, 1],
                           "attachments": [{"v": 2, "anchor": [1]}]}),
     ["eval", "{csv}", "{bad}"], "'k' must be an integer, got '1'"),
    ("w.json", json.dumps({"k": 1.8, "n": 2,
                           "weights": [{"vars": [0, 1], "w": 0.5}]}),
     ["learn", "{bad}"], "'k' must be an integer, got 1.8"),
    ("w.json", json.dumps({"k": 1, "n": 2,
                           "weights": [{"vars": [0, 1.9], "w": 0.5}]}),
     ["learn", "{bad}"], "'vars' must be an integer, got 1.9"),
    ("w.json", json.dumps({"k": 1, "n": True, "weights": []}),
     ["learn", "{bad}"], "'n' must be an integer, got True"),
    ("t.json", json.dumps({"k": 1, "n": 3, "q_grid": 8,
                           "targets": [{"vars": [0, 1.5], "w": 0.5}]}),
     ["gen-parity", "{bad}", "--out", "{out}"],
     "'vars' must be an integer, got 1.5"),
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
], ids=["learn-array", "eval-no-seed", "learn-entry-no-w", "gen-parity-no-n",
        "arities-no-key", "arities-not-object", "arity-not-integer",
        "joint-table-probs-size", "learn-weight-not-finite",
        "gen-parity-scale-not-number", "structure-seed-float",
        "structure-vertex-float", "structure-anchor-bool",
        "structure-k-string", "weights-k-float", "weights-vars-float",
        "weights-n-bool", "targets-vars-float", "targets-q-grid-float",
        "biases-p-float", "joint-table-arity-float", "weights-repeated-subset",
        "targets-repeated-subset", "biases-repeated-subset",
        "learn-deeply-nested"])
def test_malformed_json_input_is_validation(run, tmp_path, filename, text,
                                            args, field):
    csv_path = tmp_path / "xor.csv"
    _write_xor_csv(csv_path)
    bad = tmp_path / filename
    bad.write_text(text)
    args = [a.format(csv=csv_path, bad=bad, out=tmp_path / "sample.csv")
            for a in args]
    res = run(args)
    assert res.exit_code == 2, res.output
    assert str(bad) in res.output and field in res.output


@pytest.mark.parametrize("kind, args, count", [
    ("csv", ["weights", "{data}", "--k", "2"], "300 vertices number 4500250"),
    ("json", ["learn", "{data}"], "100000 vertices number 5000050000"),
], ids=["csv", "weight-file"])
def test_weight_domain_guard(run, tmp_path, kind, args, count):
    data = tmp_path / f"data.{kind}"
    if kind == "csv":
        names = [f"x{i}" for i in range(300)]
        data.write_text(",".join(names) + "\n" + ",".join("0" * 300) + "\n")
    else:
        data.write_text(json.dumps({"k": 1, "n": 100000, "weights": []}))
    res = run([a.format(data=data) for a in args])
    assert res.exit_code == 3, res.output
    assert count in res.output and "over 4194304" in res.output


def test_marginal_table_guard(run, tmp_path):
    # one large code makes a 20,000,001-cell count table; refused unallocated
    data = tmp_path / "wide.csv"
    data.write_text("a,b,c\n20000000,0,1\n0,1,0\n")
    res = run(["weights", str(data), "--k", "1"])
    assert res.exit_code == 3, res.output
    assert ("scope (0,) has 20000001 cells, over 16777216" in res.output)


@pytest.mark.parametrize("args, option", [
    (["weights", "{csv}", "--k", "0"], "--k"),
    (["learn", "{csv}", "--k", "1", "--max-iters", "0"], "--max-iters"),
    (["learn", "{csv}", "--k", "1", "--solver", "exact",
      "--exact-limit", "0"], "--exact-limit"),
    (["gen-parity", "{biases}", "--cube-limit", "0"], "--cube-limit"),
], ids=["k", "max-iters", "exact-limit", "cube-limit"])
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
    (["learn", "{csv}", "--k", "1", "--max", "5"], "--max"),
], ids=["k-zero", "k-not-integer", "unknown-solver", "missing-k",
        "missing-positional", "unknown-command", "abbreviated-option"])
def test_usage_errors(capsys, tmp_path, args, named):
    csv_path = tmp_path / "xor.csv"
    _write_xor_csv(csv_path)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([a.format(csv=csv_path) for a in args] + ["--out", str(out)])
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
