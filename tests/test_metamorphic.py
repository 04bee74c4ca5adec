"""Metamorphic relations: the same data, presented another way, gives the
same answer, with no reference implementation to trust.

A CSV with its rows shuffled, or with every row written twice, is the same
empirical distribution. Counts are integers, and doubling both a count and
the row total T scales their quotient by a power of 2, so every weight is
bit-identical, and so is every solver's result and every byte of ``eval``'s
report and model.

Renaming the vertices renames the answer. A CSV with its columns permuted
has its weights permuted, up to the order in which floats are summed. On
distinct weights no tie is broken by vertex index, so greedy, ``chow_liu``
and exact search on relabelled weights return the relabelled edge set.
A joint table with its variables permuted, scored against the relabelled
structure, gives the relabelled weights, the same ``eval`` report and the
model's factor tables with their axes permuted; its zero cells reach the
-inf cells of the model's log tables.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree.cli import main
from hypertree.dataset import load_dataset
from hypertree.solvers import chow_liu, exact_search, greedy, local_search
from hypertree.structure import KTree, ktree_edges, ktree_to_dict
from hypertree.weights import (WeightFunction, compute_weights,
                               weights_from_dict, weights_to_dict)

from oracles import random_ktree, random_weight_function


@st.composite
def small_csvs(draw):
    """(rows of codes, k, a permutation of the rows); k may reach n+1, where
    the k-tree is the one clique of all n columns."""
    n = draw(st.integers(2, 5))
    arities = [draw(st.integers(2, 3)) for _ in range(n)]
    rows = draw(st.lists(st.tuples(*(st.integers(0, a - 1) for a in arities)),
                         min_size=1, max_size=12))
    return rows, draw(st.integers(1, n + 1)), draw(st.permutations(
        range(len(rows))))


def _write(path, rows):
    header = ",".join(f"x{i}" for i in range(len(rows[0])))
    path.write_text(header + "\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in rows))
    return path


def _learn(path, k):
    """The weight dump's bytes and each solver's (tree, score, method,
    stats but elapsed_s), from the CSV at path."""
    wf = compute_weights(load_dataset(path), k)
    start = greedy(wf)
    results = [
        (r.tree, r.score, r.method,
         {key: v for key, v in r.stats.items() if key != "elapsed_s"})
        for r in (start, local_search(wf, start.tree), exact_search(wf))]
    return json.dumps(weights_to_dict(wf)).encode(), results


@given(case=small_csvs())
@settings(max_examples=60, deadline=None)
def test_rows_shuffled_or_doubled_give_the_same_weights_and_learn(
        tmp_path_factory, case):
    rows, k, order = case
    tmp = tmp_path_factory.mktemp("metamorphic")
    want = _learn(_write(tmp / "rows.csv", rows), k)
    shuffled = [rows[i] for i in order]
    doubled = [row for row in rows for _ in range(2)]
    assert _learn(_write(tmp / "shuffled.csv", shuffled), k) == want
    assert _learn(_write(tmp / "doubled.csv", doubled), k) == want


def _eval(directory, csv_path, structure):
    """The bytes of ``eval``'s report and ``--model-out`` model for the CSV
    at csv_path, scored against the structure file."""
    report, model = directory / "report.json", directory / "model.json"
    assert main(["eval", str(csv_path), str(structure), "--out", str(report),
                 "--model-out", str(model)]) == 0
    return report.read_bytes(), model.read_bytes()


@given(case=small_csvs())
@settings(max_examples=60, deadline=None)
def test_rows_shuffled_or_doubled_give_the_same_eval(tmp_path_factory, case):
    rows, k, order = case
    tmp = tmp_path_factory.mktemp("metamorphic")
    original = _write(tmp / "rows.csv", rows)
    structure = tmp / "structure.json"
    assert main(["learn", str(original), "--k", str(k),
                 "--out", str(structure)]) == 0
    want = _eval(tmp, original, structure)
    shuffled = [rows[i] for i in order]
    doubled = [row for row in rows for _ in range(2)]
    assert _eval(tmp, _write(tmp / "shuffled.csv", shuffled), structure) == want
    assert _eval(tmp, _write(tmp / "doubled.csv", doubled), structure) == want


@given(case=small_csvs(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_columns_permuted_permute_the_weights(tmp_path_factory, case, data):
    rows, k, _ = case
    n = len(rows[0])
    order = data.draw(st.permutations(range(n)))  # new column i is old order[i]
    tmp = tmp_path_factory.mktemp("metamorphic")
    want = compute_weights(load_dataset(_write(tmp / "rows.csv", rows)), k)
    got = compute_weights(load_dataset(_write(
        tmp / "columns.csv", [[row[j] for j in order] for row in rows])), k)
    new = {old: i for i, old in enumerate(order)}
    assert len(got.weights) == len(want.weights)
    for h, w in want.weights.items():
        assert got.weights[tuple(sorted(new[v] for v in h))] == pytest.approx(
            w, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_relabelled_weights_give_the_relabelled_edges(seed):
    rng = np.random.default_rng(seed)
    k = 1 + seed % 2
    n = int(rng.integers(1, 9))
    wf = random_weight_function(rng, n, k)
    assert len(set(wf.weights.values())) == len(wf.weights)  # distinct
    perm = rng.permutation(n)
    relabelled = WeightFunction(k=k, n=n, weights={
        tuple(sorted(int(perm[v]) for v in h)): w
        for h, w in wf.weights.items()})
    for solve in [greedy, exact_search] + ([chow_liu] if k == 1 else []):
        want, got = solve(wf), solve(relabelled)
        assert ktree_edges(got.tree) == {
            tuple(sorted((int(perm[u]), int(perm[v]))))
            for u, v in ktree_edges(want.tree)}
        assert got.score == pytest.approx(want.score, abs=1e-12)


def _eval_joint(directory, probs, tree):
    """Write a joint table and a structure into a new directory, run
    ``weights`` and ``eval --model-out`` on them, and return the weight
    function, the report and the model document."""
    directory.mkdir()
    table = directory / "table.json"
    table.write_text(json.dumps({"arities": list(probs.shape),
                                 "probs": probs.ravel().tolist()}))
    structure = directory / "structure.json"
    structure.write_text(json.dumps(ktree_to_dict(tree)))
    paths = [directory / name for name in ("w.json", "r.json", "m.json")]
    assert main(["weights", str(table), "--k", str(tree.k),
                 "--out", str(paths[0])]) == 0
    assert main(["eval", str(table), str(structure), "--out", str(paths[1]),
                 "--model-out", str(paths[2])]) == 0
    return (weights_from_dict(json.loads(paths[0].read_text())),
            json.loads(paths[1].read_text()), json.loads(paths[2].read_text()))


@pytest.mark.parametrize("seed", range(20))
def test_joint_table_variables_permuted_permute_weights_and_model(
        tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    shape = tuple(int(a) for a in rng.integers(2, 4, size=n))
    # most cells zero, so that 17 of the 20 models hold a zero marginal
    probs = rng.random(shape) * (rng.random(shape) < 0.3)
    probs.flat[0] += 0.1
    probs /= probs.sum()
    k = 1 + seed % 2
    tree = random_ktree(rng, n, k)
    order = rng.permutation(n)  # new variable i is old order[i]
    new = np.argsort(order)  # old vertex v is new vertex new[v]
    relabelled = KTree(k=k, n=n, seed=tuple(int(new[v]) for v in tree.seed),
                       attachments=tuple(
                           (int(new[v]), tuple(int(new[u]) for u in anchor))
                           for v, anchor in tree.attachments))
    wf, report, model = _eval_joint(tmp_path / "a", probs, tree)
    got_wf, got_report, got_model = _eval_joint(
        tmp_path / "b", np.transpose(probs, order), relabelled)

    assert len(got_wf.weights) == len(wf.weights)
    for h, w in wf.weights.items():
        assert got_wf.weights[tuple(sorted(int(new[v]) for v in h))] == (
            pytest.approx(w, abs=1e-12))
    for key in ("score", "divergence_decomposed", "divergence_direct",
                "loglik_per_row"):
        assert got_report[key] == pytest.approx(report[key], abs=1e-12), key
    tables = {tuple(e["vars"]): e["table"] for e in got_model["factors"]}
    assert len(tables) == len(model["factors"])
    for e in model["factors"]:
        h = tuple(e["vars"])
        moved = tuple(sorted(int(new[v]) for v in h))
        want = np.transpose(np.reshape(e["table"], [shape[v] for v in h]),
                            [h.index(int(order[u])) for u in moved])
        np.testing.assert_allclose(tables[moved], want.ravel(), rtol=1e-12,
                                   atol=0)
