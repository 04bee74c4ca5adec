"""Metamorphic relations: the same data, presented another way, gives the
same answer, with no reference implementation to trust.

A CSV with its rows shuffled, or with every row written twice, is the same
empirical distribution. Counts are integers, and doubling both a count and
the row total T scales their quotient by a power of 2, so every weight is
bit-identical, and so is every solver's result.

Renaming the vertices renames the answer. A CSV with its columns permuted
has its weights permuted, up to the order in which floats are summed. On
distinct weights no tie is broken by vertex index, so greedy, ``chow_liu``
and exact search on relabelled weights return the relabelled edge set.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree.dataset import load_dataset
from hypertree.solvers import chow_liu, exact_search, greedy, local_search
from hypertree.structure import ktree_edges
from hypertree.weights import WeightFunction, compute_weights, weights_to_dict

from oracles import random_weight_function


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
