"""Metamorphic relations: the same data, presented another way, gives the
same answer, with no reference implementation to trust.

A CSV with its rows shuffled, or with every row written twice, is the same
empirical distribution. Counts are integers, and doubling both a count and
the row total T scales their quotient by a power of 2, so every weight is
bit-identical, and so is every solver's result.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree.dataset import load_dataset
from hypertree.solvers import exact_search, greedy, local_search
from hypertree.weights import compute_weights, weights_to_dict


@st.composite
def small_csvs(draw):
    """(rows of codes, k, a permutation of the rows)."""
    n = draw(st.integers(2, 5))
    arities = [draw(st.integers(2, 3)) for _ in range(n)]
    rows = draw(st.lists(st.tuples(*(st.integers(0, a - 1) for a in arities)),
                         min_size=1, max_size=12))
    return rows, draw(st.integers(1, n - 1)), draw(st.permutations(
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
