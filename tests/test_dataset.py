import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree.dataset import (
    Dataset,
    JointTable,
    VariableSpec,
    count_table,
    entropy,
    joint_entropy,
    joint_table_from_dict,
    load_dataset,
    marginal,
    scope_entropy,
)

from oracles import mutual_information, random_dataset


@pytest.fixture
def four_rows():
    # rows {(0,0),(0,1),(1,1),(1,1)}
    specs = (VariableSpec("a", 2), VariableSpec("b", 2))
    return Dataset(specs, np.array([[0, 0], [0, 1], [1, 1], [1, 1]]))


def test_load_dataset_readback():
    d = load_dataset(io.StringIO("a,b\n0,1\n1,0\n"))
    assert d.n_vars == 2 and d.n_rows == 2
    assert d.arities == (2, 2)
    assert d.rows.tolist() == [[0, 1], [1, 0]]


def test_load_dataset_500_rows():
    body = "".join(f"{i % 2},{i % 3},{i % 2}\n" for i in range(500))
    d = load_dataset(io.StringIO("p,q,r\n" + body))
    assert d.n_vars == 3 and d.n_rows == 500
    assert d.arities == (2, 3, 2)


def test_load_dataset_sidecar_violation():
    with pytest.raises(ValueError, match="arity"):
        load_dataset(io.StringIO("a,b\n0,5\n"), arities={"b": 2})
    with pytest.raises(ValueError, match=r"not in the header: \['y', 'zzz'\]"):
        load_dataset(io.StringIO("a,b\n0,1\n"),
                     arities={"zzz": 3, "b": 2, "y": 2})


def test_load_dataset_declared_arity_allows_unseen_outcomes():
    d = load_dataset(io.StringIO("a,b\n0,1\n1,0\n"), arities={"b": 4})
    assert d.arities == (2, 4)
    m = marginal(d, (1,))
    assert m.tolist() == [0.5, 0.5, 0.0, 0.0]


def test_load_dataset_errors():
    with pytest.raises(ValueError, match="non-integer"):
        load_dataset(io.StringIO("a,b\n0,x\n"))
    with pytest.raises(ValueError, match="line 3"):
        load_dataset(io.StringIO("a,b\n0,1\n0\n"))
    with pytest.raises(ValueError, match="empty"):
        load_dataset(io.StringIO("a,b\n"))
    # the blank line 3 is skipped but still counted
    with pytest.raises(ValueError, match="line 4, column 'b'.*int64"):
        load_dataset(io.StringIO("a,b\n0,1\n\n1,99999999999999999999\n"))
    with pytest.raises(ValueError, match="line 2, column 'a'.*int64"):
        load_dataset(io.StringIO("a,b\n-9223372036854775809,1\n"))
    # codes outside an arity name the file line too, not a data-row index
    with pytest.raises(ValueError,
                       match="line 3, column 'a': outcome 5 >= declared arity 3"):
        load_dataset(io.StringIO("a,b\n0,1\n5,0\n"), arities={"a": 3})
    with pytest.raises(ValueError, match=r"line 4, column 'a': outcome -1 outside"):
        load_dataset(io.StringIO("a,b\n0,1\n\n-1,0\n"))


def test_variable_spec_validation():
    with pytest.raises(ValueError):
        VariableSpec("a", 1)
    with pytest.raises(ValueError):
        Dataset((VariableSpec("a", 2), VariableSpec("a", 2)),
                np.array([[0, 0]]))


def test_marginal_counts(four_rows):
    assert marginal(four_rows, (0,)).tolist() == [0.5, 0.5]
    assert marginal(four_rows, (1,)).tolist() == [0.25, 0.75]


def test_marginal_uniform_joint():
    jt = JointTable((2, 2, 2), np.full((2, 2, 2), 0.125))
    m = marginal(jt, (0, 2))
    assert np.allclose(m, 0.25)


def test_marginal_errors(four_rows):
    with pytest.raises(ValueError):
        marginal(four_rows, ())
    with pytest.raises(ValueError):
        marginal(four_rows, (0, 5))
    with pytest.raises(ValueError):
        marginal(four_rows, (1, 0))


def test_entropy_values(four_rows):
    uniform = marginal(four_rows, (0,))
    assert entropy(uniform) == pytest.approx(math.log(2), abs=1e-12)
    point = JointTable((2, 2), np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert entropy(marginal(point, (0,))) == 0.0
    skewed = marginal(four_rows, (1,))
    assert entropy(skewed) == pytest.approx(0.5623351446188083, abs=1e-12)


def test_mutual_information_values(four_rows):
    assert mutual_information(four_rows, 0, 1) == pytest.approx(
        0.2157615543388356, abs=1e-12)
    copies = Dataset((VariableSpec("a", 2), VariableSpec("b", 2)),
                     np.array([[0, 0], [1, 1]]))
    assert mutual_information(copies, 0, 1) == pytest.approx(math.log(2), abs=1e-12)
    indep = JointTable((2, 2), np.full((2, 2), 0.25))
    assert mutual_information(indep, 0, 1) == 0.0
    with pytest.raises(ValueError):
        mutual_information(four_rows, 1, 1)


def test_joint_entropy_matches_small_table():
    rng = np.random.default_rng(0)
    d = random_dataset(rng, 3, 50, arities=[2, 2, 2])
    # plug-in over distinct rows must match the full-scope marginal entropy
    assert joint_entropy(d) == pytest.approx(
        scope_entropy(d, (0, 1, 2)), abs=1e-12)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 4), t=st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_marginals_are_count_multiples(seed, n, t):
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, n, t)
    for v in range(n):
        m = marginal(d, (v,))
        counts = count_table(d, (v,))
        assert np.array_equal(m, counts / t)
        assert counts.sum() == t


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_entropy_refinement_monotone(seed):
    rng = np.random.default_rng(seed)
    n = 4
    d = random_dataset(rng, n, int(rng.integers(1, 40)))
    for size in range(1, 3):
        import itertools
        for s in itertools.combinations(range(n), size):
            h = scope_entropy(d, s)
            for v in range(n):
                if v in s:
                    continue
                up = tuple(sorted(s + (v,)))
                hu = scope_entropy(d, up)
                assert h - 1e-9 <= hu <= h + math.log(d.specs[v].arity) + 1e-9


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_marginal_of_marginal_consistency(seed):
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, 4, int(rng.integers(2, 40)))
    import itertools
    for s in itertools.combinations(range(4), 2):
        for v in range(4):
            if v in s:
                continue
            up = tuple(sorted(s + (v,)))
            axis = up.index(v)
            reduced = marginal(d, up).sum(axis=axis)
            assert np.max(np.abs(reduced - marginal(d, s))) <= 1e-12


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_mutual_information_nonnegative(seed):
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, 3, int(rng.integers(1, 50)))
    for u in range(3):
        for v in range(u + 1, 3):
            assert mutual_information(d, u, v) >= 0.0


def test_joint_table_roundtrip():
    doc = json.loads(
        '{"arities": [2, 3], "probs": [0.1, 0.2, 0.05, 0.15, 0.3, 0.2]}')
    jt = joint_table_from_dict(doc)
    # row-major, last variable fastest
    assert jt.probs[0, 1] == 0.2
    assert jt.probs[1, 0] == 0.15
    with pytest.raises(ValueError):
        joint_table_from_dict(json.loads('{"arities": [2, 2], "probs": [1.0]}'))


def test_joint_table_validation():
    with pytest.raises(ValueError, match="sums"):
        JointTable((2, 2), np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="nonnegative"):
        JointTable((2, 2), np.array([[1.5, -0.5], [0.0, 0.0]]))
    # the cell count is exact: 2**64 does not wrap to 0
    with pytest.raises(ValueError, match="expected 18446744073709551616"):
        joint_table_from_dict({"arities": [2] * 64, "probs": [1.0]})
