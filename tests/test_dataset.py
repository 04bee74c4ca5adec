import codecs
import csv
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree import dataset
from hypertree.dataset import (
    Dataset,
    count_tables,
    dump_dataset,
    entropy,
    joint_entropy,
    joint_table_from_dict,
    load_dataset,
)

from hypertree.errors import GuardLimitError

from oracles import (
    count_table,
    count_table_reference,
    joint_entropy_reference,
    joint_table,
    load_dataset_reference,
    marginal,
    marginal_dense,
    marginal_reference,
    mutual_information,
    random_dataset,
    scope_entropy,
    tally,
    target_samples,
    text_file,
)


@pytest.fixture
def four_rows():
    # rows {(0,0),(0,1),(1,1),(1,1)}
    return tally((2, 2), np.array([[0, 0], [0, 1], [1, 1], [1, 1]]))


def test_load_dataset_readback(tmp_path):
    d = load_dataset(text_file(tmp_path, "a,b\n0,1\n1,0\n"))
    assert d.n_vars == 2 and d.n_rows == 2
    assert d.arities == (2, 2)
    # the rows as a multiset: a Dataset keeps distinct rows and counts
    rows = np.repeat(d.rows, d.counts, axis=0).tolist()
    assert sorted(rows) == [[0, 1], [1, 0]]
    # a file saved with a byte-order mark reads the same
    path = tmp_path / "bom.csv"
    path.write_bytes(codecs.BOM_UTF8 + b"a,b\n0,1\n1,0\n")
    back = load_dataset(path)
    assert back.arities == d.arities
    assert np.array_equal(back.rows, d.rows)
    assert np.array_equal(back.counts, d.counts)


def test_load_dataset_500_rows(tmp_path):
    body = "".join(f"{i % 2},{i % 3},{i % 2}\n" for i in range(500))
    d = load_dataset(text_file(tmp_path, "p,q,r\n" + body))
    assert d.n_vars == 3 and d.n_rows == 500
    assert d.arities == (2, 3, 2)


def test_load_dataset_sidecar_violation(tmp_path):
    with pytest.raises(ValueError, match="arity"):
        load_dataset(text_file(tmp_path, "a,b\n0,5\n"), arities={"b": 2})
    with pytest.raises(ValueError, match=r"not in the header: \['y', 'zzz'\]"):
        load_dataset(text_file(tmp_path, "a,b\n0,1\n"),
                     arities={"zzz": 3, "b": 2, "y": 2})


@pytest.mark.parametrize("arities", [[2, 2], "ab"], ids=["list", "str"])
def test_load_dataset_refuses_arities_that_map_nothing(tmp_path, arities):
    path = text_file(tmp_path, "a,b\n0,1\n1,0\n")
    with pytest.raises(ValueError) as exc:
        load_dataset(path, arities)
    assert str(exc.value) == (f"{path}: malformed field: 'arities' must map "
                              f"names to arities, got {type(arities).__name__}")


def test_load_dataset_refuses_an_arity_key_that_is_no_name(tmp_path):
    # a mix of key types once failed in the sort of the unknown names
    path = text_file(tmp_path, "a,b\n0,1\n1,0\n")
    with pytest.raises(ValueError) as exc:
        load_dataset(path, {0: 2, "z": 3})
    assert str(exc.value) == (f"{path}: malformed field: 'arities' must map "
                              f"names to arities, got key 0")


@pytest.mark.parametrize("arity", [3.9, True, "3"])
def test_load_dataset_refuses_a_non_integer_arity(tmp_path, arity):
    # int() would read 3.9 as 3 and True as 1, and accept "3"
    path = text_file(tmp_path, "a,b\n0,1\n1,2\n")
    with pytest.raises(ValueError) as exc:
        load_dataset(path, {"b": arity})
    assert str(exc.value) == (f"{path}: malformed field: 'arities.b' must be "
                              f"an integer, got {arity!r}")


@pytest.mark.parametrize("header, message", [
    ("a,a,b", "line 1, column 2: header name 'a' repeats column 1"),
    ("a, b ,b", "line 1, column 3: header name 'b' repeats column 2"),
    ("a, ,b", "line 1, column 2: empty header name"),
    ("a,b,", "line 1, column 3: empty header name"),
    ('a,"b\n",""', "line 2, column 3: empty header name"),
    ("", "line 1: empty header row"),
])
def test_load_dataset_refuses_a_bad_header_name_before_the_body(tmp_path,
                                                                header,
                                                                message):
    # the header fault wins over a malformed record and a bad cell after it
    path = text_file(tmp_path, header + "\n0,1,1\n0,1\r2,1\n0,x,1\n")
    with pytest.raises(ValueError) as exc:
        load_dataset(path)
    assert str(exc.value) == f"{path}: {message}"


def test_declared_arity_below_two_is_refused_naming_the_column(tmp_path):
    # refused at the header, before a code of 1 could reach the arity check
    for body in ("0,0\n", "0,1\n"):
        path = text_file(tmp_path, "a,b\n" + body)
        with pytest.raises(ValueError) as exc:
            load_dataset(path, {"b": 1})
        assert str(exc.value) == (f"{path}: variable 'b': arity must be "
                                  f">= 2, got 1")


def test_load_dataset_declared_arity_allows_unseen_outcomes(tmp_path):
    d = load_dataset(text_file(tmp_path, "a,b\n0,1\n1,0\n"), arities={"b": 4})
    assert d.arities == (2, 4)
    m = marginal(d, (1,))
    assert m.tolist() == [0.5, 0.5, 0.0, 0.0]


def test_load_dataset_errors(tmp_path):
    def load(text, arities=None):
        return load_dataset(text_file(tmp_path, text), arities)

    with pytest.raises(ValueError, match="non-integer"):
        load("a,b\n0,x\n")
    with pytest.raises(ValueError, match="line 3"):
        load("a,b\n0,1\n0\n")
    with pytest.raises(ValueError, match="empty"):
        load("a,b\n")
    # the blank line 3 is skipped but still counted
    with pytest.raises(ValueError, match="line 4, column 'b'.*int64"):
        load("a,b\n0,1\n\n1,99999999999999999999\n")
    with pytest.raises(ValueError, match="line 2, column 'a'.*int64"):
        load("a,b\n-9223372036854775809,1\n")
    # codes outside an arity name the file line too, not a data-row index
    with pytest.raises(ValueError,
                       match="line 3, column 'a': outcome 5 >= declared arity 3"):
        load("a,b\n0,1\n5,0\n", arities={"a": 3})
    with pytest.raises(ValueError, match=r"line 4, column 'a': outcome -1 outside"):
        load("a,b\n0,1\n\n-1,0\n")
    # the first faulty line in file order is reported, whatever its fault
    with pytest.raises(ValueError, match="line 3, column 'b'.*int64"):
        load("a,b\n0,1\n0,99999999999999999999\n0,1\n0,x\n")


# Padding that str.strip() removes; U+001C and U+001F are whitespace to
# str.strip() but not to int() alone.
PADDING = st.text(" \t\x1c\x1f", max_size=2)
FAULTS = ("none", "non-integer", "int64", "cell-count", "negative",
          "declared-arity", "unknown-arity", "malformed-record", "no-rows",
          "header-name", "blank-header")


@st.composite
def csv_cell(draw, code: int) -> str:
    """code as a CSV cell: padded, signed, zero-led, quoted or over lines."""
    sign = "-" if code < 0 else draw(st.sampled_from(["", "+"]))
    text = (draw(PADDING) + sign + "0" * draw(st.integers(0, 2))
            + str(abs(code)) + draw(PADDING))
    form = draw(st.sampled_from(["bare", "quoted", "lines"]))
    if form == "quoted":
        return f'"{text}"'
    return f'"\n{text}\r\n"' if form == "lines" else text


@st.composite
def csv_with_one_fault(draw):
    """(CSV text, declared arities or None) with at most one fault."""
    n, t = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    names = [f"x{i}" for i in range(n)]
    codes = [[draw(st.integers(0, 3)) for _ in range(n)] for _ in range(t)]
    cells = [[draw(csv_cell(code)) for code in row] for row in codes]
    arities = {}
    for i, name in enumerate(names):  # declared arities may exceed the data
        if draw(st.booleans()):
            seen = max(row[i] for row in codes) + 1
            arities[name] = max(seen, 2) + draw(st.integers(0, 2))
    fault = draw(st.sampled_from(FAULTS))
    r, c = draw(st.integers(0, t - 1)), draw(st.integers(0, n - 1))
    if fault == "non-integer":
        cells[r][c] = draw(st.sampled_from(["x", "1.5", "0x1", "1 2", " ", '""']))
    elif fault == "int64":
        cells[r][c] = draw(csv_cell(draw(st.sampled_from(
            [2 ** 63, -2 ** 63 - 1, 10 ** 20]))))
    elif fault == "cell-count":
        cells[r] = cells[r][:-1] if n > 1 and draw(st.booleans()) else cells[r] + ["0"]
    elif fault == "negative":
        cells[r][c] = draw(csv_cell(-draw(st.integers(1, 3))))
    elif fault == "declared-arity":
        cells[r][c] = draw(csv_cell(5))
        arities[names[c]] = draw(st.integers(2, 5))
    elif fault == "unknown-arity":
        arities["zz"] = 2
    elif fault == "malformed-record":
        cells[r][c] = "1\r2"
    elif fault == "no-rows":
        cells = []
    elif fault == "header-name":  # empty, or the name of the column before
        arities.pop(names[c], None)
        names[c] = names[c - 1] if c and draw(st.booleans()) else ""
    header = ",".join(draw(PADDING) + name for name in names)
    text = ("" if fault == "blank-header" else header) + "\n"
    for row in cells:
        text += "\n" * draw(st.integers(0, 1))  # blank lines count
        text += ",".join(row) + draw(st.sampled_from(["\n", "\r\n"]))
    return text, arities or None


def _load(load, source, arities):
    try:
        return load(source, arities)
    except ValueError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@given(case=csv_with_one_fault())
@settings(max_examples=300, deadline=None)
def test_load_dataset_matches_reference(csv_dir, case):
    text, arities = case
    path = text_file(csv_dir, text)
    got = _load(load_dataset, path, arities)
    if isinstance(got, str):  # the reference reads a stream, not a file
        assert got.startswith(f"{path}: "), got
        got = got.removeprefix(f"{path}: ")
    # newline="": line ends split and kept as a file opened so splits them
    want = _load(load_dataset_reference, io.StringIO(text, newline=""), arities)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got.arities == want.arities
    assert got.rows.dtype == want.rows.dtype == np.int64
    assert np.array_equal(got.rows, want.rows)
    assert np.array_equal(got.counts, want.counts)


def _alternating(t):
    """t rows of two outcome vectors: at t=8195 each is written over 4,096
    times."""
    half = np.arange(t) % 2
    return np.column_stack([half, 2 * half])


@pytest.mark.parametrize("arities, rows", [
    *(pytest.param((2, 3), _alternating(t), id=str(t))
      for t in (1, 4095, 4096, 4097, 8195)),
    pytest.param((3,), np.array([[2], [0], [2], [2]]), id="one-column"),
    pytest.param((12, 12), np.array([[11, 3], [10, 0], [11, 3], [0, 11]]),
                 id="two-digit-codes"),
])
def test_dump_dataset_writes_chunks_as_one_pass(tmp_path, arities, rows):
    d = tally(arities, rows)
    want = io.StringIO()
    dump_dataset(d, tmp_path / "got.csv")
    writer = csv.writer(want)
    writer.writerow([f"x{i}" for i in range(d.n_vars)])
    writer.writerows(np.repeat(d.rows, d.counts, axis=0).tolist())
    assert (tmp_path / "got.csv").read_bytes() == want.getvalue().encode()


def test_dump_dataset_refuses_probability_weights(tmp_path):
    d = joint_table_from_dict({"arities": [2, 2], "probs": [0.25] * 4})
    with pytest.raises(ValueError, match="integer counts"):
        dump_dataset(d, tmp_path / "sample.csv")
    assert not (tmp_path / "sample.csv").exists()  # refused before opening


def test_dataset_refuses_an_arity_below_two():
    with pytest.raises(ValueError, match="variable 1: arity must be >= 2, got 1"):
        Dataset((2, 1), np.array([[0, 0]]), np.array([1]))
    with pytest.raises(ValueError, match="row 1, variable 0: outcome 2 outside"):
        Dataset((2, 3), np.array([[0, 0], [2, 1]]), np.array([1, 1]))


@pytest.mark.parametrize("rows, message", [
    (np.zeros((1, 3), dtype=np.int64),
     "rows must be a (D, 2) table, got shape (1, 3)"),
    (np.zeros((0, 2), dtype=np.int64), "dataset must contain at least one row"),
    (np.array([[0.0, 1.0]]), "outcome codes must be integers"),
], ids=["shape", "no-rows", "float-codes"])
def test_dataset_refuses_a_table_that_is_not_one(rows, message):
    with pytest.raises(ValueError) as exc:
        Dataset((2, 2), rows, np.ones(len(rows), dtype=np.int64))
    assert str(exc.value) == message


def test_marginal_counts(four_rows):
    assert marginal(four_rows, (0,)).tolist() == [0.5, 0.5]
    assert marginal(four_rows, (1,)).tolist() == [0.25, 0.75]


def test_marginal_uniform_joint():
    jt = joint_table(np.full((2, 2, 2), 0.125))
    m = marginal(jt, (0, 2))
    assert np.allclose(m, 0.25)


def test_marginal_errors(four_rows):
    with pytest.raises(ValueError):
        marginal(four_rows, ())
    with pytest.raises(ValueError):
        marginal(four_rows, (0, 5))
    with pytest.raises(ValueError):
        marginal(four_rows, (1, 0))
    # a float or bool vertex is refused, not truncated to scope (0, 1)
    for scope, bad in [((0.9, 1.2), "0.9"), ((False, 1), "False")]:
        with pytest.raises(ValueError, match=f"non-integer vertex {bad}"):
            marginal(four_rows, scope)
    assert marginal(four_rows, (np.int64(1),)).tolist() == [0.25, 0.75]


def test_count_table_guard():
    # refused before allocating; the cell count is exact where np.prod wraps
    arities = (2 ** 21,) * 3
    d = tally(arities, np.zeros((1, 3), dtype=np.int64))
    with pytest.raises(GuardLimitError,
                       match=r"scope \(0, 1\) has 4398046511104 cells, "
                             r"over 16777216"):
        count_table(d, (0, 1))
    with pytest.raises(GuardLimitError, match=f"has {2 ** 63} cells"):
        scope_entropy(d, (0, 1, 2))


def test_count_table_guard_at_its_bound(monkeypatch):
    # a 2 x 3 table passes a guard of exactly 6 cells; one less refuses it
    d = tally((2, 3), np.array([[0, 2], [1, 0]]))
    monkeypatch.setattr(dataset, "MARGINAL_CELL_GUARD", 6)
    assert [t.shape for _, t in count_tables(d, [(0, 1)])] == [(2, 3)]
    monkeypatch.setattr(dataset, "MARGINAL_CELL_GUARD", 5)
    with pytest.raises(GuardLimitError,
                       match=r"scope \(0, 1\) has 6 cells, over 5"):
        list(count_tables(d, [(0, 1)]))


def test_entropy_values(four_rows):
    uniform = marginal(four_rows, (0,))
    assert entropy(uniform) == pytest.approx(math.log(2), abs=1e-12)
    point = joint_table([[1.0, 0.0], [0.0, 0.0]])
    assert entropy(marginal(point, (0,))) == 0.0
    skewed = marginal(four_rows, (1,))
    assert entropy(skewed) == pytest.approx(0.5623351446188083, abs=1e-12)


def test_mutual_information_values(four_rows):
    assert mutual_information(four_rows, 0, 1) == pytest.approx(
        0.2157615543388356, abs=1e-12)
    copies = tally((2, 2), np.array([[0, 0], [1, 1]]))
    assert mutual_information(copies, 0, 1) == pytest.approx(math.log(2), abs=1e-12)
    indep = joint_table(np.full((2, 2), 0.25))
    assert mutual_information(indep, 0, 1) == 0.0
    with pytest.raises(ValueError):
        mutual_information(four_rows, 1, 1)


def test_joint_entropy_matches_small_table():
    rng = np.random.default_rng(0)
    d = random_dataset(rng, 3, 50, arities=[2, 2, 2])
    # plug-in over distinct rows must match the full-scope marginal entropy
    assert joint_entropy(d) == pytest.approx(
        scope_entropy(d, (0, 1, 2)), abs=1e-12)


@given(sample=target_samples())
@settings(max_examples=150, deadline=None)
def test_estimators_match_references(sample):
    arities, rows, probs = sample
    counted, table = tally(arities, rows), joint_table(probs)
    for size in range(1, len(arities) + 1):
        for scope in itertools.combinations(range(len(arities)), size):
            # count data: bit-identical to the row-based estimators
            assert np.array_equal(count_table(counted, scope),
                                  count_table_reference(rows, arities, scope))
            got = marginal(counted, scope)
            want = marginal_reference(rows, arities, scope)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            # probability data: the dense-array marginal, up to summation order
            diff = marginal(table, scope) - marginal_dense(probs, scope)
            assert np.max(np.abs(diff)) <= 1e-12
    assert joint_entropy(counted) == joint_entropy_reference(rows)
    assert abs(joint_entropy(table) - entropy(probs)) <= 1e-12


@given(sample=target_samples(), draw=st.data())
@settings(max_examples=150, deadline=None)
def test_count_tables_match_reference(sample, draw):
    # scopes in any order, repeats and non-lexicographic runs included, each
    # get the table np.ravel_multi_index counts for them alone: counted rows
    # and a joint table's float weights, some declared outcomes unseen
    arities, rows, probs = sample
    n = len(arities)
    domain = [h for size in range(1, n + 1)
              for h in itertools.combinations(range(n), size)]
    scopes = draw.draw(st.lists(st.sampled_from(domain), max_size=40))
    counted = tally(arities, rows)
    for data in (counted, joint_table(probs)):
        tables = list(count_tables(data, scopes))
        assert [scope for scope, _ in tables] == scopes
        for scope, counts in tables:
            want = count_table_reference(data.rows, data.arities, scope,
                                         data.counts)
            assert counts.dtype == want.dtype
            assert np.array_equal(counts, want), scope
            if data is counted:
                assert np.array_equal(
                    counts, count_table_reference(rows, arities, scope))


def test_count_tables_refuses_a_later_scope_over_the_guard():
    # each scope is checked when it is reached: the tables before it are
    # yielded, and the refusal names it
    arities = (2 ** 12, 2 ** 13, 2)
    tables = count_tables(tally(arities, np.zeros((1, 3), dtype=np.int64)),
                          [(0,), (1,), (0, 1), (2,)])
    assert [scope for scope, _ in itertools.islice(tables, 2)] == [(0,), (1,)]
    with pytest.raises(GuardLimitError,
                       match=r"scope \(0, 1\) has 33554432 cells, "
                             r"over 16777216"):
        next(tables)


def test_count_tables_beside_a_column_of_codes_past_int32():
    # codes are counted as int32: a column too wide for it is only in scopes
    # the guard refuses, and the columns beside it count exactly
    arities = (2 ** 31 + 6, 3)
    d = tally(arities, np.array([[2 ** 31 + 5, 1], [0, 2], [7, 2]]))
    assert [c.tolist() for _, c in count_tables(d, [(1,)])] == [[0, 1, 2]]
    with pytest.raises(GuardLimitError, match=r"scope \(0,\) has 2147483654"):
        list(count_tables(d, [(1,), (0,)]))


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
                assert h - 1e-9 <= hu <= h + math.log(d.arities[v]) + 1e-9


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
        '{"arities": [2, 3], "probs": [0.1, 0.2, 0.0, 0.15, 0.3, 0.25]}')
    jt = joint_table_from_dict(doc)
    # row-major, last variable fastest; the zero cell (0, 2) is left out
    assert jt.rows.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1], [1, 2]]
    assert jt.counts.tolist() == [0.1, 0.2, 0.15, 0.3, 0.25]
    assert jt.arities == (2, 3)
    with pytest.raises(ValueError):
        joint_table_from_dict(json.loads('{"arities": [2, 2], "probs": [1.0]}'))


def test_joint_table_validation():
    for probs, why in [
        ([0.5, 0.5, 0.5, 0.5], "sums to 2.0"),
        ([0.25, 0.25, 0.25, 0.2], "sums to 0.95"),
        ([1.5, -0.5, 0.0, 0.0], r"probs\[1\] is -0.5, not a finite nonnegative"),
        ([math.nan, 0.5, 0.25, 0.25], r"probs\[0\] is nan"),
        ([math.inf, 0.0, 0.0, 0.0], r"probs\[0\] is inf"),
    ]:
        with pytest.raises(ValueError, match=why):
            joint_table_from_dict({"arities": [2, 2], "probs": probs})
    # the cell count is exact: 2**64 does not wrap to 0
    with pytest.raises(ValueError, match="expected 18446744073709551616"):
        joint_table_from_dict({"arities": [2] * 64, "probs": [1.0]})


@pytest.mark.parametrize("arities, probs, message", [
    ([2, 1], [0.5, 0.5], "variable 1: arity must be >= 2, got 1"),
    ([0, 2], [], "variable 0: arity must be >= 2, got 0"),
])
def test_joint_table_refuses_an_arity_below_two(arities, probs, message):
    # refused before the cell count is sized from it
    with pytest.raises(ValueError) as exc:
        joint_table_from_dict({"arities": arities, "probs": probs})
    assert str(exc.value) == message


def test_weighted_rows_are_sorted_and_repeats_summed():
    arities = (2, 2)
    d = Dataset(arities, np.array([[0, 1], [1, 0]]), np.array([3, 1]))
    assert d.n_rows == 4 and d.counts.tolist() == [3, 1]
    d = Dataset(arities, np.array([[1, 0], [0, 1]]), np.array([1, 2]))
    assert d.rows.tolist() == [[0, 1], [1, 0]] and d.counts.tolist() == [2, 1]
    d = Dataset(arities, np.array([[0, 1], [0, 1]]), np.array([1, 1]))
    assert d.rows.tolist() == [[0, 1]] and d.counts.tolist() == [2]
    assert d.n_rows == 2
    with pytest.raises(ValueError) as exc:  # np.lexsort needs a key
        Dataset((), np.zeros((1, 0), dtype=int), np.array([2]))
    assert str(exc.value) == "dataset must have at least one variable"
    for counts in ([1, 0], [1.0, math.nan], [1]):
        with pytest.raises(ValueError, match="counts must"):
            Dataset(arities, np.array([[0, 1], [1, 0]]), np.array(counts))


@pytest.mark.parametrize("counts, dtype", [
    ([2 ** 70], "object"), (["1"], "<U1"), ([None], "object"),
    ([1 + 0j], "complex128"), ([True], "bool"),
], ids=["over-int64", "string", "none", "complex", "bool"])
def test_counts_that_are_not_numbers_are_refused(counts, dtype):
    with pytest.raises(ValueError) as exc:
        Dataset((2,), np.array([[0]]), np.array(counts))
    assert str(exc.value) == f"counts must be integers or floats, got {dtype}"


def test_repeated_rows_collapse_into_counts(tmp_path):
    # load_dataset gives each observation count 1; the constructor tallies
    d = load_dataset(text_file(tmp_path, "a,b\n1,2\n0,1\n1,2\n0,0\n1,2\n"))
    assert d.arities == (2, 3)
    assert d.rows.tolist() == [[0, 0], [0, 1], [1, 2]]
    assert d.counts.tolist() == [1, 1, 3]
    assert d.n_rows == 5 and isinstance(d.n_rows, int)


CODES = st.sampled_from([0, 1, 2, 254, 255])  # where a difference would wrap


@st.composite
def near_ordered_tables(draw):
    """A table of int64 or uint8 codes: sorted distinct rows with at most one
    fault (a repeated row, a swapped pair, or a row that differs from the
    one before it only in the last column), or rows in any order."""
    n = draw(st.integers(1, 3))
    drawn = draw(st.lists(st.tuples(*[CODES] * n), min_size=1, max_size=6))
    rows = sorted(set(drawn))
    d = draw(st.integers(0, len(rows) - 1))
    fault = draw(st.sampled_from(["none", "repeat", "swap", "last-column",
                                  "any-order"]))
    if fault == "repeat":
        rows.insert(d, rows[d])
    elif fault == "swap" and d:
        rows[d - 1], rows[d] = rows[d], rows[d - 1]
    elif fault == "last-column":
        rows.insert(d + 1, rows[d][:-1] + (draw(CODES),))
    elif fault == "any-order":
        rows = drawn
    dtype = draw(st.sampled_from([np.int64, np.uint8]))
    return np.array(rows, dtype=dtype)


@given(rows=near_ordered_tables(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_tally_matches_unique_on_near_ordered_tables(rows, data):
    # float counts are eighths, so every sum is exact in any order
    counts = np.array(data.draw(st.one_of(
        st.lists(st.integers(1, 5), min_size=len(rows), max_size=len(rows)),
        st.lists(st.integers(1, 32).map(lambda e: e / 8), min_size=len(rows),
                 max_size=len(rows)))))
    given_rows, given_counts = rows.copy(), counts.copy()
    d = Dataset((256,) * rows.shape[1], rows, counts)
    want, inverse = np.unique(rows, axis=0, return_inverse=True)
    assert d.rows.dtype == rows.dtype and np.array_equal(d.rows, want)
    sums = np.bincount(inverse.ravel(), weights=counts)
    assert d.counts.dtype == counts.dtype and np.array_equal(d.counts, sums)
    assert d.n_rows == counts.sum()
    assert np.array_equal(rows, given_rows)  # the caller's arrays are kept
    assert np.array_equal(counts, given_counts)
