"""Target distributions over categorical variables, with exact marginals
and entropies.

A ``Dataset`` is the one representation of a target distribution: its
distinct outcome vectors, in lexicographic order, and a positive weight for
each; its constructor is the one tally, which sums equal rows' weights.
``load_dataset`` gives it a CSV sample's rows, each of count 1, so the
target is the empirical distribution; a joint-table document gives its
nonzero cells, each weighted by its probability. All information
quantities are in nats, with the convention 0*ln(0) = 0. Marginals are
weighted counts divided by the total weight; no smoothing is applied.
"""

from __future__ import annotations

import csv
import itertools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import (GuardLimitError, csv_header, json_float, json_int,
                     json_list, read_input, subset_key)

__all__ = [
    "checked_arity",
    "declared_arities",
    "Dataset",
    "load_dataset",
    "dump_dataset",
    "count_tables",
    "entropy",
    "joint_entropy",
]

MARGINAL_CELL_GUARD = 2 ** 24  # cells of one count table: 128 MiB of int64


def checked_arity(arity, variable) -> int:
    """arity, refused below 2 with a ValueError naming the variable: a
    column name where a file names it, else its index."""
    if arity < 2:
        raise ValueError(
            f"variable {variable!r}: arity must be >= 2, got {arity}")
    return arity


def declared_arities(arities) -> dict[str, int]:
    """A mapping of column names to declared arities, such as an
    ``--arities`` sidecar's, each held to json_int and checked_arity; a
    value that is no dict, or a key that is no string, raises TypeError."""
    got = (type(arities).__name__ if not isinstance(arities, dict) else next(
        (f"key {name!r}" for name in arities if not isinstance(name, str)), ""))
    if got:
        raise TypeError(f"'arities' must map names to arities, got {got}")
    return {name: checked_arity(json_int(a, f"arities.{name}"), name)
            for name, a in arities.items()}


@dataclass(frozen=True, eq=False)
class Dataset:
    """A target distribution: distinct outcome vectors with positive weights.

    ``arities`` names at least one variable; ``arities[i]`` is the outcome
    count of variable i, at least 2. The constructor takes rows of shape
    (T, n) in any order, repeats included, each code of variable i an
    integer in [0, arities[i]), and a positive integer or float weight per
    row. It tallies them and leaves the caller's arrays as they are:
    ``rows`` holds each distinct row once, in lexicographic order, and
    ``counts[d]`` the summed weight of row d. ``n_rows`` is the total
    weight: the sample size T for counts of observations, 1 for a
    probability table.
    """

    arities: tuple[int, ...]
    rows: np.ndarray
    counts: np.ndarray
    n_rows: int | float = field(init=False)

    def __post_init__(self):
        arities = tuple(self.arities)
        object.__setattr__(self, "arities", arities)
        if not arities:  # np.lexsort needs a key
            raise ValueError("dataset must have at least one variable")
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[1] != len(arities):
            raise ValueError(f"rows must be a (D, {len(arities)}) table, "
                             f"got shape {rows.shape}")
        if rows.shape[0] < 1:
            raise ValueError("dataset must contain at least one row")
        if not np.issubdtype(rows.dtype, np.integer):
            raise ValueError("outcome codes must be integers")
        for i, arity in enumerate(arities):
            checked_arity(arity, i)
            col = rows[:, i]
            if col.min() < 0 or col.max() >= arity:
                bad = int(np.argmax((col < 0) | (col >= arity)))
                raise ValueError(
                    f"row {bad}, variable {i}: outcome "
                    f"{int(col[bad])} outside [0, {arity})"
                )
        counts = np.asarray(self.counts)
        if counts.shape != (len(rows),):
            raise ValueError(f"counts must have shape ({len(rows)},), "
                             f"got {counts.shape}")
        if counts.dtype.kind not in "iuf":  # no bool, complex or object
            raise ValueError(
                f"counts must be integers or floats, got {counts.dtype}")
        if not np.all((counts > 0) & np.isfinite(counts)):
            raise ValueError("counts must be finite and positive")
        order = np.lexsort(rows.T[::-1])  # column 0 is the primary key
        first = np.zeros(len(rows), bool)  # differs from the row before it
        first[0] = True
        for col in rows.T:  # one column at a time, not a sorted copy of all
            col = col[order]
            first[1:] |= col[1:] != col[:-1]
        starts = np.flatnonzero(first)
        counts = np.add.reduceat(counts[order], starts)
        object.__setattr__(self, "rows", rows[order[starts]])
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n_rows", counts.sum().item())

    @property
    def n_vars(self) -> int:
        return len(self.arities)


def _bad_cell(rec, names, lineno) -> ValueError:
    """The error naming the first cell of a record that is not an int64;
    the record is one that int() or array("q") refused."""
    for name, cell in zip(names, rec):
        try:
            code = int(cell.strip())
        except ValueError:
            return ValueError(f"line {lineno}, column {name!r}: "
                              f"non-integer cell {cell!r}")
        if not -2 ** 63 <= code < 2 ** 63:
            break
    return ValueError(f"line {lineno}, column {name!r}: cell {code} "
                      f"outside the int64 range")


def load_dataset(path, arities: dict[str, int] | None = None) -> Dataset:
    """Read a Dataset from a CSV file through ``errors.read_input``: UTF-8,
    a leading byte-order mark dropped, and every fault prefixed with the path.

    The first row is a header of nonempty, distinct variable names, checked
    by ``errors.csv_header`` before any body row is read; a blank first line
    is an empty header. The names serve only to match ``arities`` and to
    name faults. Body cells are integer outcome codes. Arities are inferred
    as max(observed code + 1, 2) unless ``arities`` supplies an explicit
    value for a column, in which case codes must stay below it (declared
    arities permit never-observed outcomes). Every name in ``arities`` must
    be a column of the header. Errors, a malformed CSV record included, name
    the 1-based physical line as the CSV reader counts it: blank lines
    count, and a record whose quoted cell spans lines is named by its last
    line. The ``Dataset`` constructor tallies the rows: each distinct row
    once, in lexicographic order, with the number of times it was observed.
    """
    return read_input(path, _parse_csv, arities)


def _parse_csv(fh, declared) -> Dataset:
    names, reader = csv_header(fh)
    declared = declared_arities({} if declared is None else declared)
    unknown = sorted(declared.keys() - set(names))
    if unknown:
        raise ValueError(f"arities given for columns not in the "
                         f"header: {unknown}")
    cells, lines = array("q"), array("q")  # row-major codes; each row's line
    try:
        for rec in reader:
            if not rec:
                continue
            if len(rec) != len(names):
                raise ValueError(f"line {reader.line_num}: expected "
                                 f"{len(names)} cells, got {len(rec)}")
            try:  # str.strip as well: int() refuses padding of U+001C-U+001F
                cells.extend(map(int, map(str.strip, rec)))
            except (ValueError, OverflowError):
                raise _bad_cell(rec, names, reader.line_num) from None
            lines.append(reader.line_num)
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    if not lines:
        raise ValueError("empty CSV body: no data rows")
    data = np.frombuffer(cells, np.int64).reshape(len(lines), len(names))
    arities = []
    for i, name in enumerate(names):
        col = data[:, i]
        observed = int(col.max()) + 1
        arity = declared.get(name, max(observed, 2))
        if col.min() < 0 or observed > arity:
            row = int(np.argmax((col < 0) | (col >= arity)))
            code = int(col[row])
            why = (f">= declared arity {arity}" if code >= 0
                   else f"outside [0, {arity})")
            raise ValueError(
                f"line {lines[row]}, column {name!r}: outcome {code} {why}")
        arities.append(arity)
    del lines  # only the errors above need it: free it before the tally
    return Dataset(tuple(arities), data, np.ones(len(data), np.int64))


def dump_dataset(data: Dataset, path) -> None:
    """Write a Dataset of integer counts as the header x0,...,x{n-1} and
    integer-code CSV rows, each ended by CRLF as the ``csv`` module ends it:
    each distinct row as many times as its count, equal rows together. A
    Dataset weighted by probabilities is refused before anything is written."""
    if not np.issubdtype(data.counts.dtype, np.integer):
        raise ValueError("only a Dataset of integer counts can be written as "
                         f"rows; its counts are {data.counts.dtype}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(f"x{i}" for i in range(data.n_vars)) + "\r\n")
        for row, count in zip(data.rows.tolist(), data.counts.tolist()):
            line = ",".join(map(str, row)) + "\r\n"
            fh.writelines(itertools.repeat(line, count))


def joint_table_from_dict(doc: dict) -> Dataset:
    """Parse a joint table document {"arities": [...], "probs": [...]} into
    the Dataset of its nonzero cells, each weighted by its probability.

    ``probs`` is flat row-major with the last variable fastest. Every entry
    must be a finite nonnegative number, and the entries must sum to 1
    within 1e-12.
    """
    arities = tuple(checked_arity(json_int(a, "arities"), i) for i, a in
                    enumerate(json_list(doc["arities"], "arities")))
    if not arities:
        raise ValueError("'arities' is empty: a joint table needs a variable")
    probs = np.array([p if type(p) is float else json_float(p, "probs")
                      for p in json_list(doc["probs"], "probs")], dtype=float)
    expect = math.prod(arities)
    if probs.size != expect:
        raise ValueError(
            f"probs has {probs.size} entries, expected {expect} for {arities}"
        )
    bad = ~(np.isfinite(probs) & (probs >= 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"probs[{i}] is {probs[i]}, not a finite "
                         f"nonnegative probability")
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"joint table sums to {total}, expected 1")
    cells = np.flatnonzero(probs)
    rows = np.column_stack(np.unravel_index(cells, arities))
    return Dataset(arities, rows, probs[cells])


def count_tables(data: Dataset, scopes):
    """Yield (scope, weighted outcome counts shaped by its arities) for each
    sorted scope, in the order given: the one counting path. A scope's flat
    index extends that of the prefix it shares with the previous scope by
    ``flat * arity + code`` per vertex, last variable fastest, so family
    order (by size, then vertices) shares prefixes. A scope is checked when
    reached: by the subset rule, then MARGINAL_CELL_GUARD before allocating."""
    # int32 holds every code and flat index of a scope under the cell guard;
    # a column of wider codes wraps, but only scopes that are refused hold it
    columns = np.ascontiguousarray(data.rows.T, dtype=np.int32)
    weights = np.asarray(data.counts, dtype=float)  # cast once, not per scope
    prefix, flats = (), []  # the previous scope; its flat index per depth
    for scope in scopes:
        subset_key(scope, data.n_vars, range(1, data.n_vars + 1))
        dims = tuple(data.arities[v] for v in scope)
        cells = math.prod(dims)
        if cells > MARGINAL_CELL_GUARD:
            raise GuardLimitError(f"marginal table over scope {scope} has "
                                  f"{cells} cells, over {MARGINAL_CELL_GUARD}")
        while scope[:len(flats)] != prefix[:len(flats)]:
            flats.pop()
        for i in range(len(flats), len(scope)):
            code = columns[scope[i]]
            flats.append(flats[-1] * dims[i] + code if i else code)
        prefix = scope
        counts = np.bincount(flats[-1], weights=weights, minlength=cells)
        yield scope, counts.reshape(dims)


def entropy(probs: np.ndarray) -> float:
    """Shannon entropy of a probability array in nats (0*ln 0 = 0)."""
    p = probs[probs > 0]
    return float(-(p * np.log(p)).sum())


def joint_entropy(data: Dataset) -> float:
    """Entropy of the full joint distribution, in nats: a sum over the
    distinct rows, exact and cheap for any number of variables."""
    return entropy(data.counts / data.n_rows)
