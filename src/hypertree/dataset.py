"""Target distributions over categorical variables, with exact marginals
and entropies.

A ``Dataset`` is the one representation of a target distribution: its
distinct outcome vectors and a positive weight for each. A CSV sample gives
integer counts that total the sample size T, so the target is the empirical
distribution; a joint-table document gives its nonzero cells, each weighted
by its probability. All information quantities are in nats, with the
convention 0*ln(0) = 0. Marginals are weighted counts divided by the total
weight; no smoothing is applied.
"""

from __future__ import annotations

import csv
import itertools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import (GuardLimitError, json_float, json_int, read_input,
                     subset_refusal)

__all__ = [
    "VariableSpec",
    "Dataset",
    "load_dataset",
    "dump_dataset",
    "count_tables",
    "entropy",
    "joint_entropy",
]

MARGINAL_CELL_GUARD = 2 ** 24  # cells of one count table: 128 MiB of int64


@dataclass(frozen=True)
class VariableSpec:
    """A named categorical variable with a fixed outcome count."""

    name: str
    arity: int

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable name must be nonempty")
        if self.arity < 2:
            raise ValueError(
                f"variable {self.name!r}: arity must be >= 2, got {self.arity}"
            )


@dataclass(frozen=True, eq=False)
class Dataset:
    """A target distribution: distinct outcome vectors with positive weights.

    ``rows`` has shape (D, n); entry (d, i) is the outcome code of variable i
    in distinct row d, an integer in [0, arity_i), and the rows are in
    lexicographic order. ``counts[d]`` is the weight of row d. Given no
    counts, the constructor collapses the repeated rows of a (T, n) table of
    observations and counts them; given counts, the rows must already be
    distinct and in lexicographic order. ``n_rows`` is the total weight: T
    for a table of observations, 1 for a probability table.
    """

    specs: tuple[VariableSpec, ...]
    rows: np.ndarray
    counts: np.ndarray | None = None
    n_rows: int | float = field(init=False)

    def __post_init__(self):
        specs = tuple(self.specs)
        object.__setattr__(self, "specs", specs)
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[1] != len(specs):
            raise ValueError(
                f"rows must be a (T, {len(specs)}) table, got shape {rows.shape}"
            )
        if rows.shape[0] < 1:
            raise ValueError("dataset must contain at least one row")
        if not np.issubdtype(rows.dtype, np.integer):
            raise ValueError("outcome codes must be integers")
        for i, spec in enumerate(specs):
            col = rows[:, i]
            if col.min() < 0 or col.max() >= spec.arity:
                bad = int(np.argmax((col < 0) | (col >= spec.arity)))
                raise ValueError(
                    f"row {bad}, column {spec.name!r}: outcome "
                    f"{int(col[bad])} outside [0, {spec.arity})"
                )
        distinct, counts = np.unique(rows, axis=0, return_counts=True)
        if self.counts is not None:
            counts = np.asarray(self.counts)
            if counts.shape != (len(rows),):
                raise ValueError(f"counts must have shape ({len(rows)},), "
                                 f"got {counts.shape}")
            if not np.all((counts > 0) & np.isfinite(counts)):
                raise ValueError("counts must be finite and positive")
            if not np.array_equal(distinct, rows):
                raise ValueError("weighted rows must be distinct and in "
                                 "lexicographic order")
        object.__setattr__(self, "rows", distinct)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n_rows", counts.sum().item())

    @property
    def n_vars(self) -> int:
        return len(self.specs)

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(s.arity for s in self.specs)


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

    The first row is a header of variable names; body cells are integer
    outcome codes. Arities are inferred as max(observed code + 1, 2) unless
    ``arities`` supplies an explicit value for a column, in which case codes
    must stay below it (declared arities permit never-observed outcomes).
    Every name in ``arities`` must be a column of the header. Errors, a
    malformed CSV record included, name the 1-based physical line as the
    CSV reader counts it: blank lines count, and a record whose quoted cell
    spans lines is named by its last line.
    """
    return read_input(path, _parse_csv, arities)


def _parse_csv(fh, arities) -> Dataset:
    reader = csv.reader(fh)
    cells, lines = array("q"), array("q")  # row-major codes; each row's line
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV: missing header row")
        names = [h.strip() for h in header]
        if arities is not None:
            unknown = sorted(set(arities) - set(names))
            if unknown:
                raise ValueError(f"arities given for columns not in the "
                                 f"header: {unknown}")
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
    specs = []
    for i, name in enumerate(names):
        col = data[:, i]
        observed = int(col.max()) + 1
        if arities is not None and name in arities:
            arity = json_int(arities[name], f"arities.{name}")
        else:
            arity = max(observed, 2)
        if col.min() < 0 or observed > arity:
            row = int(np.argmax((col < 0) | (col >= arity)))
            code = int(col[row])
            why = (f">= declared arity {arity}" if code >= 0
                   else f"outside [0, {arity})")
            raise ValueError(
                f"line {lines[row]}, column {name!r}: outcome {code} {why}")
        specs.append(VariableSpec(name, arity))
    del lines  # only the errors above need it: free it before the rows sort
    return Dataset(tuple(specs), data)


def dump_dataset(data: Dataset, path) -> None:
    """Write a Dataset of integer counts as header + integer-code CSV rows:
    each distinct row as many times as its count, equal rows together. A
    Dataset weighted by probabilities is refused before anything is written."""
    if not np.issubdtype(data.counts.dtype, np.integer):
        raise ValueError("only a Dataset of integer counts can be written as "
                         f"rows; its counts are {data.counts.dtype}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([s.name for s in data.specs])
        for row, count in zip(data.rows, data.counts.tolist()):
            writer.writerows(itertools.repeat(row.tolist(), count))


def joint_table_from_dict(doc: dict) -> Dataset:
    """Parse a joint table document {"arities": [...], "probs": [...]} into
    the Dataset of its nonzero cells, each weighted by its probability.

    ``probs`` is flat row-major with the last variable fastest. Every entry
    must be a finite nonnegative number, and the entries must sum to 1
    within 1e-12. Variables are named x0, x1, ...
    """
    specs = tuple(VariableSpec(f"x{i}", json_int(a, "arities"))
                  for i, a in enumerate(doc["arities"]))
    if not specs:
        raise ValueError("'arities' is empty: a joint table needs a variable")
    arities = tuple(s.arity for s in specs)
    probs = np.array([p if type(p) is float else json_float(p, "probs")
                      for p in doc["probs"]], dtype=float)
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
    return Dataset(specs, rows, probs[cells])


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
        why = subset_refusal(scope, data.n_vars, range(1, data.n_vars + 1))
        if why is not None:
            raise ValueError(why)
        dims = tuple(data.specs[v].arity for v in scope)
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
