"""Categorical data tables and exact marginal / entropy computation.

Two marginal providers are supported: ``Dataset`` (a table of observed
outcome vectors, giving the empirical distribution) and ``JointTable`` (an
explicit joint probability table over all variables, for analytic tests and
small synthetic targets). All information quantities are in nats, with the
convention 0*ln(0) = 0. Empirical marginals are raw counts divided by the
sample size; no smoothing is applied.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GuardLimitError, json_int

__all__ = [
    "VariableSpec",
    "Dataset",
    "JointTable",
    "load_dataset",
    "dump_dataset",
    "marginal",
    "count_table",
    "entropy",
    "scope_entropy",
    "joint_entropy",
]

MARGINAL_CELL_GUARD = 2 ** 24  # cells of one count table: 128 MiB of int64
DUMP_CHUNK_ROWS = 4096  # rows that dump_dataset holds as Python lists at once


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
    """An immutable table of categorical observations.

    ``rows`` has shape (T, n); entry (t, i) is the outcome code of variable i
    in observation t, an integer in [0, arity_i).
    """

    specs: tuple[VariableSpec, ...]
    rows: np.ndarray

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
        object.__setattr__(self, "rows", rows)

    @property
    def n_vars(self) -> int:
        return len(self.specs)

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(s.arity for s in self.specs)


@dataclass(frozen=True, eq=False)
class JointTable:
    """An explicit joint distribution over all variables.

    ``probs`` is an n-dimensional array of shape ``arities``; it must be
    nonnegative and sum to 1 within 1e-12.
    """

    arities: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self):
        arities = tuple(int(a) for a in self.arities)
        object.__setattr__(self, "arities", arities)
        if any(a < 2 for a in arities):
            raise ValueError("all arities must be >= 2")
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != arities:
            raise ValueError(
                f"probs shape {probs.shape} does not match arities {arities}"
            )
        if probs.min() < 0:
            raise ValueError("joint table entries must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"joint table sums to {total}, expected 1")
        object.__setattr__(self, "probs", probs)

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


def load_dataset(source, arities: dict[str, int] | None = None) -> Dataset:
    """Read a Dataset from CSV text (path or open text stream).

    The first row is a header of variable names; body cells are integer
    outcome codes. Arities are inferred as max(observed code + 1, 2) unless
    ``arities`` supplies an explicit value for a column, in which case codes
    must stay below it (declared arities permit never-observed outcomes).
    Every name in ``arities`` must be a column of the header. Errors, a
    malformed CSV record included, name the 1-based physical line as the
    CSV reader counts it: blank lines count, and a record whose quoted cell
    spans lines is named by its last line.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_dataset(fh, arities=arities)
    reader = csv.reader(source)
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
            arity = int(arities[name])
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
    return Dataset(tuple(specs), data)


def dump_dataset(data: Dataset, target) -> None:
    """Write a Dataset as header + integer-code CSV rows."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            dump_dataset(data, fh)
        return
    writer = csv.writer(target)
    writer.writerow([s.name for s in data.specs])
    for start in range(0, data.n_rows, DUMP_CHUNK_ROWS):
        writer.writerows(data.rows[start:start + DUMP_CHUNK_ROWS].tolist())


def joint_table_from_dict(doc: dict) -> JointTable:
    """Parse a joint table document: {"arities": [...], "probs": [...]}.

    ``probs`` is flat row-major with the last variable fastest.
    """
    arities = tuple(json_int(a, "arities") for a in doc["arities"])
    flat = np.asarray(doc["probs"], dtype=float)
    expect = math.prod(arities)
    if flat.size != expect:
        raise ValueError(
            f"probs has {flat.size} entries, expected {expect} for {arities}"
        )
    return JointTable(arities, flat.reshape(arities))


def _check_scope(scope, n: int) -> tuple[int, ...]:
    scope = tuple(int(v) for v in scope)
    if not scope:
        raise ValueError("scope must be nonempty")
    if any(b <= a for a, b in zip(scope, scope[1:])):
        raise ValueError(f"scope must be sorted and duplicate-free: {scope}")
    if scope[0] < 0 or scope[-1] >= n:
        raise ValueError(f"scope {scope} outside [0, {n})")
    return scope


def count_table(data: Dataset, scope) -> np.ndarray:
    """Integer outcome counts over a scope, shaped by the scope's arities;
    refuses, before allocating, more than MARGINAL_CELL_GUARD cells."""
    scope = _check_scope(scope, data.n_vars)
    dims = tuple(data.specs[v].arity for v in scope)
    cells = math.prod(dims)
    if cells > MARGINAL_CELL_GUARD:
        raise GuardLimitError(f"marginal table over scope {scope} has {cells} "
                              f"cells, over {MARGINAL_CELL_GUARD}")
    flat = np.ravel_multi_index(tuple(data.rows[:, v] for v in scope), dims)
    counts = np.bincount(flat, minlength=cells)
    return counts.reshape(dims)


def marginal(provider, scope) -> np.ndarray:
    """Exact marginal distribution of a Dataset or JointTable over a sorted
    scope, as a probability array shaped by the scope's arities."""
    if isinstance(provider, Dataset):
        return count_table(provider, scope) / provider.n_rows
    if isinstance(provider, JointTable):
        scope = _check_scope(scope, provider.n_vars)
        drop = tuple(i for i in range(provider.n_vars) if i not in scope)
        return provider.probs.sum(axis=drop) if drop else provider.probs
    raise TypeError(f"not a marginal provider: {type(provider).__name__}")


def entropy(probs: np.ndarray) -> float:
    """Shannon entropy of a probability array in nats (0*ln 0 = 0)."""
    p = probs[probs > 0]
    return float(-(p * np.log(p)).sum())


def scope_entropy(provider, scope) -> float:
    """Entropy of the marginal over a scope, in nats."""
    return entropy(marginal(provider, scope))


def joint_entropy(provider) -> float:
    """Entropy of the full joint distribution, in nats.

    For a Dataset this is the plug-in entropy of the empirical distribution,
    computed over distinct rows; it is exact and cheap for any number of
    variables because the support has at most T points.
    """
    if isinstance(provider, Dataset):
        _, counts = np.unique(provider.rows, axis=0, return_counts=True)
        return entropy(counts / provider.n_rows)
    if isinstance(provider, JointTable):
        return entropy(provider.probs)
    raise TypeError(f"not a marginal provider: {type(provider).__name__}")
