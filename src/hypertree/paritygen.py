"""Synthesizing datasets that realize prescribed clique weights.

Over binary variables, a sample pooled from equal-size blocks can make every
marginal over at most k variables exactly uniform while giving the parity of
each chosen (k+1)-subset an exact rational bias. Uniform small marginals
zero out every weight of size 2..k, and the weight of a (k+1)-subset becomes
a closed-form function of its parity bias alone (``bias_to_weight``). The
generator therefore turns any non-negative weight target on (k+1)-subsets
into a concrete dataset whose computed weights are proportional to the
target up to reported rounding error - an adversarial-instance factory for
the solvers.

Blocks are full binary cubes (every vector once) or odd-parity slices (every
vector with odd parity on the target subset, twice). At the cube sizes used
here both are uniform on every other subset of size up to k+1, so fixing one
subset's parity never disturbs the rest. The pooled sample is held as the
2^n vectors of the cube with the number of times the blocks emit each one.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import (GuardLimitError, json_float, json_int, json_subsets,
                     subset_key)

__all__ = [
    "TargetBiases",
    "ParitySample",
    "RealizationReport",
    "bias_to_weight",
    "weight_to_bias",
    "generate",
    "realize_weights",
    "biases_to_dict",
    "biases_from_dict",
    "spec_from_dict",
]

BIAS_CAP = 1.0 - 1e-12
CUBE_LIMIT = 14  # variables: the 2^n x n cube and its counts
SAMPLE_CELL_GUARD = 2 ** 27  # rows x variables written: 1 GiB read back as int64


@dataclass(frozen=True)
class TargetBiases:
    """Rational parity biases p_h / q on sorted (k+1)-subsets; p is 0 where absent."""

    k: int
    n: int
    q: int
    entries: dict[tuple[int, ...], int]

    def __post_init__(self):
        if self.k < 1 or self.n < self.k + 1:
            raise ValueError(f"need n >= k+1 >= 2, got n={self.n}, k={self.k}")
        if self.q < 1:
            raise ValueError(f"denominator must be >= 1, got {self.q}")
        for h, p in self.entries.items():
            subset_key(h, self.n, range(self.k + 1, self.k + 2))
            if not 0 <= p < self.q:
                raise ValueError(f"numerator for {h} must be in [0, {self.q}), got {p}")


@dataclass(frozen=True, eq=False)
class ParitySample:
    """A generated dataset and the biases it was generated from.

    ``dataset`` holds each vector of the cube once, weighted by the number
    of times the blocks emit it; ``dataset.n_rows`` is the pooled row count.
    ``block_log``, derived from ``biases`` on each read, gives one (subset,
    block index, parity_fixed) triple per block in emission order.
    """

    dataset: Dataset
    biases: TargetBiases

    @property
    def block_log(self) -> tuple[tuple[tuple[int, ...], int, bool], ...]:
        tb = self.biases
        return tuple((h, b, b >= tb.q - tb.entries.get(h, 0))
                     for h in itertools.combinations(range(tb.n), tb.k + 1)
                     for b in range(tb.q))


@dataclass(frozen=True)
class RealizationReport:
    """Biases realizing a weight target, with the scaling and rounding error.

    ``scale`` is the constant c such that the induced weights approximate
    c * target; ``per_set_error`` maps each listed target subset to the
    difference (induced weight) - c * (target weight). An unlisted subset
    rounds to numerator 0; its error, exactly 0.0, is not stored.
    """

    biases: TargetBiases
    scale: float
    per_set_error: dict[tuple[int, ...], float]
    total_abs_error: float


def bias_to_weight(b: float) -> float:
    """Weight (nats) of a (k+1)-subset whose parity has bias b.

    Holds when all smaller marginals are uniform; strictly increasing in b,
    with small-bias behavior b^2/2 + O(b^4).
    """
    if not 0.0 <= b < 1.0:
        raise ValueError(f"bias must be in [0, 1), got {b}")
    return 0.5 * ((1.0 + b) * math.log1p(b) + (1.0 - b) * math.log1p(-b))


def weight_to_bias(w: float) -> float:
    """Inverse of bias_to_weight, by bisection to absolute tolerance 1e-12."""
    if w == 0.0:
        return 0.0
    cap = bias_to_weight(BIAS_CAP)
    if not 0.0 <= w < cap:
        raise ValueError(f"weight must be in [0, {cap:.6f}), got {w}")
    lo, hi = 0.0, BIAS_CAP
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if bias_to_weight(mid) < w:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _cube(n: int) -> np.ndarray:
    """Every binary vector of length n once, in lexicographic order."""
    codes = np.arange(1 << n, dtype=np.int64)
    return (codes[:, None] >> np.arange(n - 1, -1, -1)) & 1


def _refuse_oversized(n: int, k: int, q: int) -> None:
    """Refuse a sample of more than CUBE_LIMIT variables, then one of more
    than SAMPLE_CELL_GUARD cells (rows x variables). The first check keeps
    C(n, k+1) small enough to compute."""
    if n > CUBE_LIMIT:
        raise GuardLimitError(
            f"parity generation refused: n={n} exceeds cube limit "
            f"{CUBE_LIMIT} (blocks have 2^n rows)"
        )
    rows = math.comb(n, k + 1) * q << n
    if rows * n > SAMPLE_CELL_GUARD:
        raise GuardLimitError(
            f"parity generation refused: {rows} rows x n={n} is "
            f"{rows * n * 8} bytes of int64, over the limit of "
            f"{SAMPLE_CELL_GUARD * 8} bytes"
        )


def generate(tb: TargetBiases) -> ParitySample:
    """Build the pooled sample realizing tb, and return it with tb.

    Each (k+1)-subset h adds q blocks of 2^n rows: q - p_h full cubes, then
    p_h odd-parity slices (each odd vector twice), so block b is
    parity-fixed iff b >= q - p_h. Pooling gives parity of h the exact bias
    (p_h / q) / C(n, k+1) and keeps every marginal of size <= k exactly
    uniform. Vector x is emitted C(n, k+1) * q + sum over the listed (h, p_h)
    of p_h * (2 * parity_h(x) - 1) times. Refuses more than CUBE_LIMIT
    variables or SAMPLE_CELL_GUARD cells before allocating anything.
    """
    _refuse_oversized(tb.n, tb.k, tb.q)
    cube = _cube(tb.n)
    counts = np.full(len(cube), math.comb(tb.n, tb.k + 1) * tb.q, dtype=np.int64)
    for h, p in tb.entries.items():
        counts += p * (2 * (cube[:, h].sum(axis=1) % 2) - 1)
    return ParitySample(dataset=Dataset((2,) * tb.n, cube, counts), biases=tb)


def realize_weights(
    targets: dict[tuple[int, ...], float],
    n: int,
    k: int,
    q_grid: int,
    scale: float | None = None,
) -> RealizationReport:
    """Round a non-negative weight target into realizable rational biases.

    Targets are scaled by c (chosen so the largest bias lands on the last
    grid point, or supplied explicitly), inverted through bias_to_weight,
    and rounded to the q_grid denominator. The report carries each listed
    subset's difference between the induced weight and c times the target.
    A grid whose sample ``generate`` would refuse is refused here first.
    """
    for h, w in targets.items():
        subset_key(h, n, range(k + 1, k + 2))
        if not (w >= 0.0 and math.isfinite(w)):
            raise ValueError(f"target weight for {h} must be finite and >= 0")
    _refuse_oversized(n, k, q_grid)
    n_sets = math.comb(n, k + 1)
    max_w = max(targets.values(), default=0.0)
    if scale is not None and not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    if scale is None:
        if max_w == 0.0:
            scale = 1.0
        else:
            if q_grid < 2:
                worst = max(targets, key=targets.get)
                raise ValueError(
                    f"infeasible scaling: denominator {q_grid} cannot encode a "
                    f"nonzero bias for subset {worst}"
                )
            r_cap = (q_grid - 1) / q_grid
            scale = bias_to_weight(r_cap / n_sets) / max_w
    entries: dict[tuple[int, ...], int] = {}
    errors: dict[tuple[int, ...], float] = {}
    cap = bias_to_weight(BIAS_CAP)
    for h, w in sorted(targets.items()):  # an absent subset: 0, error 0.0
        if scale * w >= cap:
            raise ValueError(
                f"infeasible scaling: subset {h} needs weight {scale * w:.6f} "
                f"at scale {scale:g}; weights must be below {cap:.6f}"
            )
        p = round(weight_to_bias(scale * w) * n_sets * q_grid)
        if p >= q_grid:
            raise ValueError(
                f"infeasible scaling: subset {h} rounds to numerator {p} >= {q_grid}"
            )
        if p:
            entries[h] = p
        errors[h] = bias_to_weight((p / q_grid) / n_sets) - scale * w
    tb = TargetBiases(k=k, n=n, q=q_grid, entries=entries)
    return RealizationReport(
        biases=tb,
        scale=scale,
        per_set_error=errors,
        total_abs_error=float(sum(abs(e) for e in errors.values())),
    )


def biases_to_dict(tb: TargetBiases) -> dict:
    items = sorted(tb.entries.items())
    return {
        "k": tb.k,
        "n": tb.n,
        "Q": tb.q,
        "biases": [{"vars": list(map(int, h)), "p": int(p)} for h, p in items],
    }


def biases_from_dict(doc: dict) -> TargetBiases:
    return TargetBiases(
        k=json_int(doc["k"], "k"),
        n=json_int(doc["n"], "n"),
        q=json_int(doc["Q"], "Q"),
        entries=json_subsets(doc, "biases", "p", json_int),
    )


def spec_from_dict(doc: dict):
    """(biases, None) of a document that lists ``biases``; (biases,
    realization) of one that lists ``targets``, realized here so that
    ``errors.read_json`` names the file in a rounding error."""
    if ("biases" in doc) == ("targets" in doc):
        raise ValueError("input must contain either a 'biases' or a 'targets' "
                         "list" + (", not both" if "biases" in doc else ""))
    if "biases" in doc:
        return biases_from_dict(doc), None
    targets = json_subsets(doc, "targets", "w", json_float)
    scale = doc.get("scale")
    if scale is not None:
        scale = json_float(scale, "scale")
    realization = realize_weights(
        targets, n=json_int(doc["n"], "n"), k=json_int(doc["k"], "k"),
        q_grid=json_int(doc["q_grid"], "q_grid"), scale=scale)
    return realization.biases, realization
