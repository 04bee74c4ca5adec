"""Clique weight functions over vertex subsets.

The weight of a subset is an alternating sum of marginal entropies of the
target distribution: singletons carry negative entropy, pairs carry mutual
information, and larger subsets correct for the overcounting of dependence
already captured by their sub-cliques. Summed over all cliques of a
triangulated graph (singletons excluded), these weights measure how much the
graph reduces divergence from the fully independent baseline, which is what
the solvers maximize.

``compute_weights`` builds the weights bottom-up by subset size.
``attachment_gain`` is the one place that scores a k-tree attachment: the
total weight of the cliques that attaching a vertex to an anchor creates.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import dataset as ds

__all__ = [
    "WeightFunction",
    "compute_weights",
    "attachment_gain",
    "weights_to_dict",
    "weights_from_dict",
    "dump_weights",
    "load_weights",
]

SINGLETON_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightFunction:
    """Real-valued weights (nats) on all vertex subsets of size 1..k+1.

    Keys of ``weights`` are sorted vertex tuples. Treat as immutable after
    construction; all operations on it are pure.
    """

    k: int
    n: int
    weights: dict[tuple[int, ...], float]

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise ValueError("need k >= 1 and n >= 1")
        expected = sum(
            math.comb(self.n, s) for s in range(1, min(self.k + 1, self.n) + 1)
        )
        if len(self.weights) != expected:
            raise ValueError(
                f"weight domain has {len(self.weights)} subsets, expected "
                f"{expected} (all sizes 1..{self.k + 1} of {self.n} vertices)"
            )
        for size in range(1, min(self.k + 1, self.n) + 1):
            for h in itertools.combinations(range(self.n), size):
                if h not in self.weights:
                    raise ValueError(f"missing weight for subset {h}")
        for v in range(self.n):
            if self.weights[(v,)] > SINGLETON_TOL:
                raise ValueError(
                    f"singleton weight for vertex {v} is positive: "
                    f"{self.weights[(v,)]}"
                )

    def __getitem__(self, subset) -> float:
        key = tuple(sorted(int(v) for v in subset))
        try:
            return self.weights[key]
        except KeyError:
            raise ValueError(f"no weight entry for subset {key}") from None


def compute_weights(provider, k: int) -> WeightFunction:
    """Weights for all subsets of size 1..k+1, built bottom-up by size.

    w(h) = -H(h) - sum of w over all proper nonempty subsets of h, so that
    the weights of all nonempty subsets of h telescope to -H(h).
    """
    n = provider.n_vars
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1; got k={k}, n={n}")
    w: dict[tuple[int, ...], float] = {}
    for size in range(1, k + 2):
        for h in itertools.combinations(range(n), size):
            acc = -ds.scope_entropy(provider, h)
            for sub_size in range(1, size):
                for hp in itertools.combinations(h, sub_size):
                    acc -= w[hp]
            w[h] = acc
    return WeightFunction(k=k, n=n, weights=w)


def attachment_gain(wf: WeightFunction, v: int, anchor) -> float:
    """Total weight of the cliques created by attaching v to an anchor.

    The new cliques are exactly the sets S + {v} for nonempty S inside the
    anchor, since v's only neighbors are the anchor vertices. Terms are
    summed by size, then in lexicographic order of S. For weights computed
    from a distribution the gain equals I(X_v; X_anchor), so it is
    nonnegative up to rounding.
    """
    anchor = tuple(sorted(anchor))
    if v in anchor:
        raise ValueError(f"vertex {v} is in its own anchor {anchor}")
    total = 0.0
    for size in range(1, len(anchor) + 1):
        for sub in itertools.combinations(anchor, size):
            total += wf[sub + (v,)]
    return total


def weights_to_dict(wf: WeightFunction) -> dict:
    """Serializable weight dump, sorted by (size, lexicographic vertices)."""
    items = sorted(wf.weights.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return {
        "k": wf.k,
        "n": wf.n,
        "log_base": "e",
        "weights": [{"vars": list(h), "w": float(w)} for h, w in items],
    }


def weights_from_dict(doc: dict) -> WeightFunction:
    """Parse a weight dump; subsets absent from the file get weight 0.

    Zero-filling lets externally supplied instances (e.g. weights only on
    pairs) omit the rest of the domain.
    """
    if doc.get("log_base", "e") != "e":
        raise ValueError(f"unsupported log base {doc.get('log_base')!r}")
    k = int(doc["k"])
    n = int(doc["n"])
    w: dict[tuple[int, ...], float] = {}
    for size in range(1, min(k + 1, n) + 1):
        for h in itertools.combinations(range(n), size):
            w[h] = 0.0
    for entry in doc["weights"]:
        h = tuple(sorted(int(v) for v in entry["vars"]))
        if h not in w:
            raise ValueError(f"subset {h} outside the size-1..{k + 1} domain")
        w[h] = float(entry["w"])
    return WeightFunction(k=k, n=n, weights=w)


def dump_weights(wf: WeightFunction, target) -> None:
    """Write a weight dump as JSON to a path or open text stream."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            dump_weights(wf, fh)
        return
    json.dump(weights_to_dict(wf), target, indent=2)
    target.write("\n")


def load_weights(source) -> WeightFunction:
    """Read a weight dump from a path or open text stream."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_weights(fh)
    return weights_from_dict(json.load(source))
