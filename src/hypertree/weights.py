"""Clique weight functions over vertex subsets.

The weight of a subset is an alternating sum of marginal entropies of the
target distribution: singletons carry negative entropy, pairs carry mutual
information, and larger subsets correct for the overcounting of dependence
already captured by their sub-cliques. Summed over all cliques of a
triangulated graph (singletons excluded), these weights measure how much the
graph reduces divergence from the fully independent baseline, which is what
the solvers maximize.

A ``WeightFunction`` stores only its given subsets, and an absent subset of
the domain weighs 0. ``family_weights`` runs the recursion, without NumPy,
over the (subset, entropy) pairs of a subset-closed family such as a tree's
``clique_family``; ``compute_weights`` feeds it the whole domain's entropies.
``attachment_gain`` is the one place that scores a k-tree attachment: the
total weight of the cliques that attaching a vertex to an anchor creates.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import (WEIGHT_DOMAIN_GUARD, GuardLimitError, json_float,
                     json_int, json_subsets)

__all__ = [
    "WeightFunction",
    "compute_weights",
    "family_weights",
    "attachment_gain",
    "weights_to_dict",
    "weights_from_dict",
    "load_weights",
]

SINGLETON_TOL = 1e-12


def domain_size(n: int, k: int) -> int:
    """Number of subsets of sizes 1..k+1 of n vertices: the weight domain.

    Raises GuardLimitError once the count passes WEIGHT_DOMAIN_GUARD. Sizes
    are added in ascending order and counting stops there, so a refusal is
    cheap. ``compute_weights``, ``weights_from_dict`` and the solvers that scan
    the domain ask before they start.
    """
    total = 0
    for size in range(1, min(k + 1, n) + 1):
        total += math.comb(n, size)
        if total > WEIGHT_DOMAIN_GUARD:
            raise GuardLimitError(
                f"weight domain too large: subsets of sizes 1..{size} of {n} "
                f"vertices number {total}, over {WEIGHT_DOMAIN_GUARD}")
    return total


@dataclass(frozen=True, eq=False)
class WeightFunction:
    """Real-valued weights (nats) on vertex subsets of size 1..k+1.

    ``weights`` holds only the subsets given, keyed by sorted vertex tuples
    and checked once at construction. An absent subset of the domain weighs
    0.0; reading one outside the domain raises. Treat as immutable.
    """

    k: int
    n: int
    weights: dict[tuple[int, ...], float]

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise ValueError("need k >= 1 and n >= 1")
        n, top = self.n, self.k + 1
        # The test of _refusal, inlined: a call per entry slows a file load.
        for h, w in self.weights.items():
            if not (0 < len(h) <= top and 0 <= h[0] and h[-1] < n
                    and h == tuple(sorted(set(h))) and math.isfinite(w)
                    and (len(h) > 1 or w <= SINGLETON_TOL)):
                raise ValueError(self._refusal(h, w))

    def _refusal(self, h, w) -> str | None:
        """Why entry (h, w) is refused; None for a valid entry of the domain."""
        if not 0 < len(h) <= self.k + 1:
            return f"subset {h} has {len(h)} vertices, not 1..{self.k + 1}"
        if h != tuple(sorted(set(h))):
            return f"subset {h} is not strictly ascending"
        if h[0] < 0 or h[-1] >= self.n:
            return f"subset {h} has a vertex outside [0, {self.n})"
        if not math.isfinite(w):
            return f"weight for subset {h} is not finite: {w}"
        if len(h) == 1 and w > SINGLETON_TOL:
            return f"singleton weight for vertex {h[0]} is positive: {w}"
        return None

    def __getitem__(self, subset) -> float:
        key = tuple(sorted(int(v) for v in subset))
        try:
            return self.weights[key]
        except KeyError:
            self.require(key)
            return 0.0

    def require(self, clique: tuple[int, ...]) -> None:
        """Refuse a sorted clique outside the domain, as a read of it would.

        Every subset of an accepted clique is in the domain, so a caller
        that checks a clique once may read its subsets, in sorted key
        form, straight from ``weights`` with a default of 0.0.
        """
        if not (0 < len(clique) <= self.k + 1 and 0 <= clique[0]
                and clique[-1] < self.n and len(set(clique)) == len(clique)):
            raise ValueError(f"no weight entry for subset {clique}")


def family_weights(k: int, n: int, entropies) -> WeightFunction:
    """Weights of the subsets h of the (h, H(h)) pairs, and of no other, in
    their order: w(h) = -H(h) - sum of w over h's proper nonempty subsets.
    Each h comes after all of its own subsets, as in ``clique_family``."""
    w: dict[tuple[int, ...], float] = {}
    for h, ent in entropies:
        acc = -ent
        for sub_size in range(1, len(h)):
            for hp in itertools.combinations(h, sub_size):
                acc -= w[hp]
        w[h] = acc
    return WeightFunction(k=k, n=n, weights=w)


def compute_weights(provider, k: int) -> WeightFunction:
    """``family_weights`` over every subset of size 1..k+1 of the n vertices."""
    from . import dataset as ds  # NumPy, needed only to compute entropies

    n = provider.n_vars
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1; got k={k}, n={n}")
    domain_size(n, k)
    return family_weights(k, n, (
        (h, ds.scope_entropy(provider, h)) for size in range(1, k + 2)
        for h in itertools.combinations(range(n), size)))


def attachment_gain(wf: WeightFunction, v: int, anchor) -> float:
    """Total weight of the cliques created by attaching v to an anchor.

    The new cliques are exactly the sets S + {v} for nonempty S inside the
    anchor, since v's only neighbors are the anchor vertices. Terms are
    summed by size, then in lexicographic order of S; the subsets of the
    sorted clique anchor + {v} that hold v and one more vertex come in
    that same order, already in key form. For weights computed from a
    distribution the gain equals I(X_v; X_anchor), so it is nonnegative up
    to rounding.
    """
    if v in anchor:
        raise ValueError(f"vertex {v} is in its own anchor {tuple(sorted(anchor))}")
    clique = tuple(sorted((*anchor, v)))
    wf.require(clique)
    get = wf.weights.get
    total = 0.0
    for size in range(2, len(clique) + 1):
        for h in itertools.combinations(clique, size):
            if v in h:
                total += get(h, 0.0)
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
    """Parse a weight dump, its domain's size refused before its entries; a
    subset absent from the file weighs 0."""
    if doc.get("log_base", "e") != "e":
        raise ValueError(f"unsupported log base {doc.get('log_base')!r}")
    k, n = json_int(doc["k"], "k"), json_int(doc["n"], "n")
    if k >= 1:  # WeightFunction refuses k < 1 itself
        domain_size(n, k)
    return WeightFunction(
        k=k, n=n, weights=json_subsets(doc["weights"], "w", json_float))


def load_weights(source) -> WeightFunction:
    """Read a weight dump from a path or open text stream."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_weights(fh)
    return weights_from_dict(json.load(source))
