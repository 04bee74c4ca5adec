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
``clique_family``; ``compute_weights`` streams it the whole domain's
entropies from ``dataset.count_tables``, in that family order. The store is
read only here: by ``clique_total`` over given cliques, ``clique_totals``
over every seed, and ``attachment_gain`` for a k-tree attachment.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

from .errors import (WEIGHT_DOMAIN_GUARD, GuardLimitError, attached,
                     json_float, json_int, json_subsets, read_json,
                     subset_key, vertex_subset)

__all__ = [
    "WeightFunction",
    "compute_weights",
    "family_weights",
    "clique_total",
    "clique_totals",
    "attachment_gain",
    "weights_to_dict",
    "weights_from_dict",
    "load_weights",
]

SINGLETON_TOL = 1e-12
NO_ENTRY = "no weight entry: "  # how a read outside the domain is refused


def domain_size(n: int, k: int) -> int:
    """Number of subsets of sizes 1..k+1 of n vertices: the weight domain.

    Raises GuardLimitError once the count passes WEIGHT_DOMAIN_GUARD. Sizes
    are added in ascending order and counting stops there, so a refusal is
    cheap. ``compute_weights``, ``weights_from_dict`` and ``clique_totals``,
    through which the solvers scan the domain, ask before they start.
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

    ``weights`` holds only the subsets given: sorted vertex tuples sized in
    ``sizes`` = range(1, k + 2), checked once at construction. An absent
    subset weighs 0.0; reading one outside the domain raises. Immutable.
    """

    k: int
    n: int
    weights: dict[tuple[int, ...], float]
    sizes: range = field(init=False, repr=False)

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise ValueError("need k >= 1 and n >= 1")
        object.__setattr__(self, "sizes", range(1, self.k + 2))
        for h, w in self.weights.items():
            subset_key(h, self.n, self.sizes)
            if not math.isfinite(w):
                raise ValueError(f"weight for subset {h} is not finite: {w}")
            if len(h) == 1 and w > SINGLETON_TOL:
                raise ValueError(
                    f"singleton weight for vertex {h[0]} is positive: {w}")

    def __getitem__(self, subset) -> float:
        return self.weights.get(
            vertex_subset(subset, self.n, self.sizes, NO_ENTRY), 0.0)


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
    """``family_weights`` over every subset of size 1..k+1 of the n vertices,
    each counted by ``count_tables`` as the recursion reaches it."""
    from . import dataset as ds  # NumPy, needed only to compute entropies

    n = provider.n_vars
    domain_size(n, k)
    domain = (h for size in range(1, min(k + 1, n) + 1)
              for h in itertools.combinations(range(n), size))
    return family_weights(k, n, ((h, ds.entropy(c / provider.n_rows)) for h, c
                                 in ds.count_tables(provider, domain)))


def clique_total(maximal_cliques, wf: WeightFunction) -> float:
    """Total weight of the cliques of size >= 2 inside the given cliques,
    each counted once and summed in lexicographic order. Each given clique
    is checked against the domain once; its sub-cliques are read directly.
    """
    if not hasattr(maximal_cliques, "__iter__"):
        raise ValueError(f"{NO_ENTRY}cliques {maximal_cliques!r} are not a "
                         "collection of subsets")
    maximal_cliques = [vertex_subset(mc, wf.n, wf.sizes, NO_ENTRY)
                       for mc in maximal_cliques]
    subs = sorted({h for mc in maximal_cliques for size in range(2, len(mc) + 1)
                   for h in itertools.combinations(mc, size)})
    get = wf.weights.get
    return float(sum(get(h, 0.0) for h in subs))


def clique_totals(wf: WeightFunction):
    """``(clique_total((s,), wf), s)`` for every seed s, each subset of
    size min(k+1, n) in lexicographic order, the domain guarded on the call.
    Each s is built in the domain; its sub-cliques are read by position, in
    that same order."""
    domain_size(wf.n, wf.k)
    size = min(wf.k + 1, wf.n)
    subs = [operator.itemgetter(*p) for p in sorted(itertools.chain.from_iterable(
        itertools.combinations(range(size), m) for m in range(2, size + 1)))]
    get, zeros = wf.weights.get, (0.0,) * len(subs)
    return ((float(sum(map(get, [sub(s) for sub in subs], zeros))), s)
            for s in itertools.combinations(range(wf.n), size))


def attachment_gain(wf: WeightFunction, v: int, anchor) -> float:
    """Total weight of the cliques created by attaching v to an anchor.

    The new cliques are exactly the sets S + {v} for nonempty S inside the
    anchor, since v's only neighbors are the anchor vertices. Terms are
    summed by size, then in lexicographic order of S; the subsets of the
    sorted clique anchor + {v} that hold v and one more vertex come in
    that same order, already in key form. For weights computed from a
    distribution the gain equals I(X_v; X_anchor), so it is nonnegative up
    to rounding. A v inside its anchor repeats in that clique, which the
    subset rule refuses as not strictly ascending.
    """
    clique = vertex_subset(attached(v, anchor)[1], wf.n, wf.sizes, NO_ENTRY)
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
        "weights": [{"vars": list(map(int, h)), "w": float(w)}
                    for h, w in items],
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
        k=k, n=n, weights=json_subsets(doc, "weights", "w", json_float))


def load_weights(path) -> WeightFunction:
    """Read a weight dump file; a malformed one is refused naming the path."""
    return read_json(path, weights_from_dict)
