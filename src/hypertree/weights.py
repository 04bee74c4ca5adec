"""Clique weight functions over vertex subsets.

The weight w of a subset is an alternating sum of marginal entropies:
singletons carry negative entropy, pairs mutual information, and larger
subsets correct for the dependence their sub-cliques already count. Summed
over a triangulated graph's cliques of two or more vertices, w measures how
much the graph reduces divergence from the independent baseline, which is
what the solvers maximize.

A ``WeightFunction`` stores, for each subset h of two or more vertices, its
clique total c(h): the sum of w over h's subsets of two or more vertices,
for data the sum of H(i) over i in h less H(h). A singleton keeps its w(i) =
-H(i); an absent subset weighs 0. A seed's total is one read, a gain
c(anchor + {v}) - c(anchor) is two (I(X_v; X_anchor) for data), and
``clique_total`` sums cliques less separators. ``weights_from_entropies``
forms the store from entropies, ``from_subset_weights`` from given w; only
``weights_to_dict`` recovers w, so weight files keep their format and bytes.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from dataclasses import dataclass, field

from .errors import (COUNT_WORK_GUARD, WEIGHT_DOMAIN_GUARD, GuardLimitError,
                     attached, json_float, json_int, json_subsets, read_json,
                     subset_key, vertex_subset)

__all__ = [
    "WeightFunction",
    "compute_weights",
    "weights_from_entropies",
    "from_subset_weights",
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
    Raises GuardLimitError once the count, added by ascending size, passes
    WEIGHT_DOMAIN_GUARD; each scan of the domain asks before it starts."""
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
    """Clique totals (nats) on vertex subsets of size 1..k+1.

    ``weights`` maps sorted vertex tuples sized in ``sizes`` = range(1,
    k + 2), checked once at construction, to w(i) of a singleton or c(h) of
    a larger subset, the entry ``wf[h]`` reads. An absent subset weighs 0.0;
    reading one outside the domain raises. Immutable.
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


def weights_from_entropies(k: int, n: int, entropies) -> WeightFunction:
    """The store of the (h, H(h)) pairs, each h after its singletons as in
    ``clique_family``: w(h) = -H(h) of a singleton, and c(h) = -H(h) less
    each w(i) of a larger h, the recursion's first step."""
    store: dict[tuple[int, ...], float] = {}
    for h, ent in entropies:
        acc = -ent
        for i in h if len(h) > 1 else ():
            acc -= store[(i,)]
        store[h] = acc
    return WeightFunction(k=k, n=n, weights=store)


def compute_weights(provider, k: int) -> WeightFunction:
    """``weights_from_entropies`` over every subset of size 1..k+1 of the n
    vertices, as ``count_tables`` counts them; the work, D distinct rows
    times the subsets, is refused over COUNT_WORK_GUARD before it starts."""
    from . import dataset as ds  # NumPy, needed only to compute entropies

    n, distinct = provider.n_vars, len(provider.rows)
    subsets = domain_size(n, k)
    if distinct * subsets > COUNT_WORK_GUARD:
        raise GuardLimitError(
            f"counting work too large: {distinct} distinct rows x {subsets} "
            f"subsets = {distinct * subsets}, over {COUNT_WORK_GUARD}")
    domain = (h for size in range(1, min(k + 1, n) + 1)
              for h in itertools.combinations(range(n), size))
    return weights_from_entropies(k, n, (
        (h, ds.entropy(c / provider.n_rows))
        for h, c in ds.count_tables(provider, domain)))


def from_subset_weights(k: int, n: int, w) -> WeightFunction:
    """The store of the subset weights w, the domain guarded: each subset h
    of 3..k+1 vertices, the largest first, takes the w of its subsets of two
    or more vertices summed in lexicographic order (a pair keeps its own w),
    absent if that is 0 and w does not list h; the totals are then checked."""
    w = dict(w)  # rebound: a dict that only the caller passed is freed
    if k >= 1:  # WeightFunction refuses k < 1 itself
        domain_size(n, k)
    for size in range(min(k + 1, n), 2, -1):
        subs = [operator.itemgetter(*p) if len(p) < size else tuple  # h itself
                for p in sorted(q for m in range(2, size + 1)
                                for q in itertools.combinations(range(size), m))]
        # in lockstep, each h's total is written after its own reads
        hs = itertools.tee(itertools.combinations(range(n), size), len(subs) + 1)
        reads = [map(w.get, map(sub, it), itertools.repeat(0.0))
                 for sub, it in zip(subs, hs)]
        w.update((h, t) for h, t in zip(hs[-1], map(sum, zip(*reads)))
                 if t or h in w)
    return WeightFunction(k=k, n=n, weights=w)  # checks the totals it holds


def _total(get, h) -> float:  # c(h), 0 for fewer than two vertices
    return get(h, 0.0) if len(h) > 1 else 0.0


def clique_total(maximal_cliques, wf: WeightFunction) -> float:
    """Weight of the cliques of size >= 2 inside a k-tree's maximal cliques,
    or inside those of them that hold the two vertices of a swap: each
    clique's c(C), less (m - 1) c(S) for each separator S, a (|C| - 1)-subset
    that m > 1 of them hold. Both sums run in lexicographic order, whatever
    the cliques' order. Each clique is checked against the domain once."""
    if not hasattr(maximal_cliques, "__iter__"):
        raise ValueError(f"{NO_ENTRY}cliques {maximal_cliques!r} are not a "
                         "collection of subsets")
    cliques = sorted(vertex_subset(mc, wf.n, wf.sizes, NO_ENTRY)
                     for mc in maximal_cliques)
    held = collections.Counter(s for mc in cliques
                               for s in itertools.combinations(mc, len(mc) - 1))
    get = wf.weights.get
    return float(sum(_total(get, mc) for mc in cliques) - sum(
        (m - 1) * _total(get, s) for s, m in sorted(held.items()) if m > 1))


def clique_totals(wf: WeightFunction):
    """``(c(s), s)`` for every seed s, each subset of size min(k+1, n) in
    lexicographic order, one read each, the domain guarded on the call."""
    domain_size(wf.n, wf.k)
    get = wf.weights.get
    return ((_total(get, s), s) for s in
            itertools.combinations(range(wf.n), min(wf.k + 1, wf.n)))


def attachment_gain(wf: WeightFunction, v: int, anchor) -> float:
    """Weight of the cliques S + {v}, S a nonempty subset of the anchor, that
    attaching v creates: c(anchor + {v}) - c(anchor), two reads; for data
    I(X_v; X_anchor) >= 0 up to rounding. A v inside its anchor repeats in
    that clique, which the subset rule refuses as not strictly ascending."""
    clique = vertex_subset(attached(v, anchor)[1], wf.n, wf.sizes, NO_ENTRY)
    get = wf.weights.get
    return get(clique, 0.0) - _total(get, tuple(x for x in clique if x != v))


def weights_to_dict(wf: WeightFunction) -> dict:
    """Serializable dump of each stored subset's w, by (size, vertices), by
    the Mobius inversion: w(h) = c(h) less the w of h's proper subsets of two
    or more vertices, by size and then in order. On a store from entropies
    it ends the recursion ``weights_from_entropies`` began, bit for bit."""
    w: dict[tuple[int, ...], float] = {}
    for h in sorted(wf.weights, key=lambda h: (len(h), h)):
        acc = wf.weights[h]
        for size in range(2, len(h)):
            for g in itertools.combinations(h, size):
                acc -= w.get(g, 0.0)
        w[h] = acc
    return {"k": wf.k, "n": wf.n, "log_base": "e", "weights": [
        {"vars": list(map(int, h)), "w": float(x)} for h, x in w.items()]}


def weights_from_dict(doc: dict) -> WeightFunction:
    """Parse a weight dump through ``from_subset_weights``, its domain's size
    refused before its entries; a subset absent from the file weighs 0."""
    if doc.get("log_base", "e") != "e":
        raise ValueError(f"unsupported log base {doc.get('log_base')!r}")
    k, n = json_int(doc["k"], "k"), json_int(doc["n"], "n")
    if k >= 1:  # WeightFunction refuses k < 1 itself
        domain_size(n, k)
    return from_subset_weights(k, n, json_subsets(doc, "weights", "w", json_float))


def load_weights(path) -> WeightFunction:
    """Read a weight dump file; a malformed one is refused naming the path."""
    return read_json(path, weights_from_dict)
