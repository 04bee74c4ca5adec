"""Independent brute-force oracles and random-instance generators for tests.

Everything here deliberately avoids the library's solver/search code paths:
k-trees are enumerated by raw construction sequences with edge-set dedup, and
cliques by scanning all vertex subsets of an adjacency matrix.
"""

import itertools

import numpy as np

from hypertree.dataset import Dataset, JointTable, VariableSpec, scope_entropy
from hypertree.structure import KTree, clique_total
from hypertree.weights import WeightFunction, attachment_gain

MI_ZERO_TOL = 1e-12


def weight_inclusion_exclusion(provider, h) -> float:
    """A clique weight as an alternating entropy sum over subsets of h.

    w(h) = -sum over nonempty subsets h' of h of (-1)^(|h|-|h'|) H(h').
    Serves as an independent oracle for the recursion in compute_weights.
    """
    h = tuple(sorted(int(v) for v in h))
    if not h:
        raise ValueError("subset must be nonempty")
    total = 0.0
    for size in range(1, len(h) + 1):
        sign = (-1) ** (len(h) - size)
        for hp in itertools.combinations(h, size):
            total -= sign * scope_entropy(provider, hp)
    return total


def mutual_information(provider, u: int, v: int) -> float:
    """I(X_u; X_v) = H(u) + H(v) - H(u, v), clamped to 0 near zero."""
    if u == v:
        raise ValueError("mutual information requires two distinct variables")
    lo, hi = min(u, v), max(u, v)
    val = (
        scope_entropy(provider, (lo,))
        + scope_entropy(provider, (hi,))
        - scope_entropy(provider, (lo, hi))
    )
    return 0.0 if abs(val) <= MI_ZERO_TOL else val


def random_dataset(rng, n, t, arities=None):
    if arities is None:
        arities = [int(rng.integers(2, 4)) for _ in range(n)]
    specs = tuple(VariableSpec(f"x{i}", a) for i, a in enumerate(arities))
    rows = np.column_stack([rng.integers(0, a, size=t) for a in arities])
    return Dataset(specs, rows)


def random_joint(rng, arities):
    p = rng.random(tuple(arities))
    p /= p.sum()
    return JointTable(tuple(arities), p)


def random_ktree(rng, n, k):
    """A uniform-ish random k-tree via random seed and random anchors."""
    verts = list(rng.permutation(n))
    seed = tuple(sorted(verts[: min(k + 1, n)]))
    cliques = [seed]
    attachments = []
    for v in verts[min(k + 1, n):]:
        host = cliques[int(rng.integers(0, len(cliques)))]
        anchor = tuple(sorted(rng.choice(host, size=k, replace=False).tolist()))
        attachments.append((int(v), anchor))
        cliques.append(tuple(sorted(anchor + (int(v),))))
    return KTree(k=k, n=n, seed=seed, attachments=tuple(attachments))


def elimination_order(edges, k, n):
    """A perfect elimination ordering of a chordal graph whose cliques have
    at most k+1 vertices, or None if the graph is not one.

    Runs maximum-cardinality search (ties to the smallest vertex); the
    reverse visit order is a perfect elimination ordering exactly when the
    graph is chordal, and then the largest clique is some vertex together
    with its earlier-visited neighbors.
    """
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    weight = [0] * n
    pos = {}
    visit = []
    for i in range(n):
        best = min((u for u in range(n) if u not in pos),
                   key=lambda u: (-weight[u], u))
        earlier = [u for u in adj[best] if u in pos]
        if len(earlier) > k or any(b not in adj[a] for a, b
                                   in itertools.combinations(earlier, 2)):
            return None
        pos[best] = i
        visit.append(best)
        for u in adj[best]:
            weight[u] += 1
    return tuple(reversed(visit))


def ktree_from_graph(edges, k, n):
    """Embed a chordal graph of width at most k into a k-tree containing it.

    Processes the perfect elimination ordering in reverse: the last
    min(k+1, n) vertices become the seed, and each earlier vertex attaches to
    its later neighbors, filled up to size k with the lexicographically
    smallest completion taken from an existing clique. The library's
    original encoder, kept as the reference for ``ktree_from_cliques``.
    """
    elim = elimination_order(edges, k, n)
    if elim is None:
        raise ValueError(f"graph is not chordal with cliques of at most "
                         f"{k + 1} vertices")
    if n <= k + 1:
        return KTree(k=k, n=n, seed=tuple(range(n)))
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    pos = {v: i for i, v in enumerate(elim)}
    seed = tuple(sorted(elim[n - (k + 1):]))
    cliques = [seed]
    attachments = []
    for i in range(n - k - 2, -1, -1):
        v = elim[i]
        later = sorted(u for u in adj[v] if pos[u] > i)
        need = k - len(later)
        anchor = min(tuple(sorted(later + sorted(set(c) - set(later))[:need]))
                     for c in cliques if set(later) <= set(c))
        attachments.append((v, anchor))
        cliques.append(tuple(sorted(anchor + (v,))))
    return KTree(k=k, n=n, seed=seed, attachments=tuple(attachments))


def random_weight_function(rng, n, k, lo=-0.3, hi=1.0):
    """Arbitrary weights on sizes >= 2; singletons absent, so zero."""
    w = {h: float(rng.uniform(lo, hi))
         for size in range(2, k + 2)
         for h in itertools.combinations(range(n), size)}
    return WeightFunction(k=k, n=n, weights=w)


def clique_total_reference(maximal_cliques, wf) -> float:
    """``structure.clique_total`` read through ``wf[...]``, which sorts and
    checks every key it is given."""
    subs = {h for mc in maximal_cliques
            for size in range(2, len(mc) + 1)
            for h in itertools.combinations(sorted(mc), size)}
    return float(sum(wf[h] for h in sorted(subs)))


def attachment_gain_reference(wf, v, anchor) -> float:
    """``weights.attachment_gain`` read through ``wf[...]``: S + {v} for each
    nonempty S inside the sorted anchor, by size, then S in order."""
    anchor = tuple(sorted(anchor))
    if v in anchor:
        raise ValueError(f"vertex {v} is in its own anchor {anchor}")
    total = 0.0
    for size in range(1, len(anchor) + 1):
        for sub in itertools.combinations(anchor, size):
            total += wf[sub + (v,)]
    return total


def greedy_reference(wf):
    """The k-tree ``solvers.greedy`` must build, by a full rescan per step.

    Every step scores each (unplaced vertex, current anchor) pair, vertices
    ascending and anchors sorted, and takes the first strict maximum. This
    is the library's original greedy, kept as the differential oracle for
    the incremental one.
    """
    n, k = wf.n, wf.k
    if n <= k + 1:
        return KTree(k=k, n=n, seed=tuple(range(n)))
    best_seed = None
    best_val = None
    for seed in itertools.combinations(range(n), k + 1):
        val = clique_total((seed,), wf)
        if best_val is None or val > best_val:
            best_val = val
            best_seed = seed
    placed = set(best_seed)
    anchors = set(itertools.combinations(best_seed, k))
    attachments = []
    while len(placed) < n:
        best_move = None
        best_gain = None
        for v in range(n):
            if v in placed:
                continue
            for a in sorted(anchors):
                g = attachment_gain(wf, v, a)
                if best_gain is None or g > best_gain:
                    best_gain = g
                    best_move = (v, a)
        v, a = best_move
        attachments.append((v, a))
        placed.add(v)
        new_clique = tuple(sorted(a + (v,)))
        for s in itertools.combinations(new_clique, k):
            if v in s:
                anchors.add(s)
    return KTree(k=k, n=n, seed=best_seed, attachments=tuple(attachments))


def brute_ktree_scores(wf):
    """Score of every k-tree on wf's vertices, keyed by frozen edge set.

    Enumerates construction sequences directly, memoizing on the partial
    edge set (the score of a partial k-tree is a function of its graph, so
    any one path through a partial graph stands for all of them).
    """
    n, k = wf.n, wf.k

    def edge_bits(clique):
        m = 0
        for a, b in itertools.combinations(clique, 2):
            m |= 1 << (a * n + b)
        return m

    def gain(v, anchor):
        return sum(
            wf[tuple(sorted(s + (v,)))]
            for r in range(1, k + 1)
            for s in itertools.combinations(anchor, r)
        )

    results = {}
    seen = set()

    def expand(used, emask, cliques, sc):
        if emask in seen:
            return
        seen.add(emask)
        if len(used) == n:
            results[emask] = sc
            return
        anchors = {s for c in cliques for s in itertools.combinations(c, k)}
        for v in range(n):
            if v in used:
                continue
            for a in sorted(anchors):
                newc = tuple(sorted(a + (v,)))
                expand(used | {v}, emask | edge_bits(newc), cliques + [newc],
                       sc + gain(v, a))

    for seed in itertools.combinations(range(n), min(k + 1, n)):
        s0 = sum(
            wf[h]
            for size in range(2, len(seed) + 1)
            for h in itertools.combinations(seed, size)
        )
        expand(set(seed), edge_bits(seed), [seed], s0)

    def unpack(emask):
        edges = []
        i = 0
        while emask:
            if emask & 1:
                edges.append((i // n, i % n))
            emask >>= 1
            i += 1
        return frozenset(edges)

    return {unpack(m): s for m, s in results.items()}


def top_two_scores(scores):
    """Best and second-best score over distinct edge sets."""
    vals = sorted(scores.values(), reverse=True)
    return vals[0], (vals[1] if len(vals) > 1 else None)


def brute_cliques(edges, n, max_size):
    """All complete subgraphs of size 2..max_size, by subset scan."""
    adj = [[False] * n for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = True
    out = set()
    for size in range(2, max_size + 1):
        for sub in itertools.combinations(range(n), size):
            if all(adj[a][b] for a, b in itertools.combinations(sub, 2)):
                out.add(sub)
    return out


def xor_triple_joint():
    """Three binary vars, pairwise independent, x2 = x0 xor x1."""
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            p[a, b, a ^ b] = 0.25
    return JointTable((2, 2, 2), p)


def markov_chain_joint(flip=0.2):
    """Binary chain x0 -> x1 -> x2 with the given flip probability per step."""
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                pb = (1 - flip) if b == a else flip
                pc = (1 - flip) if c == b else flip
                p[a, b, c] = 0.5 * pb * pc
    return JointTable((2, 2, 2), p)


def product_joint(rng, arities):
    """Joint table that factorizes over singletons exactly."""
    parts = []
    for a in arities:
        q = rng.random(a)
        q /= q.sum()
        parts.append(q)
    p = parts[0]
    for q in parts[1:]:
        p = np.multiply.outer(p, q)
    return JointTable(tuple(arities), p)
