"""Solvers for the maximum-weight k-tree problem.

Given a weight function on vertex subsets, find a k-tree whose cliques of
size >= 2 have maximum total weight. ``chow_liu`` handles k=1 exactly as a
maximum-weight spanning tree; ``exact_search`` is an exponential-in-n oracle
for small n; ``greedy`` and ``local_search`` are heuristics for general use.
All solvers are deterministic under fixed tie-breaking.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .errors import GuardLimitError
from .structure import KTree, clique_total, ktree_from_graph, score
from .weights import attachment_gain

__all__ = [
    "SolverResult",
    "chow_liu",
    "exact_search",
    "greedy",
    "local_search",
    "default_exact_limit",
]

IMPROVE_EPS = 1e-12
DEFAULT_MAX_ITERS = 1000


@dataclass(frozen=True)
class SolverResult:
    tree: KTree
    score: float
    method: str
    stats: dict


def default_exact_limit(k: int) -> int:
    """Largest n exact_search accepts without an explicit override."""
    return 9 if k <= 2 else 8


def _result(tree: KTree, wf, method: str, t0: float, nodes_explored: int,
            iterations: int) -> SolverResult:
    stats = {"nodes_explored": nodes_explored, "iterations": iterations,
             "elapsed_s": time.perf_counter() - t0}
    return SolverResult(tree, score(tree, wf), method, stats)


class _DSU:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def chow_liu(wf) -> SolverResult:
    """Maximum-weight spanning tree over the pair weights (k=1 only).

    Greedy forest merge over all vertex pairs sorted by descending weight,
    ties broken by the lexicographically smallest edge. Zero- or
    negative-weight edges are still used where needed to span.
    """
    if wf.k != 1:
        raise ValueError(f"chow_liu requires a k=1 weight function, got k={wf.k}")
    t0 = time.perf_counter()
    n = wf.n
    edges = sorted(itertools.combinations(range(n), 2),
                   key=lambda e: (-wf[e], e))
    dsu = _DSU(n)
    chosen: list[tuple[int, int]] = []
    examined = 0
    for u, v in edges:
        examined += 1
        if dsu.union(u, v):
            chosen.append((u, v))
            if len(chosen) == n - 1:
                break
    return _result(ktree_from_graph(chosen, 1, n), wf, "chow_liu", t0,
                   examined, len(chosen))


def exact_search(wf, exact_limit: int | None = None) -> SolverResult:
    """Exact maximum-weight k-tree for small n.

    Searches over rooted clique trees: a k-tree is a seed (k+1)-clique plus,
    for every other vertex, a parent clique and a k-subset of it to anchor
    to. The best arrangement of a remaining vertex set below a given clique
    decomposes by which vertices share the subtree of the lowest remaining
    vertex, giving a dynamic program over (clique, vertex-bitmask) states.
    The optimum is reconstructed by replaying stored choices; ties fall to
    the first optimum in a fixed scan order (seeds and anchors
    lexicographic, vertices ascending).
    """
    n, k = wf.n, wf.k
    limit = default_exact_limit(k) if exact_limit is None else exact_limit
    if n > limit:
        raise GuardLimitError(
            f"exact search refused: n={n} exceeds the limit {limit} for k={k}; "
            "pass a higher exact limit to override"
        )
    t0 = time.perf_counter()
    if n <= k + 1:
        return _result(KTree(k=k, n=n, seed=tuple(range(n))), wf, "exact", t0, 1, 0)

    gain: dict[tuple[int, tuple[int, ...]], float] = {}
    for anchor in itertools.combinations(range(n), k):
        aset = set(anchor)
        for v in range(n):
            if v not in aset:
                gain[(v, anchor)] = attachment_gain(wf, v, anchor)

    ksubs_cache: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def ksubs(clique: tuple[int, ...]) -> list[tuple[int, ...]]:
        got = ksubs_cache.get(clique)
        if got is None:
            got = list(itertools.combinations(clique, k))
            ksubs_cache[clique] = got
        return got

    # best_forest[(C, R)]: max gain from hanging all vertices of bitmask R in
    # subtrees below clique C. best_subtree[(C, R)]: same but as one subtree
    # whose root vertex is anchored to a k-subset of C.
    best_forest: dict[tuple[tuple[int, ...], int], float] = {}
    forest_choice: dict[tuple[tuple[int, ...], int], int] = {}
    best_subtree: dict[tuple[tuple[int, ...], int], float] = {}
    subtree_choice: dict[tuple[tuple[int, ...], int], tuple[int, tuple[int, ...]]] = {}

    def solve_subtree(clique: tuple[int, ...], rmask: int) -> float:
        key = (clique, rmask)
        got = best_subtree.get(key)
        if got is not None:
            return got
        best = None
        choice = None
        for v in _bits(rmask):
            rest = rmask & ~(1 << v)
            for s in ksubs(clique):
                child = tuple(sorted(s + (v,)))
                val = gain[(v, s)] + solve_forest(child, rest)
                if best is None or val > best:
                    best = val
                    choice = (v, s)
        best_subtree[key] = best
        subtree_choice[key] = choice
        return best

    def solve_forest(clique: tuple[int, ...], rmask: int) -> float:
        if rmask == 0:
            return 0.0
        key = (clique, rmask)
        got = best_forest.get(key)
        if got is not None:
            return got
        low = rmask & -rmask
        rest = rmask ^ low
        best = None
        choice = None
        sub = rest
        while True:
            r1 = sub | low
            val = solve_subtree(clique, r1) + solve_forest(clique, rmask ^ r1)
            if best is None or val > best:
                best = val
                choice = r1
            if sub == 0:
                break
            sub = (sub - 1) & rest
        best_forest[key] = best
        forest_choice[key] = choice
        return best

    full = (1 << n) - 1
    best_total = None
    best_seed = None
    for seed in itertools.combinations(range(n), k + 1):
        rmask = full ^ _mask(seed)
        val = clique_total((seed,), wf) + solve_forest(seed, rmask)
        if best_total is None or val > best_total:
            best_total = val
            best_seed = seed

    attachments: list[tuple[int, tuple[int, ...]]] = []
    stack = [(best_seed, full ^ _mask(best_seed))]
    while stack:
        clique, rmask = stack.pop()
        while rmask:
            r1 = forest_choice[(clique, rmask)]
            v, s = subtree_choice[(clique, r1)]
            attachments.append((v, s))
            child = tuple(sorted(s + (v,)))
            stack.append((child, r1 & ~(1 << v)))
            rmask ^= r1
    tree = KTree(k=k, n=n, seed=best_seed, attachments=tuple(attachments))
    return _result(tree, wf, "exact", t0, len(best_forest) + len(best_subtree),
                   len(attachments))


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _bits(mask: int):
    v = 0
    while mask:
        if mask & 1:
            yield v
        mask >>= 1
        v += 1


def greedy(wf) -> SolverResult:
    """Best-seed greedy construction.

    Seeds with the (k+1)-subset of maximum internal weight, then repeatedly
    attaches the (vertex, anchor) pair of maximum gain over all current
    k-cliques. Ties break to the smallest vertex, then the smallest anchor.
    Negative-gain attachments are still made: a k-tree must span every
    vertex.
    """
    t0 = time.perf_counter()
    n, k = wf.n, wf.k
    evaluated = 0
    if n <= k + 1:
        return _result(KTree(k=k, n=n, seed=tuple(range(n))), wf, "greedy", t0, 1, 0)
    best_seed = None
    best_val = None
    for seed in itertools.combinations(range(n), k + 1):
        val = clique_total((seed,), wf)
        evaluated += 1
        if best_val is None or val > best_val:
            best_val = val
            best_seed = seed
    placed = set(best_seed)
    anchors = set(itertools.combinations(best_seed, k))
    attachments: list[tuple[int, tuple[int, ...]]] = []
    while len(placed) < n:
        best_move = None
        best_gain = None
        for v in range(n):
            if v in placed:
                continue
            for a in sorted(anchors):
                g = attachment_gain(wf, v, a)
                evaluated += 1
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
    tree = KTree(k=k, n=n, seed=best_seed, attachments=tuple(attachments))
    return _result(tree, wf, "greedy", t0, evaluated, len(attachments))


def local_search(wf, start: KTree, max_iters: int = DEFAULT_MAX_ITERS) -> SolverResult:
    """Hill climbing over two moves, first-improvement, deterministic order.

    Move (a) re-anchors a removable vertex (one whose maximal clique is a
    leaf of the clique tree, i.e. a simplicial vertex) to any other k-clique
    of the remaining graph. Move (b) swaps the labels of a removable vertex
    and another vertex, exchanging their structural roles. Only strictly
    improving moves (by more than 1e-12) are accepted, so the final score
    never drops below the start. The move set is this library's own design.

    The search state is the list of maximal cliques; a changed graph is
    encoded as a k-tree once, by ``ktree_from_graph``, when the search ends.
    """
    t0 = time.perf_counter()
    n, k = start.n, start.k
    if wf.n != n:
        raise ValueError(f"weight function covers {wf.n} vertices, tree has {n}")
    if n <= k + 1:
        return _result(start, wf, "local_search", t0, 0, 0)
    gain_cache: dict[tuple[int, tuple[int, ...]], float] = {}

    def cached_gain(v: int, anchor: tuple[int, ...]) -> float:
        key = (v, anchor)
        got = gain_cache.get(key)
        if got is None:
            got = attachment_gain(wf, v, anchor)
            gain_cache[key] = got
        return got

    maximal = list(start.maximal_cliques())
    changed = False
    iterations = 0
    moves_evaluated = 0
    while iterations < max_iters:
        iterations += 1
        adj = [set() for _ in range(n)]
        for mc in maximal:
            for a, b in itertools.combinations(mc, 2):
                adj[a].add(b)
                adj[b].add(a)
        cur_score = clique_total(maximal, wf)  # drift-free baseline
        removable = [
            v for v in range(n)
            if len(adj[v]) == k
            and all(b in adj[a] for a, b in itertools.combinations(sorted(adj[v]), 2))
        ]
        improved = None

        # (a) re-anchor a removable vertex elsewhere; v lies in exactly one
        # maximal clique, which the move replaces
        for v in removable:
            old_anchor = tuple(sorted(adj[v]))
            loss = cached_gain(v, old_anchor)
            candidates = sorted({
                s for mc in maximal for s in itertools.combinations(mc, k)
                if v not in s
            } - {old_anchor})
            for a in candidates:
                moves_evaluated += 1
                if cached_gain(v, a) - loss > IMPROVE_EPS:
                    improved = [tuple(sorted(a + (v,))) if v in mc else mc
                                for mc in maximal]
                    break
            if improved is not None:
                break

        # (b) swap the labels of a removable vertex and another vertex
        if improved is None:
            for v in removable:
                for u in range(n):
                    if u == v:
                        continue
                    moves_evaluated += 1
                    swapped = _swap_labels(maximal, u, v)
                    if clique_total(swapped, wf) - cur_score > IMPROVE_EPS:
                        improved = swapped
                        break
                if improved is not None:
                    break

        if improved is None:
            break
        maximal = improved
        changed = True

    tree = start
    if changed:
        edges = {e for mc in maximal for e in itertools.combinations(mc, 2)}
        tree = ktree_from_graph(sorted(edges), k, n)
    return _result(tree, wf, "local_search", t0, moves_evaluated, iterations)


def _swap_labels(maximal_cliques, u: int, v: int):
    def relabel(x: int) -> int:
        if x == u:
            return v
        if x == v:
            return u
        return x

    return [tuple(sorted(relabel(x) for x in mc)) for mc in maximal_cliques]
