"""Solvers for the maximum-weight k-tree problem.

Find a k-tree whose cliques of size >= 2 have maximum total weight,
reading only clique totals: a seed is one read, an attachment gain two
(I(X_v; X_anchor) for data). ``exact_search`` is an exponential-in-n oracle
for small n; ``greedy`` and ``local_search`` are heuristics, but at k=1
greedy builds a maximum-weight spanning tree, and ``chow_liu`` is greedy
under that name. All are deterministic under fixed tie-breaking.
"""

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass, replace

from .errors import DEFAULT_EXACT_LIMIT, GuardLimitError
from .structure import KTree, ktree_from_cliques, score
from .weights import attachment_gain, clique_total, clique_totals

__all__ = [
    "SolverResult",
    "chow_liu",
    "exact_search",
    "refuse_exact",
    "greedy",
    "local_search",
]

IMPROVE_EPS = 1e-12
DEFAULT_MAX_ITERS = 1000


@dataclass(frozen=True)
class SolverResult:
    tree: KTree
    score: float
    method: str
    stats: dict


def _result(tree: KTree, wf, method: str, t0: float, nodes_explored: int,
            iterations: int) -> SolverResult:
    stats = {"nodes_explored": nodes_explored, "iterations": iterations,
             "elapsed_s": time.perf_counter() - t0}
    return SolverResult(tree, score(tree, wf), method, stats)


def chow_liu(wf) -> SolverResult:
    """Maximum-weight spanning tree over the pair weights (k=1 only): at k=1
    ``greedy`` is Prim's algorithm from the heaviest edge, so this is its
    result relabelled, with greedy's tree, counters and tie-breaking."""
    if wf.k != 1:
        raise ValueError(f"chow_liu requires a k=1 weight function, got k={wf.k}")
    return replace(greedy(wf), method="chow_liu")


def refuse_exact(n: int, k: int, exact_limit: int | None = None) -> None:
    """Refuse exact search over n vertices above exact_limit, or above
    DEFAULT_EXACT_LIMIT without one; callers check it before any weight."""
    limit = DEFAULT_EXACT_LIMIT if exact_limit is None else exact_limit
    if n > limit:
        raise GuardLimitError(
            f"exact search refused: n={n} exceeds the limit {limit} for k={k}; "
            "pass a higher exact limit to override"
        )


def exact_search(wf, exact_limit: int | None = None) -> SolverResult:
    """Exact maximum-weight k-tree for small n.

    Searches over rooted clique trees: a k-tree is a seed clique plus,
    for every other vertex, a parent clique and a k-subset of it to anchor
    to. The best arrangement of a remaining vertex set below a given clique
    decomposes by which vertices share the subtree of the lowest remaining
    vertex, giving a dynamic program over (clique, vertex-bitmask) states.
    Two ``functools.cache`` functions hold the states, each caching its
    value together with its best choice; the optimum is reconstructed by
    replaying those choices, and ``nodes_explored`` counts the cached
    states. Ties within IMPROVE_EPS fall to the first optimum in a fixed scan
    order (seeds and anchors lexicographic, vertices ascending). Without an
    exact_limit, n > DEFAULT_EXACT_LIMIT is refused.
    """
    n, k = wf.n, wf.k
    refuse_exact(n, k, exact_limit)
    totals = clique_totals(wf)
    t0 = time.perf_counter()
    gain = functools.cache(functools.partial(attachment_gain, wf))

    # subtree(C, R): best (gain, (v, anchor)) for hanging all vertices of the
    # nonempty bitmask R as one subtree whose root v is anchored to a
    # k-subset of clique C. forest(C, R): best (gain, R1) for hanging R as
    # subtrees below C, where R1 is the part that shares the subtree of R's
    # lowest vertex. forest(seed, 0), the one state when n <= k+1, is the
    # only call with an empty R; so the two cache sizes count the DP states.
    @functools.cache
    def subtree(clique: tuple[int, ...], rmask: int):
        best = choice = None
        anchors = list(itertools.combinations(clique, k))
        for v in range(n):
            if not rmask >> v & 1:
                continue
            rest = rmask & ~(1 << v)
            for s in anchors:
                val = gain(v, s)
                if rest:
                    val += forest(tuple(sorted(s + (v,))), rest)[0]
                if best is None or val > best + IMPROVE_EPS:
                    best, choice = val, (v, s)
        return best, choice

    @functools.cache
    def forest(clique: tuple[int, ...], rmask: int):
        if not rmask:
            return 0.0, 0
        low = rmask & -rmask
        rest = rmask ^ low
        best = choice = None
        sub = rest
        while True:
            r1 = sub | low
            val = subtree(clique, r1)[0]
            if r1 != rmask:
                val += forest(clique, rmask ^ r1)[0]
            if best is None or val > best + IMPROVE_EPS:
                best, choice = val, r1
            if sub == 0:
                break
            sub = (sub - 1) & rest
        return best, choice

    full = (1 << n) - 1
    best = None
    for t, seed in totals:
        rmask = full ^ sum(1 << v for v in seed)
        val = t + forest(seed, rmask)[0]
        if best is None or val > best[0] + IMPROVE_EPS:
            best = val, seed, rmask
    _, best_seed, rmask = best

    attachments: list[tuple[int, tuple[int, ...]]] = []
    stack = [(best_seed, rmask)]
    while stack:
        clique, rmask = stack.pop()
        while rmask:
            r1 = forest(clique, rmask)[1]
            v, s = subtree(clique, r1)[1]
            attachments.append((v, s))
            stack.append((tuple(sorted(s + (v,))), r1 & ~(1 << v)))
            rmask ^= r1
    tree = KTree(k=k, n=n, seed=best_seed, attachments=tuple(attachments))
    states = forest.cache_info().currsize + subtree.cache_info().currsize
    return _result(tree, wf, "exact", t0, states, len(attachments))


def greedy(wf) -> SolverResult:
    """Best-seed greedy construction.

    Seeds with the first seed of maximum total, then repeatedly attaches
    the (vertex, anchor) pair of maximum gain over all current k-cliques.
    Ties break to the smallest vertex, then the smallest anchor; negative
    gains are still taken, since a k-tree must span every vertex.

    A gain never changes, so each unplaced vertex keeps its best
    (gain, anchor) and is offered only new anchors: the seed's k-subsets,
    then the k anchors each attachment creates. Every (vertex, anchor) gain
    is evaluated once.
    """
    n, k = wf.n, wf.k
    totals = clique_totals(wf)
    t0 = time.perf_counter()
    best_seed = max(totals, key=operator.itemgetter(0))[1]
    evaluated = math.comb(n, len(best_seed))
    best: dict[int, tuple[float, tuple[int, ...]] | None] = {
        v: None for v in range(n) if v not in best_seed}
    new_anchors = ()  # at first the seed's, listed only if a vertex is left
    attachments: list[tuple[int, tuple[int, ...]]] = []
    while best:
        for a in new_anchors or itertools.combinations(best_seed, k):
            for v, cur in best.items():
                g = attachment_gain(wf, v, a)
                evaluated += 1
                if cur is None or g > cur[0] or (g == cur[0] and a < cur[1]):
                    best[v] = (g, a)
        v = max(best, key=lambda u: (best[u][0], -u))
        a = best.pop(v)[1]
        attachments.append((v, a))
        new_anchors = [s for s in itertools.combinations(sorted(a + (v,)), k)
                       if v in s]
    tree = KTree(k=k, n=n, seed=best_seed, attachments=tuple(attachments))
    return _result(tree, wf, "greedy", t0, evaluated, len(attachments))


def local_search(wf, start: KTree) -> SolverResult:
    """Hill climbing over two moves, first-improvement, deterministic order.

    Move (a) re-anchors a removable (simplicial) vertex to any other
    k-clique of the remaining graph; move (b) swaps the labels of a
    removable vertex and another vertex, a move set of this library's own
    design. Each iteration scans the re-anchors of each removable vertex to
    each k-clique, sorted, that neither holds it nor is its anchor; then the
    swaps of each removable vertex v with every other vertex u, u
    ascending. The first move that improves the score by more than 1e-12 is
    accepted; ``nodes_explored`` counts the moves scanned. The search stops
    when no move improves, or after DEFAULT_MAX_ITERS iterations.

    The state is the list of maximal cliques: with n >= k+2 a vertex is
    removable exactly when it lies in one, the rest of which is its anchor.
    A move is its score change and the relabelling, old to new, of the
    cliques it changes: a re-anchor of v turns its old anchor into the new
    in v's one clique, for the cached ``attachment_gain`` at the new anchor
    less the old; a swap turns (u, v) into (v, u) in the cliques that hold
    u or v, for their ``clique_total`` after less before, since no other
    clique, and no separator without u or v, changes. Only an accepted
    move is relabelled, in place; ``ktree_from_cliques`` encodes the list
    at the end. ``tests/oracles.py`` keeps the original search, which
    rescores the whole list for every swap, as ``local_search_reference``.
    """
    t0 = time.perf_counter()
    n, k = start.n, start.k
    if wf.n != n:
        raise ValueError(f"weight function covers {wf.n} vertices, tree has {n}")
    if k > wf.k:
        raise ValueError(f"start tree has width {k}, over the weight "
                         f"function's width {wf.k}")
    if n <= k + 1:  # one clique: nothing to move, so 0 moves in 0 iterations
        # (moves would list its k-subsets and count its label swaps)
        return _result(start, wf, "local_search", t0, 0, 0)
    gain = functools.cache(functools.partial(attachment_gain, wf))

    def relabel(cliques, old, new):
        """The cliques, old's vertices turned into new's at once, sorted."""
        to = dict(zip(old, new))
        return [tuple(sorted(to.get(x, x) for x in mc)) for mc in cliques]

    def moves(maximal):
        """Yield each move in scan order as (delta, cliques, old, new)."""
        held: dict[int, list[tuple[int, ...]]] = {x: [] for x in range(n)}
        for mc in maximal:
            for x in mc:
                held[x].append(mc)
        removable = [v for v in range(n) if len(held[v]) == 1]
        anchors = sorted({s for mc in maximal
                          for s in itertools.combinations(mc, k)})
        # (a) re-anchor a removable vertex v: its one clique's anchor changes
        for v in removable:
            old_anchor = tuple(x for x in held[v][0] if x != v)
            loss = gain(v, old_anchor)
            for a in anchors:
                if v not in a and a != old_anchor:
                    yield gain(v, a) - loss, held[v], old_anchor, a
        # (b) swap the labels of a removable vertex and another vertex
        for v in removable:
            for u in range(n):
                if u != v:  # held[u] lists v's clique when u lies in it
                    cliques = held[u] if u in held[v][0] else held[u] + held[v]
                    yield (clique_total(relabel(cliques, (u, v), (v, u)), wf)
                           - clique_total(cliques, wf)), cliques, (u, v), (v, u)

    maximal = list(start.maximal_cliques())
    changed = False
    iterations = 0
    moves_evaluated = 0
    while iterations < DEFAULT_MAX_ITERS:
        iterations += 1
        for delta, cliques, old, new in moves(maximal):
            moves_evaluated += 1
            if delta > IMPROVE_EPS:
                break
        else:
            break  # no move improves
        # the accept point, where a trajectory would record delta; every spot
        # is found first, since a swap may turn one clique into another
        spots = [maximal.index(mc) for mc in cliques]
        for i, after in zip(spots, relabel(cliques, old, new)):
            maximal[i] = after
        changed = True

    tree = ktree_from_cliques(maximal, k, n) if changed else start
    return _result(tree, wf, "local_search", t0, moves_evaluated, iterations)
