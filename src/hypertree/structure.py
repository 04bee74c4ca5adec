"""Width-k triangulated graphs encoded as k-tree construction sequences.

A KTree starts from a seed clique of min(k+1, n) vertices and attaches the
remaining vertices one at a time, each to a k-subset of an existing clique.
Every graph built this way is chordal with maximum clique size k+1, and every
maximal triangulated graph of tree-width k arises this way. ``verify_width``
checks arbitrary edge lists against a width bound via maximum-cardinality
search, and ``ktree_from_graph`` embeds a verified graph into a k-tree by
reversing the elimination ordering and filling anchors.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "KTree",
    "CliqueSet",
    "WidthReport",
    "cliques_of",
    "ktree_edges",
    "clique_total",
    "score",
    "verify_width",
    "ktree_from_graph",
    "ktree_to_dict",
    "ktree_from_dict",
    "dump_ktree",
    "load_ktree",
]


@dataclass(frozen=True)
class KTree:
    """A width-k triangulated graph as a construction sequence.

    ``seed`` is the initial clique; ``attachments`` is an ordered list of
    (vertex, anchor) pairs where each anchor is a k-subset of a clique that
    exists at attachment time. Vertices are 0..n-1 and each appears exactly
    once (in the seed or as an attached vertex).
    """

    k: int
    n: int
    seed: tuple[int, ...]
    attachments: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"width k must be >= 1, got {self.k}")
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        seed = tuple(sorted(int(v) for v in self.seed))
        object.__setattr__(self, "seed", seed)
        want = min(self.k + 1, self.n)
        if len(seed) != want or len(set(seed)) != want:
            raise ValueError(f"seed must be {want} distinct vertices, got {seed}")
        attachments = tuple(
            (int(v), tuple(sorted(int(a) for a in anchor)))
            for v, anchor in self.attachments
        )
        object.__setattr__(self, "attachments", attachments)

        placed = set(seed)
        cliques = [seed]
        for v, anchor in attachments:
            if v in placed:
                raise ValueError(f"vertex {v} attached twice")
            if len(anchor) != self.k or len(set(anchor)) != self.k:
                raise ValueError(
                    f"anchor for vertex {v} must be {self.k} distinct "
                    f"vertices, got {anchor}"
                )
            if v in anchor:
                raise ValueError(f"vertex {v} cannot anchor to itself")
            aset = set(anchor)
            if not any(aset <= set(c) for c in cliques):
                raise ValueError(
                    f"anchor {anchor} for vertex {v} is not inside any "
                    "existing clique"
                )
            placed.add(v)
            cliques.append(tuple(sorted(anchor + (v,))))
        if placed != set(range(self.n)):
            missing = sorted(set(range(self.n)) - placed)
            raise ValueError(f"vertices not placed: {missing}")

    def maximal_cliques(self) -> tuple[tuple[int, ...], ...]:
        """The seed plus one clique per attachment (anchor + vertex)."""
        out = [self.seed]
        for v, anchor in self.attachments:
            out.append(tuple(sorted(anchor + (v,))))
        return tuple(out)


@dataclass(frozen=True)
class CliqueSet:
    """All cliques of sizes 2..k+1 of a k-tree, deduplicated."""

    cliques: frozenset[tuple[int, ...]]


@dataclass(frozen=True)
class WidthReport:
    """Outcome of a chordality / width check.

    On success ``elimination_order`` is a perfect elimination ordering. On
    failure exactly one witness field is set: ``bad_cycle`` is a chordless
    cycle of length >= 4, ``oversized_clique`` a clique larger than k+1.
    """

    ok: bool
    elimination_order: tuple[int, ...] | None = None
    bad_cycle: tuple[int, ...] | None = None
    oversized_clique: tuple[int, ...] | None = None


def _sub_cliques(maximal_cliques):
    """Subsets of size >= 2 of each given clique, repeats across cliques kept."""
    return itertools.chain.from_iterable(
        itertools.combinations(mc, size)
        for mc in maximal_cliques
        for size in range(2, len(mc) + 1)
    )


def cliques_of(tree: KTree) -> CliqueSet:
    """All subsets of size >= 2 of every maximal clique, deduplicated."""
    return CliqueSet(frozenset(_sub_cliques(tree.maximal_cliques())))


def ktree_edges(tree: KTree) -> frozenset[tuple[int, int]]:
    """Edge set of the k-tree graph as sorted vertex pairs."""
    edges: set[tuple[int, int]] = set()
    for mc in tree.maximal_cliques():
        edges.update(itertools.combinations(mc, 2))
    return frozenset(edges)


def clique_total(maximal_cliques, wf) -> float:
    """Total weight of the cliques of size >= 2 inside the given cliques.

    Each clique counts once however many of the given cliques contain it;
    the terms are summed in lexicographic order of the sorted cliques.
    """
    subs = _sub_cliques(maximal_cliques)
    if len(maximal_cliques) > 1:  # one clique repeats no subset
        subs = set(subs)
    return float(sum(wf[h] for h in sorted(subs)))


def score(tree: KTree, wf) -> float:
    """Total weight of all cliques of size >= 2 (singletons excluded)."""
    return clique_total(tree.maximal_cliques(), wf)


def _build_adjacency(edges, n: int | None):
    norm = []
    seen = set()
    top = -1
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = (min(u, v), max(u, v))
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        norm.append(e)
        top = max(top, e[1])
    if n is None:
        n = top + 1
    elif top >= n:
        raise ValueError(f"edge endpoint {top} outside [0, {n})")
    adj = [set() for _ in range(n)]
    for u, v in norm:
        adj[u].add(v)
        adj[v].add(u)
    return adj, n


def _mcs_visit_order(adj, n: int) -> list[int]:
    # Maximum-cardinality search; ties go to the smallest vertex index.
    weight = [0] * n
    visited = [False] * n
    order = []
    for _ in range(n):
        best = -1
        for u in range(n):
            if not visited[u] and (best < 0 or weight[u] > weight[best]):
                best = u
        visited[best] = True
        order.append(best)
        for u in adj[best]:
            if not visited[u]:
                weight[u] += 1
    return order


def _find_chordless_cycle(adj, n: int) -> tuple[int, ...]:
    # In a non-chordal graph some vertex v has non-adjacent neighbors x, u
    # joined by a path avoiding N[v]; the shortest such path plus v is an
    # induced cycle. Trying all (v, x, u) triples is guaranteed to hit one.
    for v in range(n):
        nbrs = sorted(adj[v])
        blocked = adj[v] | {v}
        for x, u in itertools.combinations(nbrs, 2):
            if u in adj[x]:
                continue
            allowed = (set(range(n)) - blocked) | {x, u}
            parent = {x: None}
            queue = deque([x])
            while queue:
                cur = queue.popleft()
                if cur == u:
                    break
                for nxt in adj[cur]:
                    if nxt in allowed and nxt not in parent:
                        parent[nxt] = cur
                        queue.append(nxt)
            if u in parent:
                path = [u]
                while path[-1] is not None and parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()  # x .. u
                return tuple([v] + path)
    raise AssertionError("no chordless cycle found in a non-chordal graph")


def verify_width(edges, k: int, n: int | None = None) -> WidthReport:
    """Check that a graph is chordal with maximum clique size <= k+1.

    Runs maximum-cardinality search; the reverse visit order is a perfect
    elimination ordering exactly when the graph is chordal. The report
    carries the ordering on success and an explicit witness on failure.
    """
    if k < 1:
        raise ValueError(f"width k must be >= 1, got {k}")
    adj, n = _build_adjacency(edges, n)
    if n == 0:
        return WidthReport(ok=True, elimination_order=())
    visit = _mcs_visit_order(adj, n)
    pos = {v: i for i, v in enumerate(visit)}
    elim = tuple(reversed(visit))

    # Perfect elimination check: each vertex's earlier-visited neighbors
    # (its later neighbors in elimination order) must form a clique.
    max_clique: tuple[int, ...] = (visit[0],)
    for i, v in enumerate(visit):
        earlier = [u for u in adj[v] if pos[u] < i]
        for a, b in itertools.combinations(earlier, 2):
            if b not in adj[a]:
                return WidthReport(ok=False, bad_cycle=_find_chordless_cycle(adj, n))
        if len(earlier) + 1 > len(max_clique):
            max_clique = tuple(sorted(earlier + [v]))
    if len(max_clique) > k + 1:
        return WidthReport(ok=False, oversized_clique=max_clique)
    return WidthReport(ok=True, elimination_order=elim)


def ktree_from_graph(edges, k: int, n: int | None = None) -> KTree:
    """Embed a verified width-k graph into a k-tree containing its edges.

    Processes the perfect elimination ordering in reverse: the last
    min(k+1, n) vertices become the seed, and each earlier vertex attaches to
    its later neighbors, filled up to size k with the lexicographically
    smallest completion taken from an existing clique. Added fill edges never
    remove input edges, so the result contains the input graph.
    """
    report = verify_width(edges, k, n)
    if not report.ok:
        if report.bad_cycle is not None:
            raise ValueError(f"graph is not chordal: chordless cycle {report.bad_cycle}")
        raise ValueError(
            f"graph has clique {report.oversized_clique} larger than {k + 1}"
        )
    adj, n = _build_adjacency(edges, n)
    if n == 0:
        raise ValueError("cannot build a k-tree on zero vertices")
    if n <= k + 1:
        return KTree(k=k, n=n, seed=tuple(range(n)))
    elim = report.elimination_order
    pos = {v: i for i, v in enumerate(elim)}
    seed = tuple(sorted(elim[n - (k + 1):]))
    cliques = [seed]
    attachments = []
    for i in range(n - k - 2, -1, -1):
        v = elim[i]
        later = sorted(u for u in adj[v] if pos[u] > i)
        if len(later) == k:
            anchor = tuple(later)
        else:
            need = k - len(later)
            later_set = set(later)
            best = None
            for c in cliques:
                cset = set(c)
                if later_set <= cset:
                    extras = sorted(cset - later_set)[:need]
                    cand = tuple(sorted(later + extras))
                    if best is None or cand < best:
                        best = cand
            if best is None:  # unreachable: a clique subgraph always extends
                raise AssertionError(f"no clique contains {later}")
            anchor = best
        attachments.append((v, anchor))
        cliques.append(tuple(sorted(anchor + (v,))))
    return KTree(k=k, n=n, seed=seed, attachments=tuple(attachments))


def ktree_to_dict(tree: KTree) -> dict:
    """Serializable structure document; maximal_cliques is derived output."""
    return {
        "k": tree.k,
        "n": tree.n,
        "seed": list(tree.seed),
        "attachments": [
            {"v": v, "anchor": list(anchor)} for v, anchor in tree.attachments
        ],
        "maximal_cliques": [list(c) for c in tree.maximal_cliques()],
    }


def ktree_from_dict(doc: dict) -> KTree:
    """Parse a structure document (the maximal_cliques field is ignored)."""
    return KTree(
        k=int(doc["k"]),
        n=int(doc["n"]),
        seed=tuple(doc["seed"]),
        attachments=tuple(
            (int(a["v"]), tuple(a["anchor"])) for a in doc.get("attachments", [])
        ),
    )


def dump_ktree(tree: KTree, target) -> None:
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            dump_ktree(tree, fh)
        return
    json.dump(ktree_to_dict(tree), target, indent=2)
    target.write("\n")


def load_ktree(source) -> KTree:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_ktree(fh)
    return ktree_from_dict(json.load(source))
