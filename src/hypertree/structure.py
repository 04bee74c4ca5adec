"""Width-k triangulated graphs encoded as k-tree construction sequences.

A KTree starts from a seed clique of min(k+1, n) vertices and attaches the
remaining vertices one at a time, each to a k-subset of an existing clique.
Every graph built this way is chordal with maximum clique size k+1, and every
maximal triangulated graph of tree-width k arises this way. The solvers build
their k-trees clique by clique, and ``ktree_from_cliques`` encodes a list of
maximal cliques, in any order, as a construction sequence.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import WEIGHT_DOMAIN_GUARD, GuardLimitError, json_int

__all__ = [
    "KTree",
    "CliqueSet",
    "cliques_of",
    "clique_family",
    "ktree_edges",
    "clique_total",
    "score",
    "ktree_from_cliques",
    "ktree_to_dict",
    "ktree_from_dict",
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

        for v in seed + tuple(v for v, _ in attachments):
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} outside [0, {self.n})")
        # Edges only ever join a new vertex to its anchor, so a k-subset lies
        # inside an existing clique exactly when it lies inside the clique
        # made when its last-placed vertex was placed.
        step = dict.fromkeys(seed, 0)
        made = [frozenset(seed)]
        for v, anchor in attachments:
            if v in step:
                raise ValueError(f"vertex {v} attached twice")
            if len(anchor) != self.k or len(set(anchor)) != self.k:
                raise ValueError(
                    f"anchor for vertex {v} must be {self.k} distinct "
                    f"vertices, got {anchor}"
                )
            if v in anchor:
                raise ValueError(f"vertex {v} cannot anchor to itself")
            if not (all(a in step for a in anchor)
                    and made[max(step[a] for a in anchor)].issuperset(anchor)):
                raise ValueError(
                    f"anchor {anchor} for vertex {v} is not inside any "
                    "existing clique"
                )
            step[v] = len(made)
            made.append(frozenset(anchor + (v,)))
        if len(step) != self.n:
            first = next(v for v in range(self.n) if v not in step)
            raise ValueError(f"{self.n - len(step)} vertices not placed, "
                             f"the first is {first}")

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


def _sub_cliques(maximal_cliques, smallest=2):
    """Each clique's subsets of at least `smallest` vertices, repeats kept."""
    return itertools.chain.from_iterable(
        itertools.combinations(mc, size)
        for mc in maximal_cliques
        for size in range(smallest, len(mc) + 1)
    )


def cliques_of(tree: KTree) -> CliqueSet:
    """All subsets of size >= 2 of every maximal clique, deduplicated."""
    return CliqueSet(frozenset(_sub_cliques(tree.maximal_cliques())))


def clique_family(maximal_cliques) -> list[tuple[int, ...]]:
    """Every nonempty subset of the given cliques once, sorted by size and
    then by vertices: the subset-closed family the cliques' scores read.

    Raises GuardLimitError, before listing any subset, when the cliques'
    subsets counted with repeats pass WEIGHT_DOMAIN_GUARD.
    """
    cliques = [tuple(sorted(mc)) for mc in maximal_cliques]
    bound = sum(2 ** len(mc) - 1 for mc in cliques)
    if bound > WEIGHT_DOMAIN_GUARD:
        raise GuardLimitError(
            f"clique family too large: the subsets of {len(cliques)} maximal "
            f"cliques number up to {bound}, over {WEIGHT_DOMAIN_GUARD}")
    return sorted(set(_sub_cliques(cliques, 1)), key=lambda h: (len(h), h))


def ktree_edges(tree: KTree) -> frozenset[tuple[int, int]]:
    """Edge set of the k-tree graph as sorted vertex pairs."""
    edges: set[tuple[int, int]] = set()
    for mc in tree.maximal_cliques():
        edges.update(itertools.combinations(mc, 2))
    return frozenset(edges)


def clique_total(maximal_cliques, wf) -> float:
    """Total weight of the cliques of size >= 2 inside the given cliques.

    Each clique counts once however many of the given cliques contain it;
    the terms are summed in lexicographic order of the sorted cliques. Each
    given clique is checked against the weight domain once, so its
    sub-cliques are read directly.
    """
    maximal_cliques = [tuple(sorted(mc)) for mc in maximal_cliques]
    for mc in maximal_cliques:
        wf.require(mc)
    subs = _sub_cliques(maximal_cliques)
    if len(maximal_cliques) > 1:  # one clique repeats no subset
        subs = set(subs)
    get = wf.weights.get
    return float(sum(get(h, 0.0) for h in sorted(subs)))


def score(tree: KTree, wf) -> float:
    """Total weight of all cliques of size >= 2 (singletons excluded)."""
    return clique_total(tree.maximal_cliques(), wf)


def ktree_from_cliques(maximal_cliques, k: int, n: int) -> KTree:
    """The k-tree with the given maximal cliques, listed in any order.

    The inverse of ``KTree.maximal_cliques``: the first clique is the seed,
    and every other clique attaches its one new vertex to the k-subset it
    shares with a placed clique. For n <= k+1 the tree is the one clique.
    """
    if n <= k + 1:
        return KTree(k=k, n=n, seed=tuple(range(n)))
    seed, *rest = (tuple(sorted(c)) for c in maximal_cliques)
    holders: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for c in rest:
        for s in itertools.combinations(c, k):
            holders.setdefault(s, []).append(c)
    placed = set(seed)
    attachments = []
    anchors = list(itertools.combinations(seed, k))
    while anchors:
        anchor = anchors.pop()
        for c in holders.pop(anchor, ()):
            (v,) = set(c).difference(anchor)
            if v not in placed:
                placed.add(v)
                attachments.append((v, anchor))
                anchors.extend(s for s in itertools.combinations(c, k) if v in s)
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
        k=json_int(doc["k"], "k"),
        n=json_int(doc["n"], "n"),
        seed=tuple(json_int(v, "seed") for v in doc["seed"]),
        attachments=tuple(
            (json_int(a["v"], "v"),
             tuple(json_int(x, "anchor") for x in a["anchor"]))
            for a in doc.get("attachments", [])
        ),
    )


def load_ktree(source) -> KTree:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_ktree(fh)
    return ktree_from_dict(json.load(source))
