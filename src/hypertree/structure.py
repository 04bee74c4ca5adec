"""Width-k triangulated graphs encoded as k-tree construction sequences.

A KTree starts from a seed clique of min(k+1, n) vertices and attaches the
remaining vertices one at a time, each to a k-subset of an existing clique.
Every graph built this way is chordal with maximum clique size k+1, and every
maximal triangulated graph of tree-width k arises this way. The solvers build
their k-trees clique by clique, and ``ktree_from_cliques`` encodes a list of
maximal cliques, in any order, as a construction sequence. ``score`` is
``weights.clique_total``: its cliques' totals less its separators'.
"""

import itertools
import math
from dataclasses import dataclass, field

from .errors import (WEIGHT_DOMAIN_GUARD, GuardLimitError, attached, json_int,
                     json_list, read_json, vertex_subset)
from .weights import clique_total

__all__ = [
    "KTree",
    "CliqueSet",
    "cliques_of",
    "clique_family",
    "ktree_edges",
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
    _cliques: tuple[tuple[int, ...], ...] = field(
        default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"width k must be >= 1, got {self.k}")
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        want = min(self.k + 1, self.n)
        seed = vertex_subset(self.seed, self.n, range(want, want + 1), "seed: ")
        object.__setattr__(self, "seed", tuple(map(int, seed)))
        # Edges only ever join a new vertex to its anchor, so a k-subset lies
        # inside an existing clique exactly when it lies inside the clique
        # made when its last-placed vertex was placed.
        step = dict.fromkeys(self.seed, 0)
        made = [self.seed]
        attachments = []
        size = range(self.k + 1, self.k + 2)
        for pair in self.attachments:
            try:
                v, anchor = pair
            except (TypeError, ValueError):
                raise ValueError(f"attachment {pair!r} is not a (vertex, "
                                 "anchor) pair") from None
            anchor, clique = attached(v, anchor)
            clique = tuple(map(int, vertex_subset(
                clique, self.n, size, f"vertex {v!r} attached to {anchor}: ")))
            v = int(v)
            anchor = tuple(a for a in clique if a != v)
            if v in step:
                raise ValueError(f"vertex {v} attached twice")
            if not (all(a in step for a in anchor) and set(anchor).issubset(
                    made[max(step[a] for a in anchor)])):
                raise ValueError(
                    f"anchor {anchor} for vertex {v} is not inside any "
                    "existing clique"
                )
            step[v] = len(made)
            made.append(clique)
            attachments.append((v, anchor))
        object.__setattr__(self, "attachments", tuple(attachments))
        object.__setattr__(self, "_cliques", tuple(made))
        if len(step) != self.n:
            first = next(v for v in range(self.n) if v not in step)
            raise ValueError(f"{self.n - len(step)} vertices not placed, "
                             f"the first is {first}")

    def maximal_cliques(self) -> tuple[tuple[int, ...], ...]:
        """The seed, then each attachment's sorted clique, kept at init."""
        return self._cliques


@dataclass(frozen=True)
class CliqueSet:
    """All cliques of sizes 2..k+1 of a k-tree, deduplicated."""

    cliques: frozenset[tuple[int, ...]]


def cliques_of(tree: KTree) -> CliqueSet:
    """All subsets of size >= 2 of every maximal clique, deduplicated: the
    ``clique_family`` without its singletons, so under its guard."""
    family = clique_family(tree.maximal_cliques())
    return CliqueSet(frozenset(h for h in family if len(h) >= 2))


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
    return sorted({h for mc in cliques for size in range(1, len(mc) + 1)
                   for h in itertools.combinations(mc, size)},
                  key=lambda h: (len(h), h))


def ktree_edges(tree: KTree) -> frozenset[tuple[int, int]]:
    """Edge set of the k-tree graph as sorted vertex pairs."""
    edges: set[tuple[int, int]] = set()
    for mc in tree.maximal_cliques():
        edges.update(itertools.combinations(mc, 2))
    return frozenset(edges)


def score(tree: KTree, wf) -> float:
    """Total weight of all cliques of size >= 2; ValueError if not finite."""
    total = clique_total(tree.maximal_cliques(), wf)
    if not math.isfinite(total):
        raise ValueError(f"k-tree score is not finite: {total}; its clique "
                         "totals sum past the float range")
    return total


def ktree_from_cliques(maximal_cliques, k: int, n: int) -> KTree:
    """The inverse of ``KTree.maximal_cliques``: the k-tree with the given
    maximal cliques, listed in any order, each clique sorted, as that method
    gives them. The first clique is the seed, and every other clique
    attaches its one new vertex to the k-subset it shares with a placed
    clique. One clique is the seed alone, whatever k.
    """
    seed, *rest = maximal_cliques
    if not rest:  # k may pass the seed's size, with no k-subset to list
        return KTree(k=k, n=n, seed=seed)
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
                anchors.extend(s for s in itertools.combinations(c, k)
                               if v in s)
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
    k, n = json_int(doc["k"], "k"), json_int(doc["n"], "n")
    seed = tuple(json_list(doc["seed"], "seed"))
    attachments = []
    for a in json_list(doc.get("attachments", []), "attachments"):
        if not isinstance(a, dict):
            raise TypeError(f"'attachments' must list objects, got "
                            f"{type(a).__name__}")
        attachments.append((a["v"], tuple(json_list(a["anchor"], "anchor"))))
    return KTree(k=k, n=n, seed=seed, attachments=tuple(attachments))


def load_ktree(path) -> KTree:
    """Read a structure file; a malformed one is refused naming the path."""
    return read_json(path, ktree_from_dict)
