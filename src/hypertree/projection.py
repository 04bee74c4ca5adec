"""Projecting a target distribution onto the Markov networks of a k-tree.

The projected distribution keeps every clique marginal of the target and
factors into per-clique tables computed bottom-up over the subset-closed
clique family (singletons included): each clique's factor is its target
marginal divided by the product of the factors of its proper subsets. The
factors are stored for all cliques rather than folded into maximal cliques,
so a clique's factor depends only on the marginal inside it and is reusable
across structures.

Divergence from the target is available through two routes: the decomposed
form (baseline divergence minus the structure's total clique weight) and a
direct sum over the full joint, kept as an oracle for small problems.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataset as ds
from .errors import GuardLimitError
from .structure import KTree, cliques_of, ktree_to_dict, score

__all__ = [
    "NEG_INFINITY",
    "ProjectedModel",
    "project",
    "model_joint",
    "log_likelihood",
    "divergence_decomposed",
    "divergence_direct",
    "model_to_dict",
    "dump_model",
]

NEG_INFINITY = float("-inf")
JOINT_CELL_GUARD = 2 ** 20


@dataclass(frozen=True, eq=False)
class ProjectedModel:
    """A k-tree structure with per-clique factors."""

    tree: KTree
    arities: tuple[int, ...]
    factors: dict[tuple[int, ...], np.ndarray]


def _all_cliques_with_singletons(tree: KTree) -> list[tuple[int, ...]]:
    cliques = set(cliques_of(tree).cliques)
    cliques.update((v,) for v in range(tree.n))
    return sorted(cliques, key=lambda h: (len(h), h))


def _broadcast_shape(sub: tuple[int, ...], h: tuple[int, ...],
                     shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(shape[i] if h[i] in sub else 1 for i in range(len(h)))


def project(provider, tree: KTree) -> ProjectedModel:
    """Compute the projection of a provider's distribution onto a k-tree.

    Zero cells: a zero clique marginal forces a zero factor and the division
    is skipped. A zero sub-factor under a positive marginal is impossible for
    consistent marginals and raises.
    """
    n = provider.n_vars
    if tree.n != n:
        raise ValueError(f"tree spans {tree.n} vertices, provider has {n}")
    factors: dict[tuple[int, ...], np.ndarray] = {}
    for h in _all_cliques_with_singletons(tree):
        probs = ds.marginal(provider, h)
        shape = probs.shape
        denom = np.ones(shape)
        for size in range(1, len(h)):
            for sub in itertools.combinations(h, size):
                denom = denom * factors[sub].reshape(
                    _broadcast_shape(sub, h, shape)
                )
        pos = probs > 0
        if np.any(pos & (denom == 0)):
            raise RuntimeError(
                f"inconsistent marginals: zero sub-factor under a positive "
                f"marginal in clique {h}"
            )
        phi = np.where(pos, probs / np.where(denom == 0, 1.0, denom), 0.0)
        factors[h] = phi
    return ProjectedModel(
        tree=tree,
        arities=tuple(provider.arities),
        factors=factors,
    )


def model_joint(model: ProjectedModel) -> np.ndarray:
    """Full joint table of the model; refuses more than JOINT_CELL_GUARD cells."""
    cells = math.prod(model.arities)
    if cells > JOINT_CELL_GUARD:
        raise GuardLimitError(
            f"joint not enumerable ({cells} cells exceeds {JOINT_CELL_GUARD})")
    n = len(model.arities)
    table = np.ones(model.arities)
    for h, phi in model.factors.items():
        shape = tuple(model.arities[i] if i in h else 1 for i in range(n))
        table = table * phi.reshape(shape)
    return table


def log_likelihood(model: ProjectedModel, data: ds.Dataset) -> float:
    """Total log likelihood of a dataset under the model.

    NEG_INFINITY as soon as any row hits a zero factor. On the training set,
    this equals T times the sum of all clique weights including singletons.
    """
    if data.arities != model.arities:
        raise ValueError(
            f"dataset arities {data.arities} do not match model arities "
            f"{model.arities}"
        )
    total = np.zeros(data.n_rows)
    dead = np.zeros(data.n_rows, dtype=bool)
    for h in sorted(model.factors, key=lambda h: (len(h), h)):
        vals = model.factors[h][tuple(data.rows[:, i] for i in h)]
        zero = vals == 0.0
        dead |= zero
        total += np.where(zero, 0.0, np.log(np.where(zero, 1.0, vals)))
    if dead.any():
        return NEG_INFINITY
    return float(total.sum())


def divergence_decomposed(provider, wf, tree: KTree) -> float:
    """Divergence to the tree's model class: baseline minus structure score.

    The baseline is the divergence to the fully independent model, i.e. the
    sum of singleton entropies minus the joint entropy. For a Dataset the
    joint entropy is the exact plug-in value over distinct rows, so this
    works at any n.
    """
    base = sum(
        ds.scope_entropy(provider, (v,)) for v in range(provider.n_vars)
    ) - ds.joint_entropy(provider)
    return float(base - score(tree, wf))


def divergence_direct(provider, model: ProjectedModel) -> float:
    """Direct KL divergence from the target to the projected model.

    Enumerates the full joint, so it is guarded by ``model_joint``; serves
    as the oracle for divergence_decomposed.
    """
    arities = tuple(provider.arities)
    if arities != model.arities:
        raise ValueError("provider and model arities differ")
    phat = model_joint(model)
    if isinstance(provider, ds.JointTable):
        target = provider.probs
    else:
        target = np.zeros(arities)
        np.add.at(target, tuple(provider.rows.T), 1.0 / provider.n_rows)
    mask = target > 0
    if np.any(phat[mask] == 0):
        raise RuntimeError("model assigns zero probability inside the target support")
    t = target[mask]
    return float((t * (np.log(t) - np.log(phat[mask]))).sum())


def model_to_dict(model: ProjectedModel) -> dict:
    """Serializable model document: structure plus row-major factor tables."""
    doc = ktree_to_dict(model.tree)
    doc["arities"] = list(model.arities)
    doc["factors"] = [
        {"vars": list(h), "table": model.factors[h].ravel().tolist()}
        for h in sorted(model.factors, key=lambda h: (len(h), h))
    ]
    return doc


def dump_model(model: ProjectedModel, target) -> None:
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            dump_model(model, fh)
        return
    json.dump(model_to_dict(model), target, indent=2)
    target.write("\n")
