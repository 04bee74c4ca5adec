"""Projecting a target distribution onto the Markov networks of a k-tree.

The projected distribution keeps every clique marginal of the target and
factors into per-clique tables computed bottom-up over the tree's
``clique_family`` (singletons included), the family whose weights score it:
each clique's factor is its target marginal, from ``dataset.count_tables``,
over the product of the factors of its proper subsets. The model keeps the
log tables of all cliques' factors, not folded into maximal cliques, so a
factor depends only on the marginal inside it and is reusable across
structures; only the model dump forms a factor itself. The same marginals
give the clique totals; w(h), the expected log of h's factor, is dumped.

Divergence from the target is available through two routes: the decomposed
form (baseline divergence, its singleton entropies read from the weights,
minus the structure's total clique weight) and a direct sum over the
target's distinct rows, which checks it. On the target itself, the log
likelihood per unit weight is minus the joint entropy minus the direct sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import dataset as ds
from .errors import write_json
from .structure import KTree, clique_family, ktree_to_dict, score
from .weights import WeightFunction, weights_from_entropies

__all__ = [
    "ProjectedModel",
    "project",
    "log_likelihood",
    "divergence_decomposed",
    "divergence_direct",
    "model_to_dict",
    "dump_model",
]


@dataclass(frozen=True, eq=False)
class ProjectedModel:
    """A k-tree structure with per-clique factors and clique weights.

    ``factors`` holds each family subset's log factor table (-inf at a zero
    marginal), in ``clique_family`` order: by size, then by vertices.
    """

    tree: KTree
    arities: tuple[int, ...]
    factors: dict[tuple[int, ...], np.ndarray]
    weights: WeightFunction


def project(provider, tree: KTree) -> ProjectedModel:
    """Project a provider's distribution onto a k-tree, weighing its cliques.

    Each factor's log table is log p_h minus the log tables of h's proper
    subsets, so no product of sub-factors is formed, and a factor outside
    the float range is still kept. A zero marginal's cells are -inf; no
    positive marginal reads them, as marginals of one distribution agree.
    """
    n = provider.n_vars
    if tree.n != n:
        raise ValueError(f"tree spans {tree.n} vertices, provider has {n}")
    family = clique_family(tree.maximal_cliques())
    factors: dict[tuple[int, ...], np.ndarray] = {}
    entropies = []
    for h, counts in ds.count_tables(provider, family):
        probs = counts / provider.n_rows
        entropies.append((h, ds.entropy(probs)))
        with np.errstate(divide="ignore", invalid="ignore"):
            log = np.log(probs)  # -inf at a zero marginal
            for size in range(1, len(h)):
                for sub in itertools.combinations(h, size):  # broadcast
                    log = log - factors[sub].reshape(
                        [m if v in sub else 1 for v, m in zip(h, probs.shape)])
        factors[h] = np.where(probs > 0, log, -np.inf)  # not -inf - -inf: NaN
    return ProjectedModel(tree, tuple(provider.arities), factors,
                          weights_from_entropies(tree.k, n, entropies))


def _row_log_probs(model: ProjectedModel, data: ds.Dataset) -> np.ndarray:
    """The model's log probability of each distinct row of data, the sum of
    its cells in the log tables in their order; -inf where a factor is 0."""
    if data.arities != model.arities:
        raise ValueError(
            f"dataset arities {data.arities} do not match model arities "
            f"{model.arities}"
        )
    logp = np.zeros(len(data.rows))
    for h, log in model.factors.items():
        logp += log[tuple(data.rows[:, i] for i in h)]
    return logp


def log_likelihood(model: ProjectedModel, data: ds.Dataset) -> float:
    """Total log likelihood of a dataset under the model, each distinct row
    weighted by its count.

    -inf as soon as any row hits a zero factor. On the training set,
    this equals the total weight times the sum of all clique weights
    including singletons.
    """
    return float((data.counts * _row_log_probs(model, data)).sum())


def divergence_decomposed(provider, wf, tree: KTree) -> float:
    """Divergence to the tree's model class: baseline minus structure score.

    The baseline is the divergence to the fully independent model, i.e. the
    sum of singleton entropies, each read from wf as -w((v,)), minus the
    joint entropy, a sum over distinct rows, so this works at any n. An
    absent singleton weighs 0. A tree over the first m < n vertices leaves
    the others independent; weights over other than n vertices are refused.
    """
    n = provider.n_vars
    if wf.n != n:
        raise ValueError(f"weights span {wf.n} vertices, provider has {n}")
    if tree.n > n:
        raise ValueError(f"tree spans {tree.n} vertices, provider has {n}")
    base = sum(-wf[(v,)] for v in range(n)) - provider.joint_entropy
    return float(base - score(tree, wf))


def divergence_direct(data: ds.Dataset, model: ProjectedModel) -> float:
    """Direct KL divergence from the target to the projected model, summed
    over the target's distinct rows; the oracle for divergence_decomposed."""
    logq = _row_log_probs(model, data)
    if np.isneginf(logq).any():
        raise RuntimeError("model assigns zero probability inside the target support")
    p = data.counts / data.n_rows
    return float((p * (np.log(p) - logq)).sum())


def model_to_dict(model: ProjectedModel) -> dict:
    """Serializable model document: structure plus row-major factor tables,
    the exp of the log tables; a factor outside the float range is refused."""
    doc = ktree_to_dict(model.tree)
    doc["arities"] = list(model.arities)
    doc["factors"] = []
    for h, log in model.factors.items():
        with np.errstate(over="ignore"):
            phi = np.exp(log)
        over = np.isinf(phi).any()
        if over or (phi[log > -np.inf] == 0).any():  # a positive cell lost
            flows = "overflows" if over else "underflows"
            raise RuntimeError(f"the factor of clique {h} {flows} the "
                               "float range")
        doc["factors"].append({"vars": list(h), "table": phi.ravel().tolist()})
    return doc


def dump_model(model: ProjectedModel, path) -> None:
    """Write the model document to path; a refused factor opens no file."""
    write_json(model_to_dict(model), path)
