"""Bounded tree-width Markov network learning via maximum-weight k-trees.

Modules:
    dataset     target distributions as distinct weighted rows, exact
                marginals and entropies
    weights     clique weight functions on vertex subsets
    structure   k-trees, their cliques and scores
    solvers     Chow-Liu, exact, greedy and local-search structure solvers
    projection  projected models, divergences, log likelihood
    paritygen   samples realizing prescribed clique weights via parity biases
    cli         command-line front end

The names below are loaded from their module on first use, so importing the
package costs only what the caller touches: the combinatorial core
(``weights``, ``structure``, ``solvers``) does not import NumPy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "dataset": (
        "Dataset",
        "VariableSpec",
        "entropy",
        "joint_entropy",
        "load_dataset",
        "marginal",
    ),
    "errors": ("GuardLimitError",),
    "paritygen": (
        "ParitySample",
        "TargetBiases",
        "bias_to_weight",
        "generate",
        "realize_weights",
        "weight_to_bias",
    ),
    "projection": (
        "NEG_INFINITY",
        "ProjectedModel",
        "divergence_decomposed",
        "divergence_direct",
        "log_likelihood",
        "project",
    ),
    "solvers": ("SolverResult", "chow_liu", "exact_search", "greedy", "local_search"),
    "structure": ("KTree", "cliques_of", "score"),
    "weights": ("WeightFunction", "attachment_gain", "compute_weights"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
