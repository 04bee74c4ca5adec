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

Import names from their module (``from hypertree.solvers import greedy``);
importing the package itself loads none of them. The combinatorial core
(``weights``, ``structure``, ``solvers``) does not import NumPy.
"""

__version__ = "0.1.0"
