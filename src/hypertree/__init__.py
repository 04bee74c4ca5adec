"""Bounded tree-width Markov network learning via maximum-weight k-trees.

Modules:
    dataset     categorical data, exact marginals and entropies
    weights     clique weight functions on vertex subsets
    structure   k-trees, chordality and width verification
    solvers     Chow-Liu, exact, greedy and local-search structure solvers
    projection  projected models, divergences, log likelihood
    paritygen   samples realizing prescribed clique weights via parity biases
    cli         command-line front end
"""

from .dataset import (
    Dataset,
    JointTable,
    MarginalTable,
    VariableSpec,
    entropy,
    joint_entropy,
    load_dataset,
    load_joint_table,
    marginal,
    mutual_information,
)
from .errors import GuardLimitError
from .paritygen import (
    ParitySample,
    TargetBiases,
    bias_to_weight,
    generate,
    realize_weights,
    weight_to_bias,
)
from .projection import (
    NEG_INFINITY,
    ProjectedModel,
    divergence_decomposed,
    divergence_direct,
    log_likelihood,
    project,
)
from .solvers import SolverResult, chow_liu, exact_search, greedy, local_search
from .structure import (
    KTree,
    cliques_of,
    ktree_from_graph,
    score,
    verify_width,
)
from .weights import (
    WeightFunction,
    attachment_gain,
    compute_weights,
)

__version__ = "0.1.0"
