"""End-to-end reverse reduction demo.

Draw a random non-negative weight target on (k+1)-subsets, realize it as
rational parity biases, generate the pooled sample, recompute weights from
the sample, and solve both the intended and the induced instance exactly
and with greedy and local search (from greedy's tree). Reports each
instance's three scores, the per-subset rounding error and whether the
optimal structure survived the trip.

Usage:
    python scripts/reverse_pipeline.py [--n N] [--k K] [--q-grid Q] [--seed S]
"""

import argparse
import itertools

import numpy as np

from hypertree.paritygen import generate, realize_weights
from hypertree.solvers import exact_search, greedy, local_search
from hypertree.structure import ktree_edges
from hypertree.weights import WeightFunction, compute_weights


def scores(wf, best, digits):
    """Greedy's and local search's (from greedy's tree) scores on wf,
    beside exact's, best."""
    g = greedy(wf)
    local = local_search(wf, g.tree)
    return (f"greedy {g.score:.{digits}f}, local {local.score:.{digits}f}, "
            f"exact {best.score:.{digits}f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--q-grid", type=int, default=128)
    ap.add_argument("--density", type=float, default=0.4,
                    help="fraction of (k+1)-subsets given a nonzero target")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    n, k = args.n, args.k
    subsets = list(itertools.combinations(range(n), k + 1))
    targets = {h: float(rng.integers(1, 8)) / 8.0
               for h in subsets if rng.random() < args.density}
    if not targets:
        targets = {subsets[0]: 0.5}
    print(f"targets on {len(targets)}/{len(subsets)} subsets of size {k + 1}")

    intended = WeightFunction(k=k, n=n, weights=targets)
    want = exact_search(intended)
    print(f"intended optimum: score {want.score:.4f}, "
          f"edges {sorted(ktree_edges(want.tree))}")
    print(f"intended scores:  {scores(intended, want, 4)}")

    rep = realize_weights(targets, n=n, k=k, q_grid=args.q_grid)
    sample = generate(rep.biases)
    print(f"scale c = {rep.scale:.3e}, sample rows = {sample.dataset.n_rows}, "
          f"total |rounding error| = {rep.total_abs_error:.3e}")

    induced = compute_weights(sample.dataset, k)
    got = exact_search(induced)
    print(f"induced optimum:  score {got.score:.6f}, "
          f"edges {sorted(ktree_edges(got.tree))}")
    print(f"induced scores:   {scores(induced, got, 6)}")

    worst = max(rep.per_set_error, key=lambda h: abs(rep.per_set_error[h]))
    print(f"worst per-set error: {rep.per_set_error[worst]:.3e} on {worst}")
    same = ktree_edges(got.tree) == ktree_edges(want.tree)
    print("structure preserved" if same else "structure changed (error above gap)")


if __name__ == "__main__":
    main()
