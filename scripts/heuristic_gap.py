"""Measure how close the greedy and local-search solvers get to the exact
optimum on random weight instances.

Usage:
    python scripts/heuristic_gap.py [--instances N] [--n-max N] [--k K]
                                    [--neg-frac F] [--seed S]

Prints one row per instance and summary statistics of the score ratios. No
approximation bound is asserted; this is an empirical report.
"""

import argparse
import itertools

import numpy as np

from hypertree.solvers import exact_search, greedy, local_search
from hypertree.weights import WeightFunction


def random_instance(rng, n, k, neg):
    lo = -0.4 if neg else 0.0
    w = {h: float(rng.uniform(lo, 1.0))
         for size in range(2, k + 2)
         for h in itertools.combinations(range(n), size)}
    return WeightFunction(k=k, n=n, weights=w)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instances", type=int, default=40)
    ap.add_argument("--n-max", type=int, default=8)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--neg-frac", type=float, default=0.2,
                    help="fraction of instances with negative higher-order weights")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    greedy_ratios, local_ratios = [], []
    print(f"{'inst':>4} {'n':>3} {'exact':>10} {'greedy':>10} {'local':>10} "
          f"{'g/e':>7} {'l/e':>7}")
    for i in range(args.instances):
        n = int(rng.integers(args.k + 2, args.n_max + 1))
        neg = rng.random() < args.neg_frac
        wf = random_instance(rng, n, args.k, neg)
        ex = exact_search(wf, exact_limit=args.n_max)
        g = greedy(wf)
        loc = local_search(wf, g.tree)
        if ex.score > 1e-9 and g.score >= 0:
            greedy_ratios.append(g.score / ex.score)
            local_ratios.append(loc.score / ex.score)
            ge, le = greedy_ratios[-1], local_ratios[-1]
            print(f"{i:>4} {n:>3} {ex.score:>10.4f} {g.score:>10.4f} "
                  f"{loc.score:>10.4f} {ge:>7.4f} {le:>7.4f}")
        else:
            print(f"{i:>4} {n:>3} {ex.score:>10.4f} {g.score:>10.4f} "
                  f"{loc.score:>10.4f} {'-':>7} {'-':>7}")

    if greedy_ratios:
        print(f"\ngreedy/exact: mean {np.mean(greedy_ratios):.4f}, "
              f"min {np.min(greedy_ratios):.4f} over {len(greedy_ratios)} instances")
        print(f"local/exact:  mean {np.mean(local_ratios):.4f}, "
              f"min {np.min(local_ratios):.4f}")


if __name__ == "__main__":
    main()
