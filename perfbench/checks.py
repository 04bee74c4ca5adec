"""Output checks for the benchmark's CLI invocations.

Weights, scores and divergences are recomputed here from the input files with
NumPy, by the inclusion-exclusion entropy sum, independently of the package's
weight code. Each check raises ``CheckError`` with the reason on failure.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from hypertree import solvers, weights
from hypertree.structure import KTree

TOL = 1e-9


class CheckError(Exception):
    pass


def _ensure(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class DataOracle:
    """Plug-in entropies and clique weights of a CSV file's rows."""

    def __init__(self, path):
        self.rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64,
                               ndmin=2)
        self.n_rows, self.n = self.rows.shape
        self._dims = tuple(int(m) for m in self.rows.max(axis=0) + 1)
        self._h: dict[tuple[int, ...], float] = {}

    @staticmethod
    def _entropy(counts: np.ndarray, total: int) -> float:
        p = counts[counts > 0] / total
        return float(-(p * np.log(p)).sum())

    def entropy(self, scope: tuple[int, ...]) -> float:
        got = self._h.get(scope)
        if got is None:
            dims = tuple(self._dims[v] for v in scope)
            codes = np.ravel_multi_index(tuple(self.rows[:, v] for v in scope),
                                         dims)
            got = self._entropy(np.bincount(codes), self.n_rows)
            self._h[scope] = got
        return got

    def weight(self, h: tuple[int, ...]) -> float:
        """w(h) = -sum over nonempty h' in h of (-1)^(|h|-|h'|) H(h')."""
        total = 0.0
        for size in range(1, len(h) + 1):
            sign = (-1) ** (len(h) - size)
            for sub in itertools.combinations(h, size):
                total -= sign * self.entropy(sub)
        return total

    def baseline_divergence(self) -> float:
        """Sum of singleton entropies minus the joint entropy."""
        _, counts = np.unique(self.rows, axis=0, return_counts=True)
        singles = sum(self.entropy((v,)) for v in range(self.n))
        return singles - self._entropy(counts, self.n_rows)


def weight_table(doc: dict) -> dict[tuple[int, ...], float]:
    """Weights of a weight file by sorted subset; absent subsets weigh 0."""
    return {tuple(sorted(e["vars"])): float(e["w"]) for e in doc["weights"]}


def cliques(tree: KTree) -> set[tuple[int, ...]]:
    """All cliques of size >= 2 of a k-tree."""
    out: set[tuple[int, ...]] = set()
    for mc in tree.maximal_cliques():
        for size in range(2, len(mc) + 1):
            out.update(itertools.combinations(mc, size))
    return out


def structure(doc: dict, n: int, k: int) -> KTree:
    """The document as a valid KTree spanning n vertices at width k."""
    try:
        tree = KTree(k=int(doc["k"]), n=int(doc["n"]), seed=tuple(doc["seed"]),
                     attachments=tuple((int(a["v"]), tuple(a["anchor"]))
                                       for a in doc.get("attachments", [])))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"structure does not parse as a k-tree: {exc}") from None
    _ensure((tree.n, tree.k) == (n, k),
            f"structure has n={tree.n}, k={tree.k}; expected n={n}, k={k}")
    return tree


def _close(got, want: float, what: str) -> None:
    _ensure(isinstance(got, (int, float)) and abs(got - want) <= TOL,
            f"{what} is {got}, recomputed {want}")


def learn_from_data(doc: dict, oracle: DataOracle, k: int) -> None:
    tree = structure(doc, oracle.n, k)
    score = sum(oracle.weight(h) for h in sorted(cliques(tree)))
    _close(doc.get("score"), score, "score")
    _close(doc.get("divergence_decomposed"),
           oracle.baseline_divergence() - score, "divergence_decomposed")


def learn_from_weights(doc: dict, wdoc: dict) -> None:
    tree = structure(doc, int(wdoc["n"]), int(wdoc["k"]))
    table = weight_table(wdoc)
    score = sum(table.get(h, 0.0) for h in sorted(cliques(tree)))
    _close(doc.get("score"), score, "score")


def solver_dominance(exact_doc: dict, wdoc: dict) -> None:
    """exact >= local >= greedy, with greedy and local run in process."""
    wf = weights.weights_from_dict(wdoc)
    greedy = solvers.greedy(wf)
    local = solvers.local_search(wf, greedy.tree)
    exact = exact_doc.get("score")
    _ensure(isinstance(exact, float) and exact >= local.score - TOL
            and local.score >= greedy.score - TOL,
            f"solver order broken: exact {exact}, local {local.score}, "
            f"greedy {greedy.score}")


def _bias_to_weight(b: float) -> float:
    return 0.5 * ((1.0 + b) * math.log1p(b) + (1.0 - b) * math.log1p(-b))


def gen_parity(prov: dict, oracle: DataOracle) -> None:
    """Induced weights match the provenance biases; pairs carry nothing."""
    n, k, q = int(prov["n"]), int(prov["k"]), int(prov["Q"])
    _ensure(prov.get("rows") == oracle.n_rows,
            f"provenance rows {prov.get('rows')} != CSV rows {oracle.n_rows}")
    _ensure(oracle.n == n, f"sample has {oracle.n} columns, provenance n={n}")
    p = {tuple(e["vars"]): int(e["p"]) for e in prov["biases"]}
    n_sets = math.comb(n, k + 1)
    for h in itertools.combinations(range(n), k + 1):
        want = _bias_to_weight((p.get(h, 0) / q) / n_sets)
        _close(oracle.weight(h), want, f"induced weight of {h}")
    for size in range(2, k + 1):
        for h in itertools.combinations(range(n), size):
            _close(oracle.weight(h), 0.0, f"induced weight of {h}")


def evaluation(report: dict, learned: dict, oracle: DataOracle, k: int) -> None:
    tree = structure(learned, oracle.n, k)
    _ensure((report.get("n"), report.get("k")) == (oracle.n, k),
            "report n/k do not match the structure")
    score = sum(oracle.weight(h) for h in sorted(cliques(tree)))
    _close(report.get("score"), score, "eval score")
    _close(report.get("divergence_decomposed"),
           oracle.baseline_divergence() - score, "eval divergence_decomposed")
    residual = report.get("identity_residual")
    _ensure(isinstance(residual, float) and residual <= TOL,
            f"identity_residual {residual} > {TOL}")


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot read {path}: {exc}") from None
