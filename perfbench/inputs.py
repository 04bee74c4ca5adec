"""Seeded inputs for the benchmark workloads.

Everything a workload feeds to the CLI is built here from the workload seed
alone, with NumPy only (no ``hypertree`` import), so the same seed always
gives byte-identical files. ``build`` writes the files and returns their
paths, the parameters used and each file's sha256.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

# Sizes for the measured runs and for the smoke mode. "full" is sized so one
# command sequence takes a few seconds on a 2-core machine, which lets a run
# repeat it several times and report medians.
SIZES = {
    "full": {
        "csv_rows": 20_000, "csv_vars": 30, "csv_arity": 3, "csv_noise": 0.3,
        "solve_n": 60, "exact_n": 10,
        "parity_n": 8, "parity_q": 8, "parity_share": 0.4,
    },
    "smoke": {
        "csv_rows": 2_000, "csv_vars": 12, "csv_arity": 3, "csv_noise": 0.3,
        "solve_n": 14, "exact_n": 7,
        "parity_n": 6, "parity_q": 4, "parity_share": 0.4,
    },
}

K = 2


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def planted_rows(rng, rows: int, n: int, arity: int, noise: float):
    """Rows drawn from a planted width-2 model, plus its 2-tree.

    Variables 0 and 1 are uniform. Variable 2 and every later variable v
    attach to an edge (a, b) of the 2-tree built so far and take
    (x_a + x_b) mod arity, replaced by a uniform draw with probability
    ``noise``. Both parents are earlier variables, and the planted
    structure is a valid 2-tree, written out for reference.
    """
    x = np.empty((rows, n), dtype=np.int64)
    x[:, 0] = rng.integers(0, arity, rows)
    x[:, 1] = rng.integers(0, arity, rows)
    edges = [(0, 1)]
    attachments = []
    for v in range(2, n):
        a, b = edges[int(rng.integers(0, len(edges)))]
        clean = (x[:, a] + x[:, b]) % arity
        flip = rng.random(rows) < noise
        x[:, v] = np.where(flip, rng.integers(0, arity, rows), clean)
        edges += [(a, v), (b, v)]
        attachments.append({"v": v, "anchor": [a, b]})
    seed, rest = attachments[0], attachments[1:]
    structure = {
        "k": K, "n": n, "seed": sorted(seed["anchor"] + [seed["v"]]),
        "attachments": rest,
    }
    return x, structure


def random_weights(rng, n: int, lo: float = -0.2, hi: float = 1.0) -> dict:
    """A weight file with uniform(lo, hi) weights on every 2- and 3-subset.

    Singletons are omitted; the loader fills them with 0.
    """
    entries = []
    for size in (2, 3):
        subsets = list(itertools.combinations(range(n), size))
        values = rng.uniform(lo, hi, len(subsets))
        entries += [{"vars": list(h), "w": float(w)}
                    for h, w in zip(subsets, values)]
    return {"k": K, "n": n, "log_base": "e", "weights": entries}


def parity_targets(rng, n: int, q_grid: int, share: float) -> dict:
    """Non-negative weight targets on a random ``share`` of the triples."""
    triples = list(itertools.combinations(range(n), K + 1))
    chosen = rng.random(len(triples)) < share
    chosen[int(rng.integers(0, len(triples)))] = True  # never empty
    values = rng.uniform(0.05, 1.0, len(triples))
    targets = [{"vars": list(h), "w": float(w)}
               for h, w, c in zip(triples, values, chosen) if c]
    return {"k": K, "n": n, "q_grid": q_grid, "targets": targets}


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _write_csv(path: Path, rows: np.ndarray) -> None:
    header = ",".join(f"x{i}" for i in range(rows.shape[1]))
    body = "\n".join(",".join(map(str, r)) for r in rows.tolist())
    path.write_text(header + "\n" + body + "\n", encoding="utf-8")


def build(workload: str, seed: int, out_dir: Path, size: str = "full") -> dict:
    """Write the inputs of one workload; return paths, parameters and hashes.

    Each workload draws from its own stream, so a workload's inputs depend
    only on (workload, seed, size).
    """
    p = SIZES[size]
    stream = {"learn_csv": 0, "solve_weights": 1, "reverse_parity": 2}[workload]
    rng = np.random.default_rng([seed, stream])
    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}
    params: dict = {"k": K}
    if workload == "learn_csv":
        rows, planted = planted_rows(rng, p["csv_rows"], p["csv_vars"],
                                     p["csv_arity"], p["csv_noise"])
        files["data"] = out_dir / "data.csv"
        files["planted"] = out_dir / "planted.json"
        _write_csv(files["data"], rows)
        _write_json(files["planted"], planted)
        params.update(n=p["csv_vars"], rows=p["csv_rows"])
    elif workload == "solve_weights":
        files["w_big"] = out_dir / "w_big.json"
        files["w_exact"] = out_dir / "w_exact.json"
        _write_json(files["w_big"], random_weights(rng, p["solve_n"]))
        _write_json(files["w_exact"], random_weights(rng, p["exact_n"]))
        params.update(n=p["solve_n"], exact_n=p["exact_n"])
    elif workload == "reverse_parity":
        files["targets"] = out_dir / "targets.json"
        _write_json(files["targets"], parity_targets(
            rng, p["parity_n"], p["parity_q"], p["parity_share"]))
        params.update(n=p["parity_n"], q_grid=p["parity_q"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {
        "files": files,
        "params": params,
        "sha256": {name: sha256(path) for name, path in files.items()},
    }
