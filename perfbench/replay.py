"""Traced in-process replay of the CLI commands a workload runs.

Each ``replay_*`` function makes the same calls into the public functions of
``dataset``, ``weights``, ``solvers``, ``structure``, ``projection`` and
``paritygen`` that the matching ``hypertree.cli`` command makes, in the same
order, and wraps every call in a span. The spans come from this file only;
nothing inside the package is instrumented. Time the CLI spends outside these
calls (argument parsing, its private helpers) has no span and shows up in
``cli.unattributed_s``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

import numpy as np

from hypertree import dataset as ds
from hypertree import paritygen, projection, solvers, structure, weights


class Tracer:
    """In-memory spans and counters for one replay pass.

    A span is (id, parent id, name, start, end); spans opened inside another
    span get it as parent. Counters add up under their name.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def layer_seconds(self) -> dict[str, float]:
        """Summed self time per span name (duration minus child spans)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            self_s = s["end"] - s["start"] - child[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + self_s
        return out

    def leaf_total(self) -> float:
        """Time covered by the layer spans inside the per-command spans."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] is not None)

    def top_total(self) -> float:
        """Time covered by the per-command spans."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] is None)


def _write_json(t: Tracer, doc: dict, out_path: str) -> None:
    with t.span("cli.json_out"):
        text = json.dumps(doc, indent=2) + "\n"
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_data(t: Tracer, path: str):
    with t.span("dataset.load"):
        provider = ds.load_dataset(path)
    t.add("dataset.rows", provider.n_rows)
    t.add("dataset.distinct_rows", len(np.unique(provider.rows, axis=0)))
    return provider


def _compute_weights(t: Tracer, provider, k: int):
    with t.span("weights.compute"):
        wf = weights.compute_weights(provider, k)
    t.add("weights.subsets", len(wf.weights))
    return wf


def replay_learn(t: Tracer, input_path: str, out_path: str, k: int | None,
                 solver: str, exact_limit: int | None = None) -> dict:
    """Replay ``hypertree learn`` for the local and exact solvers."""
    with t.span("cmd.learn"):
        provider = None
        if input_path.endswith(".json"):
            with t.span("weights.file_load"):
                wf = weights.load_weights(input_path)
        else:
            provider = _load_data(t, input_path)
            wf = _compute_weights(t, provider, k)
        if solver == "exact":
            with t.span("solvers.exact"):
                result = solvers.exact_search(wf, exact_limit=exact_limit)
            t.add("solvers.exact_states", result.stats["nodes_explored"])
        elif solver == "local":
            with t.span("solvers.greedy"):
                start = solvers.greedy(wf)
            t.add("solvers.greedy_evals", start.stats["nodes_explored"])
            with t.span("solvers.local"):
                result = solvers.local_search(wf, start.tree)
            iters = result.stats["iterations"]
            t.add("solvers.local_moves", result.stats["nodes_explored"])
            t.add("solvers.local_iterations", iters)
            # Every iteration but a final, non-improving one accepts a move.
            t.add("solvers.local_accepted",
                  iters if iters >= solvers.DEFAULT_MAX_ITERS else iters - 1)
        else:
            raise ValueError(f"replay has no solver {solver!r}")
        doc = structure.ktree_to_dict(result.tree)
        doc["score"] = result.score
        doc["method"] = result.method
        doc["stats"] = result.stats
        doc["log_base"] = "e"
        if provider is not None:
            with t.span("projection.divergence_decomposed"):
                doc["divergence_decomposed"] = projection.divergence_decomposed(
                    provider, wf, result.tree)
        else:
            doc["note"] = "divergence omitted: learned from a weight file, not data"
        _write_json(t, doc, out_path)
    return doc


def replay_eval(t: Tracer, data_path: str, structure_path: str, out_path: str,
                model_out: str) -> dict:
    """Replay ``hypertree eval DATA STRUCTURE --model-out MODEL``."""
    with t.span("cmd.eval"):
        provider = _load_data(t, data_path)
        tree = structure.load_ktree(structure_path)
        wf = _compute_weights(t, provider, tree.k)
        with t.span("projection.project"):
            model = projection.project(provider, tree)
        t.add("projection.factors", len(model.factors))
        with t.span("structure.score"):
            score = structure.score(tree, wf)
        cliques = len(structure.cliques_of(tree).cliques)
        t.add("structure.cliques", cliques)
        t.add("weights.used", cliques)
        t.add("weights.non_singleton", sum(1 for h in wf.weights if len(h) > 1))
        report = {"k": tree.k, "n": tree.n, "log_base": "e", "score": score}
        with t.span("projection.divergence_decomposed"):
            report["divergence_decomposed"] = projection.divergence_decomposed(
                provider, wf, tree)
        with t.span("projection.divergence_direct"):
            direct = projection.divergence_direct(provider, model)
        report["divergence_direct"] = direct
        report["identity_residual"] = abs(direct - report["divergence_decomposed"])
        with t.span("projection.log_likelihood"):
            ll = projection.log_likelihood(model, provider)
        report["loglik_per_row"] = ll / provider.n_rows
        with t.span("projection.dump_model"):
            projection.dump_model(model, model_out)
        _write_json(t, report, out_path)
    return report


def replay_gen_parity(t: Tracer, spec_path: str, out_path: str) -> dict:
    """Replay ``hypertree gen-parity TARGETS --out SAMPLE`` for a target file."""
    with t.span("cmd.gen_parity"):
        with open(spec_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        targets = {tuple(e["vars"]): float(e["w"]) for e in doc["targets"]}
        with t.span("paritygen.realize"):
            realization = paritygen.realize_weights(
                targets, n=int(doc["n"]), k=int(doc["k"]),
                q_grid=int(doc["q_grid"]), scale=doc.get("scale"))
        tb = realization.biases
        with t.span("paritygen.generate"):
            sample = paritygen.generate(tb)
        rows = sample.dataset.rows
        t.add("paritygen.rows", rows.shape[0])
        t.add("paritygen.rows_mb", rows.shape[0] * rows.shape[1]
              * rows.dtype.itemsize / 1e6)
        t.add("paritygen.blocks", len(sample.block_log))
        with t.span("dataset.dump"):
            ds.dump_dataset(sample.dataset, out_path)
        t.add("dataset.csv_mb", os.path.getsize(out_path) / 1e6)
        with t.span("cli.json_out"):
            prov = paritygen.biases_to_dict(tb)
            prov["rows"] = sample.dataset.n_rows
            prov["rows_per_block"] = 1 << tb.n
            prov["block_log"] = [
                {"vars": list(h), "block": b, "parity_fixed": fixed}
                for h, b, fixed in sample.block_log
            ]
            prov["scale"] = realization.scale
            prov["per_set_error"] = [
                {"vars": list(h), "e": e}
                for h, e in sorted(realization.per_set_error.items())
            ]
            prov["total_abs_error"] = realization.total_abs_error
            text = json.dumps(prov, indent=2) + "\n"
            with open(out_path[:-4] + ".provenance.json", "w",
                      encoding="utf-8") as fh:
                fh.write(text)
    return prov
