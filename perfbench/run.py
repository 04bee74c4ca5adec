#!/usr/bin/env python3
"""Benchmark of the hypertree command-line tool on three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout. The CLI under test is the working
tree's ``src/hypertree``, launched as ``python -m hypertree.cli`` with
``PYTHONPATH=src``, one child process at a time. A run builds the workload's
inputs from the seed, makes one untimed warm-up pass, times the set-up of a
bare ``--help`` several times, then repeats the workload's command sequence
until ``--seconds`` have passed. Times are means over the passes, set-up
time is the median of its samples.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` each pass is followed by a traced in-process replay of the same
commands (see replay.py) and the line carries the per-layer metrics. Every
output is checked (see checks.py); an invocation that exits non-zero or fails
a check counts in ``failed``. The line before the result holds run details:
input hashes, per-pass times, scores and failures. See README.md beside this
file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent

WORKLOADS = ("learn_csv", "solve_weights", "reverse_parity")
SETUP_SAMPLES = 7
CMD_TIMEOUT_S = 120.0
# Stop starting passes this long after the run began, whatever --seconds says.
RUN_BUDGET_S = 150.0


class Invocation:
    """One finished CLI child process."""

    def __init__(self, args, rc, wall_s, rss_mib, stdout, stderr):
        self.args, self.rc, self.wall_s = args, rc, wall_s
        self.rss_mib, self.stdout, self.stderr = rss_mib, stdout, stderr


def run_cli(args: list[str], log_dir: Path) -> Invocation:
    """Run ``python -m hypertree.cli ARGS`` on the checkout's sources.

    Peak RSS comes from ``os.wait4`` on this child alone; RUSAGE_CHILDREN
    would report the largest child reaped so far instead.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out_path, err_path = log_dir / "cli.stdout", log_dir / "cli.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "hypertree.cli", *args],
                                cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(args, proc.returncode, wall, usage.ru_maxrss / 1024,
                      out_path.read_text(errors="replace"),
                      err_path.read_text(errors="replace"))


def commands(workload: str, inp: dict, d: Path) -> list[tuple[str, list[str]]]:
    """The workload's CLI command sequence as (kind, arguments) pairs."""
    f = {name: str(path) for name, path in inp["files"].items()}
    k = str(inp["params"]["k"])
    if workload == "learn_csv":
        return [("learn", ["learn", f["data"], "--k", k, "--solver", "local",
                           "--out", str(d / "structure.json")])]
    if workload == "solve_weights":
        return [
            ("learn", ["learn", f["w_big"], "--solver", "local",
                       "--out", str(d / "big.json")]),
            ("learn", ["learn", f["w_exact"], "--solver", "exact",
                       "--exact-limit", str(inp["params"]["exact_n"]),
                       "--out", str(d / "exact.json")]),
        ]
    sample = str(d / "sample.csv")
    return [
        ("gen_parity", ["gen-parity", f["targets"], "--out", sample]),
        ("learn", ["learn", sample, "--k", k, "--solver", "exact",
                   "--out", str(d / "structure.json")]),
        ("eval", ["eval", sample, str(d / "structure.json"),
                  "--model-out", str(d / "model.json"),
                  "--out", str(d / "report.json")]),
    ]


class Checker:
    """Checks each pass's outputs; remembers verdicts by output content.

    Outputs are deterministic, so a later pass whose files hash the same as
    an already checked pass gets that verdict without recomputation.
    """

    def __init__(self, workload: str, inp: dict, d: Path):
        self.workload, self.inp, self.d = workload, inp, d
        self.k = inp["params"]["k"]
        self._verdicts: dict[tuple, str | None] = {}
        self._oracles: dict[str, object] = {}
        self._weights: dict[str, dict] = {}
        self.first: dict[str, float] = {}

    def planted_score(self) -> float | None:
        """Score of the planted 2-tree of learn_csv, for reference."""
        if "planted" not in self.inp["files"]:
            return None
        _, oracle = self._oracle(self.inp["files"]["data"])
        tree = checks.structure(checks.load_json(self.inp["files"]["planted"]),
                                oracle.n, self.k)
        return sum(oracle.weight(h) for h in sorted(checks.cliques(tree)))

    def _oracle(self, path: Path):
        digest = inputs.sha256(path)
        if digest not in self._oracles:
            self._oracles[digest] = checks.DataOracle(path)
        return digest, self._oracles[digest]

    def _verdict(self, key: tuple, check) -> str | None:
        if key not in self._verdicts:
            try:
                check()
                self._verdicts[key] = None
            except checks.CheckError as exc:
                self._verdicts[key] = str(exc)
        return self._verdicts[key]

    def _repeat(self, name: str, value) -> str | None:
        """Score and divergence must read the same on every pass."""
        want = self.first.setdefault(name, value)
        return None if value == want else f"{name} {value} != first pass {want}"

    def check_pass(self, invocations: list[Invocation]) -> list[str | None]:
        """One verdict per invocation: None when it passed."""
        d, f = self.d, self.inp["files"]
        out: list[str | None] = []
        for i, inv in enumerate(invocations):
            if inv.rc != 0:
                out.append(f"exit code {inv.rc}: {inv.stderr.strip()[-300:]}")
                continue
            try:
                out.append(self._check_one(i, d, f))
            except checks.CheckError as exc:
                out.append(str(exc))
            except Exception as exc:  # malformed output counts as a failure
                traceback.print_exc(file=sys.stderr)
                out.append(f"check raised {exc!r}")
        return out

    def _check_one(self, i: int, d: Path, f: dict) -> str | None:
        load, sha = checks.load_json, inputs.sha256
        if self.workload == "learn_csv":
            doc = load(d / "structure.json")
            digest, oracle = self._oracle(f["data"])
            return (self._verdict(
                ("learn", digest, sha(d / "structure.json")),
                lambda: checks.learn_from_data(doc, oracle, self.k))
                or self._repeat("score", doc.get("score"))
                or self._repeat("divergence", doc.get("divergence_decomposed")))
        if self.workload == "solve_weights":
            name, wkey = (("big.json", "w_big"), ("exact.json", "w_exact"))[i]
            doc = load(d / name)
            if wkey not in self._weights:
                self._weights[wkey] = load(f[wkey])
            wdoc = self._weights[wkey]

            def check():
                checks.learn_from_weights(doc, wdoc)
                if i == 1:
                    checks.solver_dominance(doc, wdoc)
            return (self._verdict((name, sha(d / name)), check)
                    or (self._repeat("score", doc.get("score")) if i == 0 else None))
        sample = d / "sample.csv"
        digest, oracle = self._oracle(sample)
        if i == 0:
            prov = load(d / "sample.provenance.json")
            return self._verdict(
                ("gen", digest, sha(d / "sample.provenance.json")),
                lambda: checks.gen_parity(prov, oracle))
        learned = load(d / "structure.json")
        if i == 1:
            return (self._verdict(
                ("learn", digest, sha(d / "structure.json")),
                lambda: checks.learn_from_data(learned, oracle, self.k))
                or self._repeat("score", learned.get("score")))
        report = load(d / "report.json")
        return (self._verdict(
            ("eval", digest, sha(d / "structure.json"), sha(d / "report.json")),
            lambda: checks.evaluation(report, learned, oracle, self.k))
            or self._repeat("divergence", report.get("divergence_decomposed")))


def run_pass(cmds, d: Path) -> tuple[list[Invocation], float]:
    t0 = time.perf_counter()
    invs = [run_cli(args, d) for _, args in cmds]
    return invs, time.perf_counter() - t0


def replay_pass(workload: str, inp: dict, d: Path, exact_n: int):
    """Replay the workload's commands in process under a fresh tracer.

    Returns the tracer and the replayed documents whose score (and
    divergence) must equal the CLI's.
    """
    t = replay.Tracer()
    f = {name: str(path) for name, path in inp["files"].items()}
    k = inp["params"]["k"]
    r = d / "replay"
    r.mkdir(exist_ok=True)
    if workload == "learn_csv":
        docs = [replay.replay_learn(t, f["data"], str(r / "structure.json"),
                                    k, "local")]
    elif workload == "solve_weights":
        docs = [replay.replay_learn(t, f["w_big"], str(r / "big.json"),
                                    None, "local"),
                replay.replay_learn(t, f["w_exact"], str(r / "exact.json"),
                                    None, "exact", exact_limit=exact_n)]
    else:
        sample = str(r / "sample.csv")
        replay.replay_gen_parity(t, f["targets"], sample)
        docs = [replay.replay_learn(t, sample, str(r / "structure.json"),
                                    k, "exact")]
        docs.append(replay.replay_eval(t, sample, str(r / "structure.json"),
                                       str(r / "report.json"),
                                       str(r / "model.json")))
    return t, docs


def layer_metrics(t, cli_wall_s: float, n_cmds: int, setup_s: float) -> dict:
    """Per-layer metrics of one traced replay pass."""
    sec, c = t.layer_seconds(), t.counters

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {
        "dataset.load_s": sec.get("dataset.load", 0.0),
        "dataset.rows": c.get("dataset.rows", 0),
        "dataset.distinct_rows": c.get("dataset.distinct_rows", 0),
        "dataset.dump_s": sec.get("dataset.dump", 0.0),
        "dataset.csv_mb": c.get("dataset.csv_mb", 0.0),
        "weights.compute_s": sec.get("weights.compute", 0.0),
        "weights.subsets": c.get("weights.subsets", 0),
        "weights.file_load_s": sec.get("weights.file_load", 0.0),
        "weights.used_ratio": rate(c.get("weights.used", 0),
                                   c.get("weights.non_singleton", 0)),
        "solvers.greedy_s": sec.get("solvers.greedy", 0.0),
        "solvers.greedy_evals": c.get("solvers.greedy_evals", 0),
        "solvers.local_s": sec.get("solvers.local", 0.0),
        "solvers.local_moves": c.get("solvers.local_moves", 0),
        "solvers.local_iterations": c.get("solvers.local_iterations", 0),
        "solvers.local_accept_ratio": rate(c.get("solvers.local_accepted", 0),
                                           c.get("solvers.local_moves", 0)),
        "solvers.exact_s": sec.get("solvers.exact", 0.0),
        "solvers.exact_states": c.get("solvers.exact_states", 0),
        "structure.score_s": sec.get("structure.score", 0.0),
        "structure.cliques": c.get("structure.cliques", 0),
        "projection.divergence_decomposed_s":
            sec.get("projection.divergence_decomposed", 0.0),
        "projection.project_s": sec.get("projection.project", 0.0),
        "projection.log_likelihood_s": sec.get("projection.log_likelihood", 0.0),
        "projection.divergence_direct_s":
            sec.get("projection.divergence_direct", 0.0),
        "projection.dump_model_s": sec.get("projection.dump_model", 0.0),
        "projection.factors": c.get("projection.factors", 0),
        "paritygen.realize_s": sec.get("paritygen.realize", 0.0),
        "paritygen.generate_s": sec.get("paritygen.generate", 0.0),
        "paritygen.rows": c.get("paritygen.rows", 0),
        "paritygen.rows_mb": c.get("paritygen.rows_mb", 0.0),
        "paritygen.blocks": c.get("paritygen.blocks", 0),
        "cli.json_out_s": sec.get("cli.json_out", 0.0),
        "cli.unattributed_s": cli_wall_s - n_cmds * setup_s - t.leaf_total(),
    }
    m["dataset.load_rows_per_s"] = rate(m["dataset.rows"], m["dataset.load_s"])
    m["weights.subsets_per_s"] = rate(m["weights.subsets"], m["weights.compute_s"])
    return m


# The gated end-to-end metrics. Command wall times drift by up to a third
# between runs on a shared host, more than any bound can absorb, so they are
# reported ungated: as cmd.* with --trace 1 and in the details line.
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


REPLAY_OUTPUTS = {"learn_csv": ["structure.json"],
                  "solve_weights": ["big.json", "exact.json"],
                  "reverse_parity": ["structure.json", "report.json"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> tuple[dict, dict]:
    """One benchmark run. Returns (result line, details)."""
    started = time.perf_counter()
    d = WORK / size / workload
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    inp = inputs.build(workload, seed, d / "inputs", size)
    gen_s = time.perf_counter() - started
    cmds = commands(workload, inp, d)
    checker = Checker(workload, inp, d)
    attempted = failed = 0
    failures: list[str] = []

    def account(invs, verdicts):
        nonlocal attempted, failed
        attempted += len(invs)
        for inv, why in zip(invs, verdicts):
            if why is not None:
                failed += 1
                failures.append(f"{inv.args[0]}: {why}")

    def time_setup():
        inv = run_cli(["--help"], d)
        ok = inv.rc == 0 and "learn" in inv.stdout
        account([inv], [None if ok else f"exit code {inv.rc}: {inv.stderr[-300:]}"])
        return inv.wall_s

    # Untimed warm-up: fills the page cache, writes .pyc files, and checks
    # the outputs once so later passes hit the verdict cache.
    invs, warm_s = run_pass(cmds, d)
    account(invs, checker.check_pass(invs))

    # Set-up samples are spread over the run (one before each pass) so that
    # they see the same machine state as the passes.
    setup = [time_setup() for _ in range(SETUP_SAMPLES // 2)]
    passes, traced = [], []
    deadline = time.perf_counter() + seconds
    while not passes or (time.perf_counter() < deadline
                         and time.perf_counter() - started < RUN_BUDGET_S):
        setup.append(time_setup())
        invs, wall = run_pass(cmds, d)
        account(invs, checker.check_pass(invs))
        passes.append({"wall_s": wall, "cmd_s": [inv.wall_s for inv in invs],
                       "rss_mib": max(inv.rss_mib for inv in invs)})
        if not trace:
            continue
        attempted += len(cmds)
        try:
            tracer, docs = replay_pass(workload, inp, d,
                                       inp["params"].get("exact_n"))
            for doc, name in zip(docs, REPLAY_OUTPUTS[workload]):
                want = checks.load_json(d / name)
                for field in ("score", "divergence_decomposed"):
                    if doc.get(field) != want.get(field):
                        raise checks.CheckError(
                            f"replay {name} {field} {doc.get(field)} != "
                            f"CLI {want.get(field)}")
            traced.append((tracer, sum(passes[-1]["cmd_s"])))
        except Exception as exc:  # a broken replay must not hide timings
            failed += len(cmds)
            failures.append(f"replay: {exc!r}")
            traceback.print_exc(file=sys.stderr)
    while len(setup) < SETUP_SAMPLES:
        setup.append(time_setup())
    setup_s = statistics.median(setup)

    # Pass times are bimodal on a shared host (the same pass runs at two
    # speeds), and the slow share drifts; the mean follows that share
    # smoothly where the median jumps between the modes.
    def mean(values):
        return statistics.fmean(values) if values else 0.0

    def cmd_mean(kind):
        return mean([sum(s for (k, _), s in zip(cmds, p["cmd_s"]) if k == kind)
                     for p in passes])

    details = {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "params": inp["params"], "inputs_sha256": inp["sha256"],
        "generate_s": gen_s, "warmup_s": warm_s, "setup_samples_s": setup,
        "passes": passes,
        "wall_s": mean([p["wall_s"] for p in passes]),
        "learn_s": cmd_mean("learn"), "eval_s": cmd_mean("eval"),
        "gen_parity_s": cmd_mean("gen_parity"),
        "score": checker.first.get("score"),
        "divergence": checker.first.get("divergence"),
        "planted_score": checker.planted_score(),
        "failures": failures[:20],
    }
    if trace:
        layers = [layer_metrics(t, cli_s, len(cmds), setup_s)
                  for t, cli_s in traced]
        names = layer_metrics(replay.Tracer(), 0.0, 0, 0.0)
        metrics = {name: mean([m[name] for m in layers]) for name in names}
        metrics.update({
            "cmd.wall_s": details["wall_s"],
            "cmd.learn_s": details["learn_s"], "cmd.eval_s": details["eval_s"],
            "cmd.gen_parity_s": details["gen_parity_s"]})
        units = {name: layer_unit(name) for name in metrics}
        details["replay_pass_s"] = [t.top_total() for t, _ in traced]
        spans = traced[-1][0].spans if traced else []
        (d / "spans.json").write_text(json.dumps(spans))
    else:
        metrics = {"setup_s": setup_s,
                   "peak_rss_mb": mean([p["rss_mib"] for p in passes])}
        units = E2E_UNITS
    details["run_s"] = time.perf_counter() - started
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny sizes, traced and not")
    args = ap.parse_args(argv)
    if not (SRC / "hypertree" / "cli.py").is_file():
        print(f"error: no hypertree sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    sys.path[:0] = [str(HERE), str(SRC)]
    global checks, inputs, replay
    import checks
    import inputs
    import replay
    import hypertree
    if Path(hypertree.__file__).resolve().parent != SRC / "hypertree":
        print(f"error: imported hypertree from {hypertree.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.smoke:
        ok, total = True, {"correct": True, "attempted": 0, "failed": 0,
                           "metrics": {}}
        for workload in WORKLOADS:
            for trace in (False, True):
                result, details = run_workload(workload, args.seed, 0.0, trace,
                                               size="smoke")
                print(json.dumps({"details": details, "result": result}))
                total["attempted"] += result["attempted"]
                total["failed"] += result["failed"]
                ok = ok and result["correct"]
        total["correct"] = ok
        print(json.dumps(total))
        return 0 if ok else 1
    result, details = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
