"""Command-line front end.

Subcommands: ``weights`` (CSV -> weight dump), ``learn`` (CSV or weight dump
-> structure + report), ``eval`` (data + structure -> divergence/likelihood
report), ``gen-parity`` (bias or weight-target prescription -> sample CSV +
provenance). Exit codes: 0 success, 2 validation error (including a
malformed input file, named with the field at fault), 3 guard refusal,
4 I/O error. All file outputs are in nats; ``--display-base 2`` converts the
printed summary only.

The parser is the standard library's ``argparse``. Each command imports the
modules it computes with when it runs: ``--help`` loads no library module
beyond ``errors``, and only the commands and branches that compute on arrays
import ``dataset``, ``projection`` and ``paritygen`` (and with them NumPy),
so ``learn`` on a weight file starts without it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .errors import DEFAULT_CUBE_LIMIT, GuardLimitError, json_int, json_subsets

EXIT_VALIDATION = 2
EXIT_GUARD = 3
EXIT_IO = 4

SOLVER_NAMES = ("chow_liu", "exact", "greedy", "local")


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _guarded(command):
    """Map library errors raised by a command to exit codes and a message."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except GuardLimitError as exc:
            _fail(EXIT_GUARD, str(exc))
        except OSError as exc:
            _fail(EXIT_IO, str(exc))
        except (ValueError, RuntimeError) as exc:
            _fail(EXIT_VALIDATION, str(exc))

    return run


def _read_json(path: str, parse):
    """Parse the JSON object in a file once and convert it with parse(doc).

    A missing field, a value of the wrong type or an invalid value found
    while converting becomes a ValueError that names the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    try:
        return parse(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: malformed field: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _joint_table(doc: dict):
    from .dataset import joint_table_from_dict

    return joint_table_from_dict(doc)


def _weights_or_table(doc: dict):
    if "weights" in doc:
        from .weights import weights_from_dict

        return weights_from_dict(doc)
    return _joint_table(doc)


def _sidecar_arities(doc: dict) -> dict[str, int]:
    arities = doc["arities"]
    if not isinstance(arities, dict):
        raise TypeError(f"'arities' must map names to arities, "
                        f"got {type(arities).__name__}")
    return {name: json_int(m, f"arities.{name}") for name, m in arities.items()}


def _load_input(path: str, arities_path: str | None, parse_json=_joint_table):
    """CSV files become Datasets; JSON files are converted by parse_json.

    Only CSV data takes an ``--arities`` sidecar; a JSON input carries its
    own domain, so a sidecar given with one is refused.
    """
    if path.endswith(".json"):
        if arities_path is not None:
            raise ValueError(f"--arities applies to CSV data only; {path} is a "
                             "JSON input")
        return _read_json(path, parse_json)
    from . import dataset as ds

    sidecar = None
    if arities_path is not None:
        sidecar = _read_json(arities_path, _sidecar_arities)
    return ds.load_dataset(path, arities=sidecar)


def _write_json(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_float(v: float):
    if math.isinf(v):
        return "-inf" if v < 0 else "inf"
    return v


def _display(value: float, base: str) -> float:
    return value / math.log(2) if base == "2" else value


@_guarded
def weights_cmd(data_path, k, arities_path, display_base, out_path):
    """Compute clique weights for all vertex subsets of size 1..k+1."""
    from . import weights

    provider = _load_input(data_path, arities_path)
    wf = weights.compute_weights(provider, k)
    _write_json(weights.weights_to_dict(wf), out_path)
    if out_path is not None:
        top = max((h for h in wf.weights if len(h) >= 2),
                  key=lambda h: wf.weights[h], default=None)
        note = ""
        if top is not None:
            note = (f"; max non-singleton weight {list(top)} = "
                    f"{_display(wf.weights[top], display_base):.6f} "
                    f"(base {display_base})")
        print(f"wrote {len(wf.weights)} weights (n={wf.n}, k={wf.k}) "
              f"to {out_path}{note}")


@_guarded
def learn_cmd(input_path, k, solver, exact_limit, max_iters, arities_path,
              display_base, out_path):
    """Find a high-weight width-k structure for data or a weight file."""
    from . import solvers, structure, weights

    if max_iters is None:
        max_iters = solvers.DEFAULT_MAX_ITERS
    source = _load_input(input_path, arities_path, _weights_or_table)
    if isinstance(source, weights.WeightFunction):
        wf, provider = source, None
        if k is not None and k != wf.k:
            raise ValueError(f"--k={k} conflicts with weight file k={wf.k}")
    else:
        if k is None:
            raise ValueError("--k is required when learning from data")
        provider = source
        wf = weights.compute_weights(provider, k)

    if solver == "chow_liu":
        result = solvers.chow_liu(wf)
    elif solver == "exact":
        result = solvers.exact_search(wf, exact_limit=exact_limit)
    elif solver == "greedy":
        result = solvers.greedy(wf)
    else:
        result = solvers.local_search(wf, solvers.greedy(wf).tree,
                                      max_iters=max_iters)

    doc = structure.ktree_to_dict(result.tree)
    doc["score"] = result.score
    doc["method"] = result.method
    doc["stats"] = result.stats
    doc["log_base"] = "e"
    if provider is not None:
        from . import projection

        doc["divergence_decomposed"] = projection.divergence_decomposed(
            provider, wf, result.tree)
    else:
        doc["note"] = "divergence omitted: learned from a weight file, not data"
    _write_json(doc, out_path)
    if out_path is not None:
        print(
            f"{result.method}: score {_display(result.score, display_base):.6f} "
            f"(base {display_base}, k={wf.k}) -> {out_path}")


@_guarded
def eval_cmd(data_path, structure_path, arities_path, display_base, model_out,
             out_path):
    """Score a structure against data: divergences and log likelihood."""
    from . import projection, structure, weights
    from .dataset import Dataset

    provider = _load_input(data_path, arities_path)
    tree = _read_json(structure_path, structure.ktree_from_dict)
    if tree.n != provider.n_vars:
        raise ValueError(
            f"structure spans {tree.n} variables, data has {provider.n_vars}")
    wf = weights.compute_weights(provider, tree.k)
    model = projection.project(provider, tree)
    report = {
        "k": tree.k,
        "n": tree.n,
        "log_base": "e",
        "score": structure.score(tree, wf),
        "divergence_decomposed": projection.divergence_decomposed(provider, wf, tree),
    }
    try:
        direct = projection.divergence_direct(provider, model)
    except GuardLimitError as exc:
        report["note"] = f"divergence_direct omitted: {exc}"
    else:
        report["divergence_direct"] = direct
        report["identity_residual"] = abs(direct - report["divergence_decomposed"])
    if isinstance(provider, Dataset):
        ll = projection.log_likelihood(model, provider)
        report["loglik_per_row"] = _json_float(ll / provider.n_rows)
    if model_out is not None:
        projection.dump_model(model, model_out)
    _write_json(report, out_path)
    if out_path is not None:
        print(
            f"divergence {_display(report['divergence_decomposed'], display_base):.6f} "
            f"(base {display_base}, k={tree.k}) -> {out_path}")


def _parity_spec(doc: dict):
    """(biases, None) of a bias document; (None, realize_weights arguments)
    of a weight-target document."""
    from .paritygen import biases_from_dict

    if "biases" in doc:
        return biases_from_dict(doc), None
    if "targets" in doc:
        targets = json_subsets(doc["targets"], "w", float)
        scale = doc.get("scale")
        if not isinstance(scale, (int, float, type(None))):
            raise TypeError(f"'scale' must be a number, got {type(scale).__name__}")
        return None, dict(targets=targets, n=json_int(doc["n"], "n"),
                          k=json_int(doc["k"], "k"),
                          q_grid=json_int(doc["q_grid"], "q_grid"), scale=scale)
    raise ValueError("input must contain either a 'biases' or a 'targets' list")


@_guarded
def gen_parity_cmd(spec_path, cube_limit, out_path):
    """Generate a parity-biased sample from a bias or weight-target file."""
    from . import paritygen
    from .dataset import dump_dataset

    tb, targets = _read_json(spec_path, _parity_spec)
    realization = None
    if targets is not None:
        realization = paritygen.realize_weights(**targets)
        tb = realization.biases
    sample = paritygen.generate(tb, cube_limit=cube_limit)
    dump_dataset(sample.dataset, out_path)
    prov = paritygen.biases_to_dict(tb)
    prov["rows"] = sample.dataset.n_rows
    prov["rows_per_block"] = 1 << tb.n
    prov["block_log"] = [
        {"vars": list(h), "block": b, "parity_fixed": fixed}
        for h, b, fixed in sample.block_log
    ]
    if realization is not None:
        prov["scale"] = realization.scale
        prov["per_set_error"] = [
            {"vars": list(h), "e": e}
            for h, e in sorted(realization.per_set_error.items())
        ]
        prov["total_abs_error"] = realization.total_abs_error
    prov_path = _provenance_path(out_path)
    _write_json(prov, prov_path)
    print(f"wrote {sample.dataset.n_rows} rows to {out_path}, "
          f"provenance to {prov_path}")


def _provenance_path(csv_path: str) -> str:
    stem = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
    return stem + ".provenance.json"


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The ``hypertree`` parser: one subparser per command, options spelled
    out in full (no abbreviations), usage errors exiting 2."""
    parser = argparse.ArgumentParser(
        prog="hypertree", allow_abbrev=False,
        description="Learn bounded tree-width Markov networks from "
                    "categorical data.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, run, *positionals):
        sub = commands.add_parser(name, help=run.__doc__,
                                  description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run, parser=sub)
        for dest, metavar in positionals:
            sub.add_argument(dest, metavar=metavar)
        return sub

    def positive(sub, flag, text=None, **kwargs):
        sub.add_argument(flag, type=_positive, metavar="INTEGER",
                         help=f"{text} [x>=1]" if text else "[x>=1]", **kwargs)

    def common(sub, arities_help=None):
        sub.add_argument("--arities", dest="arities_path", metavar="TEXT",
                         help=arities_help)
        sub.add_argument("--display-base", choices=("e", "2"), default="e")

    def out(sub, default=None, text="Output path (default: stdout)."):
        sub.add_argument("--out", dest="out_path", metavar="TEXT",
                         default=default, help=text)

    sub = command("weights", weights_cmd, ("data_path", "DATA"))
    positive(sub, "--k", "Width bound (cliques up to k+1 vertices).",
             required=True)
    common(sub, 'JSON sidecar {"arities": {"name": m, ...}} declaring '
                'arities.')
    out(sub)

    sub = command("learn", learn_cmd, ("input_path", "DATA_OR_WEIGHTS"))
    positive(sub, "--k", "Width bound; required for CSV input, optional "
                         "check for weight files.")
    sub.add_argument("--solver", choices=SOLVER_NAMES, default="greedy")
    positive(sub, "--exact-limit", "Override the n guard of the exact solver.")
    positive(sub, "--max-iters")
    common(sub)
    out(sub)

    sub = command("eval", eval_cmd, ("data_path", "DATA"),
                  ("structure_path", "STRUCTURE"))
    common(sub)
    sub.add_argument("--model-out", metavar="TEXT",
                     help="Also write the projected model JSON here.")
    out(sub)

    sub = command("gen-parity", gen_parity_cmd,
                  ("spec_path", "BIASES_OR_TARGETS"))
    positive(sub, "--cube-limit", "Refuse generation above this variable "
                                  "count.", default=DEFAULT_CUBE_LIMIT)
    out(sub, "sample.csv", "Sample CSV path; provenance goes next to it.")
    return parser


def main(argv=None) -> int:
    """Run one command; a usage error exits 2 before it starts."""
    args, extra = build_parser().parse_known_args(argv)
    args = vars(args)
    command = args.pop("parser")
    if extra:  # show the usage of the command the arguments were given to
        command.error(f"unrecognized arguments: {' '.join(extra)}")
    args.pop("run")(**args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
