"""Command-line front end.

Subcommands: ``weights`` (CSV -> weight dump), ``learn`` (CSV or weight dump
-> structure + report), ``eval`` (data + structure -> divergence/likelihood
report), ``gen-parity`` (bias or weight-target prescription -> sample CSV +
provenance). Exit codes, mapped in ``main``: 0 success, 2 validation error
(including a malformed input file, named with the field or line at fault
after the file's path), 3 guard refusal, 4 I/O error. All outputs, the
printed summaries included, are in nats.

The module keeps only the parser, dispatch, its two reports and the exit
codes; each input is read and checked by the module whose format it is.
A command returns (document, path or None for stdout, summary), and
``main`` writes the document, then prints the summary if it wrote a file.
Each command imports the modules it computes with when it runs: ``--help``
loads no library module beyond ``errors``, and only the commands and
branches that compute on arrays import ``dataset``, ``projection`` and
``paritygen`` (and with them NumPy), so ``learn`` on a weight file starts
without it. ``learn`` refuses CSV data without ``--k`` before reading it,
and ``learn --solver exact`` refuses a CSV header over the exact limit,
read by the loader's own ``errors.csv_header``, before any of them is
imported: a bad header gets the loader's message and exit code whatever
the solver. ``eval`` reads its structure before its data.
"""

import argparse
import os
import sys

from .errors import (DEFAULT_EXACT_LIMIT, GuardLimitError, csv_header,
                     read_input, read_json, write_json)

EXIT_VALIDATION = 2
EXIT_GUARD = 3
EXIT_IO = 4

SOLVER_NAMES = ("chow_liu", "exact", "greedy", "local")


def _load_input(path: str, arities_path: str | None, weight_file=False):
    """CSV files and joint-table JSON files become Datasets; where
    weight_file is set, a JSON file that lists ``weights``, or has neither
    of a joint table's ``arities`` and ``probs``, becomes a WeightFunction.

    Only CSV data takes an ``--arities`` sidecar; a JSON input carries its
    own domain, so a sidecar given with one is refused.
    """
    if path.endswith(".json"):
        if arities_path is not None:
            raise ValueError(f"--arities applies to CSV data only; {path} is a "
                             "JSON input")

        def convert(doc):
            if weight_file and ("weights" in doc or
                                doc.keys().isdisjoint(("arities", "probs"))):
                from .weights import weights_from_dict as parse
            else:
                from .dataset import joint_table_from_dict as parse
            return parse(doc)

        return read_json(path, convert)
    from .dataset import declared_arities, load_dataset

    sidecar = (None if arities_path is None else read_json(
        arities_path, lambda doc: declared_arities(doc["arities"])))
    return load_dataset(path, sidecar)


def weights_cmd(data_path, k, arities_path, out_path):
    """Compute clique weights for all vertex subsets of size 1..k+1."""
    from . import weights

    doc = weights.weights_to_dict(
        weights.compute_weights(_load_input(data_path, arities_path), k))
    entries = doc["weights"]  # the first maximum in (size, vars) order
    top = max((e for e in entries if len(e["vars"]) >= 2),
              key=lambda e: e["w"], default=None)
    note = "" if top is None else (f"; max non-singleton weight "
                                   f"{top['vars']} = {top['w']:.6f} (base e)")
    return doc, out_path, (f"wrote {len(entries)} weights (n={doc['n']}, "
                           f"k={doc['k']}) to {out_path}{note}")


def learn_cmd(input_path, k, solver, exact_limit, arities_path, out_path):
    """Find a high-weight width-k structure for data or a weight file."""
    from . import solvers, structure, weights

    if exact_limit is not None and solver != "exact":
        raise ValueError("--exact-limit applies to --solver exact only")
    if solver == "chow_liu" and k not in (None, 1):
        raise ValueError(f"--solver chow_liu applies to --k 1 only, got --k {k}")
    no_k = "--k is required when learning from data"
    if not input_path.endswith(".json"):  # CSV data, refused before it is read
        if k is None:
            raise ValueError(no_k)
        if solver == "exact":  # from the header, by the loader's own rule
            names, _ = read_input(input_path, csv_header)
            solvers.refuse_exact(len(names), k, exact_limit)
    source = _load_input(input_path, arities_path, weight_file=True)
    if isinstance(source, weights.WeightFunction):
        wf, provider = source, None
        if k is not None and k != wf.k:
            raise ValueError(f"--k={k} conflicts with weight file k={wf.k}")
    else:
        if k is None:  # a joint table
            raise ValueError(no_k)
        provider = source
        if solver == "exact":
            solvers.refuse_exact(provider.n_vars, k, exact_limit)
        wf = weights.compute_weights(provider, k)

    if solver == "chow_liu":
        result = solvers.chow_liu(wf)
    elif solver == "exact":
        result = solvers.exact_search(wf, exact_limit=exact_limit)
    elif solver == "greedy":
        result = solvers.greedy(wf)
    else:
        result = solvers.local_search(wf, solvers.greedy(wf).tree)

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
    return doc, out_path, (f"{result.method}: score {result.score:.6f} "
                           f"(base e, k={wf.k}) -> {out_path}")


def eval_cmd(data_path, structure_path, arities_path, model_out, out_path):
    """Score a structure against data: divergences and log likelihood."""
    if model_out is not None and out_path is not None and (
            os.path.realpath(model_out) == os.path.realpath(out_path)):
        raise ValueError(f"--model-out and --out name the same file: {out_path}")
    from . import projection, structure

    tree = structure.load_ktree(structure_path)
    provider = _load_input(data_path, arities_path)
    if tree.n != provider.n_vars:
        raise ValueError(f"{structure_path}: structure spans {tree.n} "
                         f"variables, {data_path} has {provider.n_vars}")
    model = projection.project(provider, tree)
    wf = model.weights
    decomposed = projection.divergence_decomposed(provider, wf, tree)
    direct = projection.divergence_direct(provider, model)
    report = {
        "k": tree.k,
        "n": tree.n,
        "log_base": "e",
        "score": structure.score(tree, wf),
        "divergence_decomposed": decomposed,
        "divergence_direct": direct,
        "identity_residual": abs(direct - decomposed),
        # on the training data, sum of p log q = -H(p) - KL(p || q)
        "loglik_per_row": -provider.joint_entropy - direct,
    }
    if model_out is not None:
        projection.dump_model(model, model_out)
    return report, out_path, (f"divergence {decomposed:.6f} "
                              f"(base e, k={tree.k}) -> {out_path}")


def gen_parity_cmd(spec_path, out_path):
    """Generate a parity-biased sample from a bias or weight-target file."""
    from . import paritygen
    from .dataset import dump_dataset

    tb, realization = read_json(spec_path, paritygen.spec_from_dict)
    sample = paritygen.generate(tb)
    dump_dataset(sample.dataset, out_path)
    prov = paritygen.biases_to_dict(tb)
    prov["rows"] = sample.dataset.n_rows
    prov["rows_per_block"] = 1 << tb.n
    if realization is not None:
        prov["scale"] = realization.scale
        prov["per_set_error"] = [
            {"vars": list(h), "e": e}
            for h, e in sorted(realization.per_set_error.items())
        ]
        prov["total_abs_error"] = realization.total_abs_error
    stem = out_path[:-4] if out_path.endswith(".csv") else out_path
    prov_path = stem + ".provenance.json"
    return prov, prov_path, (f"wrote {sample.dataset.n_rows} rows to "
                             f"{out_path}, provenance to {prov_path}")


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

    def positive(sub, flag, text, **kwargs):
        sub.add_argument(flag, type=_positive, metavar="INTEGER",
                         help=f"{text} [x>=1]", **kwargs)

    def common(sub, arities_help=None):
        sub.add_argument("--arities", dest="arities_path", metavar="TEXT",
                         help=arities_help)

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
    positive(sub, "--exact-limit", "Override the n guard of the exact solver "
                                   f"(default n <= {DEFAULT_EXACT_LIMIT}).")
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
    out(sub, "sample.csv", "Sample CSV path; provenance goes next to it.")
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code. A usage error exits 2
    before the command starts; every failure of a command is mapped here,
    with its message on stderr."""
    args, extra = build_parser().parse_known_args(argv)
    args = vars(args)
    command = args.pop("parser")
    if extra:  # show the usage of the command the arguments were given to
        command.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        doc, path, summary = args.pop("run")(**args)
        write_json(doc, path)
        if path is not None:
            print(summary)
        return 0
    except GuardLimitError as exc:  # a RuntimeError, so matched first
        code, failure = EXIT_GUARD, exc
    except OSError as exc:
        code, failure = EXIT_IO, exc
    except (ValueError, RuntimeError) as exc:
        code, failure = EXIT_VALIDATION, exc
    print(f"error: {failure}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
