"""Command-line interface.

Subcommands: generate, sep, magnify, fit, identify, learn, experiment.
Every failure path exits non-zero after printing a single machine-parsable
line of the form ``error <code>: <message>`` to stderr; a command line
that argparse rejects is an ``input_error`` like any other bad input.

Each CLI input has one path. `fit`, `identify` and `learn` read their
--data or --population input through `_load_input`, which returns the
input with its labels; `learn` writes those labels onto the graph it
learns. `experiment` builds one `ExperimentConfig` from the --config file
(or nothing) with every flag given on the command line laid over it, so
the config's defaults live only in `ExperimentConfig`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .estimation import fit
from .experiments import _METHODS, ExperimentConfig, run_experiment
from .graphs import (
    CapacityError,
    ChainGraph,
    GraphStructureError,
    magnify,
    random_chain_graph,
)
from .io import (
    _read_labelled_covariance,
    _require_keys,
    _write_json,
    graph_hash,
    graph_to_dict,
    parameters_to_dict,
    read_dataset,
    read_graph,
    write_dataset,
    write_graph,
    write_parameters,
)
from .search import SearchConfig, greedy_search, identify_in_class, two_phase
from .sem import (
    implied_distribution,
    random_parameters,
    rescale_equal_variances,
    sample,
    compose_seed,
)
from .separation import SeparationQuery, _separations, pairwise_queries, separated

__all__ = ["main"]


def _parse_nodes(arg: str | None, g: ChainGraph) -> frozenset:
    if not arg:
        return frozenset()
    labels = {g.node_label(j): j for j in range(g.p)}
    out = set()
    for token in arg.split(","):
        token = token.strip()
        if not token:
            continue
        if token in labels:
            out.add(labels[token])
        else:
            try:
                idx = int(token)
            except ValueError:
                raise ValueError(f"unknown node {token!r}") from None
            if not (0 <= idx < g.p):
                raise ValueError(f"node index {idx} out of range for p={g.p}")
            out.add(idx)
    return frozenset(out)


def _load_input(args, g: ChainGraph | None = None):
    """(data_or_cov, labels) of the --data or --population input, checked against a graph g if given.

    `labels` are the dataset's header, or the `labels` field of the
    covariance file, or None for a covariance file without one. Columns
    are matched to nodes by position. Labels that are g's node labels in
    another order would fit each column to the wrong node, so they raise
    ValueError naming the first column out of place; any other labels keep
    positional matching.
    """
    if args.data and args.population:
        raise ValueError("give either --data or --population, not both")
    if args.data:
        data_or_cov = read_dataset(args.data)
        labels = data_or_cov.labels
    elif args.population:
        data_or_cov, labels = _read_labelled_covariance(args.population)
    else:
        raise ValueError("one of --data or --population is required")
    if g is not None and labels is not None:
        nodes = tuple(g.node_label(j) for j in range(g.p))
        if labels != nodes and sorted(labels) == sorted(nodes):
            j = next(j for j, (label, node) in enumerate(zip(labels, nodes)) if label != node)
            raise ValueError(
                f"column {labels[j]} stands where the graph has node {nodes[j]}: the input's labels are "
                "the graph's in another order; reorder its columns to match the graph"
            )
    return data_or_cov, labels


def _converged_flag(result) -> str:
    """The ` converged=False` suffix of a summary line whose fit stopped at its round cap, else ''."""
    return "" if result.converged else " converged=False"


def _cmd_generate(args) -> int:
    """Draw the graph, then its parameters and data if asked for, and write them only once all are drawn."""
    g = random_chain_graph(args.p, args.edge_prob, args.undirected_frac, seed=args.seed)
    if args.params_out or args.data_out:
        params = rescale_equal_variances(
            random_parameters(g, seed=compose_seed(args.seed, 1)), args.sigma2
        )
    if args.data_out:
        data = sample(
            implied_distribution(params),
            args.n,
            seed=compose_seed(args.seed, 2),
            labels=tuple(g.node_label(j) for j in range(g.p)),
        )
    write_graph(g, args.out)
    print(f"graph {graph_hash(g)} -> {args.out}")
    if args.params_out:
        write_parameters(params, args.params_out)
        print(f"parameters -> {args.params_out}")
    if args.data_out:
        write_dataset(data, args.data_out)
        print(f"dataset ({args.n} rows) -> {args.data_out}")
    return 0


def _cmd_sep(args) -> int:
    g = read_graph(args.graph)
    if args.enumerate:
        separations = _separations(g).tolist()
        print("j,k,C,separated")
        for (j, k, cond), sep in zip(pairwise_queries(g.p), separations):
            cell = ";".join(g.node_label(x) for x in cond)
            print(f"{g.node_label(j)},{g.node_label(k)},{cell},{sep}")
        return 0
    if not args.a or not args.b:
        raise ValueError("--a and --b are required unless --enumerate is given")
    q = SeparationQuery(_parse_nodes(args.a, g), _parse_nodes(args.b, g), _parse_nodes(args.c, g))
    print(f"separated: {'true' if separated(g, q) else 'false'}")
    return 0


def _cmd_magnify(args) -> int:
    mg = magnify(read_graph(args.graph))
    print(json.dumps(graph_to_dict(mg.base), indent=2, sort_keys=True))
    return 0


def _cmd_fit(args) -> int:
    g = read_graph(args.graph)
    data_or_cov, _ = _load_input(args, g)
    result = fit(data_or_cov, g, equal_variances=args.equal_var)
    payload = {
        "params": parameters_to_dict(result.params),
        "loglik": result.loglik,
        "error_variances": result.error_variances.tolist(),
        "iterations": result.iterations,
        "converged": result.converged,
        "dispersion": result.dispersion,
    }
    _write_json(payload, args.out)
    print(f"loglik={result.loglik:.6f} dispersion={result.dispersion:.6g}{_converged_flag(result)} -> {args.out}")
    return 0


def _cmd_identify(args) -> int:
    rep = read_graph(args.class_rep)
    data_or_cov, _ = _load_input(args, rep)
    result = identify_in_class(rep, data_or_cov)
    payload = {
        "chosen": graph_to_dict(result.chosen),
        "class_size": result.class_size,
        "margin": result.margin if math.isfinite(result.margin) else None,  # no runner-up
        "converged": result.converged,
        "table": [
            {
                "graph": graph_to_dict(row.graph),
                "dispersion": row.dispersion,
                "gap": row.gap,
                "loglik": result.loglik,
                "converged": result.converged,
            }
            for row in result.table
        ],
    }
    _write_json(payload, args.out)
    print(f"chosen {graph_hash(result.chosen)} margin={result.margin:.6g}{_converged_flag(result)} -> {args.out}")
    return 0


def _cmd_learn(args) -> int:
    data_or_cov, labels = _load_input(args)
    if args.method == "greedy":
        g, flag = greedy_search(data_or_cov, SearchConfig(seed=args.seed)), ""
    else:
        result = two_phase(data_or_cov)
        g, flag = result.chosen, _converged_flag(result)
    g = dataclasses.replace(g, labels=labels)
    write_graph(g, args.out)
    print(f"learned {graph_hash(g)}{flag} -> {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    """Run the experiment of the --config file (or of no file) with the command line's flags laid over it.

    The experiment flags have no defaults of their own: a flag left out
    is absent from `args`, so the file's value or `ExperimentConfig`'s
    default stands. --seeds and --n-list are parsed here, not by argparse,
    so a bad entry is an `input_error` like every other fault.
    """
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    flags = {name: getattr(args, name) for name in fields if hasattr(args, name)}
    payload = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        _require_keys(payload, set(), fields, "experiment config")
    elif "p" not in flags or not flags.get("seeds"):
        raise ValueError("--p and --seeds are required without --config")
    for name in ("seeds", "n_list"):
        if name in flags:
            flags[name] = tuple(int(x) for x in flags[name].split(",")) if flags[name] else ()
    payload = {**payload, **flags}
    _require_keys(payload, {"p", "seeds"}, fields, "experiment config")
    cfg = ExperimentConfig(**payload)
    report = run_experiment(cfg)
    for key, rate in report.recovery.items():
        print(f"recovery[{key}] = {rate:.3f}")
    if cfg.out_dir:
        print(f"report -> {cfg.out_dir}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ValueError where argparse would print its usage block and exit.

    `add_subparsers` builds every subcommand's parser from this class, so
    a rejected command line of any subcommand reaches `main`'s one-line
    error; --help still prints and exits 0.
    """

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    Parsing leaves a parser unchanged and no argument has a mutable
    default, so every `main` call in a process (tests, the benchmark,
    notebooks) shares it.
    """
    parser = _Parser(
        prog="ampcg",
        description="Chain-graph structural models: separation, simulation, fitting, identification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a random chain graph (and optionally a model/data)")
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--edge-prob", type=float, default=0.4)
    gen.add_argument("--undirected-frac", type=float, default=0.3)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--sigma2", type=float, default=1.0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--params-out")
    gen.add_argument("--data-out")
    gen.add_argument("--n", type=int, default=1000)
    gen.set_defaults(func=_cmd_generate)

    sep = sub.add_parser("sep", help="answer a separation query or enumerate them all")
    sep.add_argument("--graph", required=True)
    sep.add_argument("--a")
    sep.add_argument("--b")
    sep.add_argument("--c")
    sep.add_argument("--enumerate", action="store_true")
    sep.set_defaults(func=_cmd_sep)

    mag = sub.add_parser("magnify", help="print the graph with explicit error nodes")
    mag.add_argument("--graph", required=True)
    mag.set_defaults(func=_cmd_magnify)

    inputs = argparse.ArgumentParser(add_help=False)  # the one input of fit, identify and learn
    inputs.add_argument("--data", help="CSV dataset: a header of column labels, then one sample per row")
    inputs.add_argument("--population", help="covariance JSON, with optional row labels")

    fit_p = sub.add_parser("fit", parents=[inputs], help="maximum-likelihood fit of a hypothesis graph")
    fit_p.add_argument("--graph", required=True)
    fit_p.add_argument(
        "--equal-var",
        action="store_true",
        help="exact equal-error-variance maximum likelihood (closed form for a DAG)",
    )
    fit_p.add_argument("--out", required=True)
    fit_p.set_defaults(func=_cmd_fit)

    ident = sub.add_parser("identify", parents=[inputs], help="pick the best member of an equivalence class")
    ident.add_argument("--class-rep", required=True)
    ident.add_argument("--out", required=True)
    ident.set_defaults(func=_cmd_identify)

    learn = sub.add_parser("learn", parents=[inputs], help="structure search from data or a covariance")
    learn.add_argument("--method", choices=("greedy", "two-phase"), default="greedy")
    learn.add_argument("--seed", type=int, default=0)
    learn.add_argument("--out", required=True)
    learn.set_defaults(func=_cmd_learn)

    exp = sub.add_parser(
        "experiment",
        argument_default=argparse.SUPPRESS,  # a flag left out leaves the config file's value or its default
        help="run a seeded recovery experiment",
    )
    exp.add_argument("--config", default=None, help="experiment config JSON; flags given override its fields")
    exp.add_argument("--p", type=int)
    exp.add_argument("--seeds", help="comma-separated seeds")
    exp.add_argument("--edge-prob", type=float)
    exp.add_argument("--undirected-frac", type=float)
    exp.add_argument("--sigma2", type=float)
    exp.add_argument("--n-list", help="comma-separated sample sizes")
    exp.add_argument("--method", choices=_METHODS)
    exp.add_argument("--workers", type=int)
    exp.add_argument("--out-dir")
    exp.set_defaults(func=_cmd_experiment)

    return parser


_ERROR_CODES = (
    (GraphStructureError, "structure_error"),
    (CapacityError, "capacity_error"),
    (np.linalg.LinAlgError, "numeric_error"),
    (FileNotFoundError, "io_error"),
    (IsADirectoryError, "io_error"),
    (PermissionError, "io_error"),
    (json.JSONDecodeError, "io_error"),
    (ValueError, "input_error"),
)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:  # one parsable line per failure
        for kind, code in _ERROR_CODES:
            if isinstance(exc, kind):
                break
        else:
            code = "internal_error"
        message = str(exc).replace("\n", " ")
        print(f"error {code}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
