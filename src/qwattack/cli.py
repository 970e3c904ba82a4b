"""Command-line interface: graph generation, EC scans, searches, attacks,
and the three experiment harnesses, all emitting CSV.

Flags may also be supplied through a plain key=value config file via
--config: each line becomes a --key=value flag ahead of the command line's
own, so config values pass the same checks and explicit flags win. Exit
codes: 0 success, 1 runtime failure (diagnostics on stderr), 2 usage error.

Importing this module caps BLAS at one thread, as the worker pool does, unless
the environment already sets the variable: the walk's only BLAS calls are its
norm checks, which extra threads only slow down.
"""

import argparse
import os
import secrets
import sys
from contextlib import contextmanager
from dataclasses import astuple
from typing import Optional, Sequence

from . import BLAS_THREAD_VARS

for _name in BLAS_THREAD_VARS:  # before the first import of numpy, which reads them once
    os.environ.setdefault(_name, "1")

from .attack import default_t_pen, evaluate_attack
from .exceptional import checked_orders, find_ec_within_distance
from .graphs import MODELS, ModelParams, _pcg64_replay, generate_graph, read_edge_list, write_edge_list
from .experiments import (
    CSV_COLUMNS,
    PANELS,
    ExperimentConfig,
    expand_grid,
    read_fig2_csv,
    run_fig1,
    run_fig2,
    run_fig3,
    write_csv,
    write_fig1_csv,
    write_fig2_csv,
    write_fig3_csv,
)
from .szegedy import probability_trace


def _load_config(path: str) -> dict[str, str]:
    """Parse a key=value config file; '#' starts a comment."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _require(args: argparse.Namespace, name: str):
    """The value of --name, which must be given as a flag or a config key."""
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        raise ValueError(f"missing required option --{name}")
    return value


def _parse_models(raw: str) -> tuple[str, ...]:
    models = tuple(m.strip() for m in raw.split(",") if m.strip())
    if not models:
        raise argparse.ArgumentTypeError(f"no models given; expected among {MODELS}")
    unknown = set(models) - set(MODELS)
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown models {sorted(unknown)}; expected among {MODELS}")
    return models


def _parse_ints(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in raw.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {raw!r}") from None


def _parse_orders(raw: str) -> frozenset[int]:
    try:
        return checked_orders(_parse_ints(raw), None)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_grid(raw: str) -> tuple[int, ...]:
    try:
        return expand_grid(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_seed(raw: str) -> int:
    try:
        seed = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {seed}")
    if seed >= 2**64:
        raise argparse.ArgumentTypeError(f"seed must be below 2**64, got {seed}")
    return seed


def _add_common(sub: argparse.ArgumentParser, seed: bool, stdout: bool) -> None:
    sub.add_argument("--config", help="key=value file supplying defaults for any flag")
    if seed:
        sub.add_argument("--seed", type=_parse_seed, help="root RNG seed (generated and printed if omitted)")
    sub.add_argument("--out", help="output path (stdout if omitted)" if stdout else "output path (required)")


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: a flag it lacks is a usage error under its own usage line,
    not passed up to the top-level parser's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=float, help="ER edge probability (default 2 ln(n)/n)")
    sub.add_argument("--k", type=int, help="WS initial degree (default even ceil(2 ln n))")
    sub.add_argument("--beta", type=float, help="WS rewiring probability (default 0.5)")
    sub.add_argument("--m0", type=int, help="BA attachment count (default 3)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwattack",
        description="Szegedy spatial-search simulation and exceptional-configuration attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = sub.add_parser("generate", help="draw one random graph and write its edge list")
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--n", type=int)
    _add_model_flags(p)
    _add_common(p, seed=True, stdout=False)

    p = sub.add_parser("scan-ec", help="list exceptional configurations at a vertex")
    p.add_argument("--in", help="edge-list file")
    p.add_argument("--vertex", type=int)
    p.add_argument("--orders", type=_parse_orders, default=(2, 3), help="comma list among 2,3 (default 2,3)")
    p.add_argument("--distance", type=int, choices=(1, 2), help="hop-distance cap (default none)")
    _add_common(p, seed=False, stdout=True)

    p = sub.add_parser("search", help="success-probability trace of the search walk")
    p.add_argument("--in", help="edge-list file")
    p.add_argument("--marked", type=_parse_ints, help="comma list of marked vertices")
    p.add_argument("--t-max", type=int, dest="t_max")
    _add_common(p, seed=False, stdout=True)

    p = sub.add_parser("attack", help="attack one marked vertex with a random EC")
    p.add_argument("--in", help="edge-list file")
    p.add_argument("--marked", type=int, help="the single originally marked vertex")
    p.add_argument("--orders", type=_parse_orders, default=(2,), help="comma list among 2,3 (default 2)")
    p.add_argument("--distance", type=int, choices=(1, 2), help="hop-distance cap (default none)")
    p.add_argument("--t-pen", type=int, dest="t_pen", help="penalty steps (default ceil(ln n))")
    _add_common(p, seed=True, stdout=True)

    for name, extra, samples in (("fig1", "EC-formation probabilities", 50),
                                 ("fig2", "attack and strong-attack efficiencies", 20)):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--model", type=_parse_models, default=MODELS, help="comma list among er,ws,ba (default all)")
        p.add_argument("--n", type=int, help="single graph order (shorthand grid)")
        p.add_argument("--n-grid", dest="n_grid", type=_parse_grid, help="start:stop:step, stop inclusive")
        p.add_argument("--samples", type=int, default=samples, help=f"samples per (model, n) (default {samples})")
        p.add_argument("--workers", type=int, default=1, help="process count (default 1)")
        if name == "fig2":
            p.add_argument("--t-pen", type=int, dest="t_pen", help="penalty steps (default ceil(ln n))")
        _add_model_flags(p)
        _add_common(p, seed=True, stdout=False)

    p = sub.add_parser("fig3", help="complexity-exponent regressions of a fig2 CSV")
    p.add_argument("--in", help="fig2 CSV to regress")
    p.add_argument("--model", type=_parse_models, help="comma list among er,ws,ba (default the CSV's models)")
    _add_common(p, seed=False, stdout=False)

    return parser


def _resolve_seed(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed is None:
        seed = secrets.randbits(32)
        print(f"seed: {seed}", file=sys.stderr)
    return seed


@contextmanager
def _output(args: argparse.Namespace):
    """The --out file, closed on exit, or stdout when --out is not given."""
    if args.out is None:
        yield sys.stdout
        return
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        yield fh


def _model_values(args: argparse.Namespace) -> dict:
    """The model flags given, as the fields ModelParams and ExperimentConfig share."""
    flags = (("er_p", "p"), ("ws_k", "k"), ("ws_beta", "beta"), ("ba_m0", "m0"))
    return {name: getattr(args, flag) for name, flag in flags if getattr(args, flag) is not None}


def _cmd_generate(args: argparse.Namespace) -> int:
    model, n, out = (_require(args, name) for name in ("model", "n", "out"))
    seed = _resolve_seed(args)
    graph = generate_graph(ModelParams(model=model, **_model_values(args)), n, seed=seed)
    write_edge_list(graph, out)
    print(f"wrote {model} graph n={graph.n} edges={graph.num_edges} to {out}", file=sys.stderr)
    return 0


def _cmd_scan_ec(args: argparse.Namespace) -> int:
    graph = read_edge_list(_require(args, "in"))
    configs = find_ec_within_distance(graph, _require(args, "vertex"), args.distance, args.orders)
    with _output(args) as fh:
        rows = ((ec.anchor, ec.kind.value, ec.vertices) for ec in configs)
        write_csv(fh, ("anchor", "kind", "vertices"), rows)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    graph = read_edge_list(_require(args, "in"))
    trace = probability_trace(graph, _require(args, "marked"), _require(args, "t-max"))
    with _output(args) as fh:
        write_csv(fh, ("t", "probability"), enumerate(trace))
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    graph = read_edge_list(_require(args, "in"))
    anchor = _require(args, "marked")
    seed = _resolve_seed(args)
    t_pen = default_t_pen(graph.n) if args.t_pen is None else args.t_pen
    configs = find_ec_within_distance(graph, anchor, args.distance, args.orders)
    if not configs:
        raise ValueError(
            f"no exceptional configuration of orders {sorted(args.orders)} containing vertex {anchor}"
        )
    ec = configs[_pcg64_replay(seed)[1](len(configs))]
    report = evaluate_attack(graph, ec, t_pen, model="file", seed=seed)
    with _output(args) as fh:
        write_csv(fh, CSV_COLUMNS, [astuple(report)])
    return 0


def _experiment_config(name: str, args: argparse.Namespace) -> ExperimentConfig:
    if args.n is not None and args.n_grid is not None:
        raise ValueError("give either --n or --n-grid, not both")
    grid = (args.n_grid or ()) if args.n is None else (args.n,)
    return ExperimentConfig(
        experiment=name,
        models=args.model,
        n_grid=grid,
        samples_per_n=args.samples,
        t_pen=getattr(args, "t_pen", None),
        root_seed=_resolve_seed(args),
        workers=args.workers,
        **_model_values(args),
    )


def _cmd_fig1(args: argparse.Namespace) -> int:
    out = _require(args, "out")
    rows = run_fig1(_experiment_config("fig1", args))
    write_fig1_csv(rows, out)
    regens = sum(r.regens for r in rows) // len(PANELS)
    print(f"fig1: {len(rows)} rows to {out} (graph regenerations: {regens})", file=sys.stderr)
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    out = _require(args, "out")
    reports = run_fig2(_experiment_config("fig2", args))
    write_fig2_csv(reports, out)
    regens = sum(r.graph_regens for r in reports)
    retries = sum(r.anchor_retries for r in reports)
    print(
        f"fig2: {len(reports)} rows to {out} "
        f"(graph regenerations: {regens}, anchor retries: {retries})",
        file=sys.stderr,
    )
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    infile, out = (_require(args, name) for name in ("in", "out"))
    reports = read_fig2_csv(infile)
    present = tuple(m for m in MODELS if any(r.model == m for r in reports))
    if not present:
        raise ValueError(f"{infile} has no rows of the models {', '.join(MODELS)}")
    labeled = run_fig3(reports, present if args.model is None else args.model)
    write_fig3_csv(labeled, out)
    for model, variant, res in labeled:
        print(f"fig3: {model} {variant}: alpha={res.alpha:.4f} (rse {res.rse:.4f})", file=sys.stderr)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "scan-ec": _cmd_scan_ec,
    "search": _cmd_search,
    "attack": _cmd_attack,
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
}


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The --config file's lines as --key=value flags; each key must name a flag of the command."""
    config = _load_config(args.config)
    keys = {dest.replace("_", "-") for dest in vars(args)} - {"command", "config"}
    unknown = sorted(set(config) - keys)
    if unknown:
        raise ValueError(f"{args.config}: unknown config keys {unknown} for {args.command}")
    return [f"--{key}={value}" for key, value in config.items()]


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # argv[0] is the command; argparse keeps an option's last value, so explicit flags win
            args = parser.parse_args(argv[:1] + _config_flags(args) + argv[1:])
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # str(MemoryError()) is empty
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
