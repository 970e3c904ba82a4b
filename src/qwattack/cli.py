"""Command-line interface: graph generation, EC scans, searches, attacks,
and the three experiment harnesses, all emitting CSV.

Flags may also be supplied through a plain key=value config file via
--config; explicit flags win over config values. Exit codes: 0 success,
1 runtime failure (diagnostics on stderr), 2 usage error.
"""

import argparse
import secrets
import sys
from contextlib import contextmanager
from dataclasses import astuple
from typing import Optional, Sequence

import numpy as np

from .attack import default_t_pen, evaluate_attack
from .exceptional import find_ec_within_distance
from .graphs import (
    MODELS,
    EdgeListParseError,
    ModelParams,
    generate_graph,
    read_edge_list,
    write_edge_list,
)
from .experiments import (
    CSV_COLUMNS,
    PANELS,
    ExperimentConfig,
    default_workers,
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


class _Options:
    """Flag/config/default resolution: explicit flags win over config values."""

    def __init__(self, args: argparse.Namespace, config: dict[str, str]):
        self._args = args
        self._config = config

    def get(self, name: str, default=None, convert=str):
        flag = getattr(self._args, name.replace("-", "_"), None)
        if flag is not None:
            return flag
        if name in self._config:
            return convert(self._config[name])
        return default

    def require(self, name: str, convert=str):
        value = self.get(name, None, convert)
        if value is None:
            raise ValueError(f"missing required option --{name}")
        return value


def _parse_models(raw: str) -> tuple[str, ...]:
    models = tuple(m.strip() for m in raw.split(",") if m.strip())
    unknown = set(models) - set(MODELS)
    if unknown:
        raise ValueError(f"unknown models {sorted(unknown)}; expected among {MODELS}")
    return models


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.split(",") if v.strip())


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value file supplying defaults for any flag")
    sub.add_argument("--seed", type=int, help="root RNG seed (generated and printed if omitted)")
    sub.add_argument("--out", help="output path (stdout for scan/search/attack if omitted)")


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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw one random graph and write its edge list")
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--n", type=int)
    _add_model_flags(p)
    _add_common(p)

    p = sub.add_parser("scan-ec", help="list exceptional configurations at a vertex")
    p.add_argument("--in", help="edge-list file")
    p.add_argument("--vertex", type=int)
    p.add_argument("--orders", type=_parse_ints, help="comma list among 2,3 (default 2,3)")
    p.add_argument("--distance", type=int, choices=(1, 2), help="hop-distance cap (default none)")
    _add_common(p)

    p = sub.add_parser("search", help="success-probability trace of the search walk")
    p.add_argument("--in", help="edge-list file")
    p.add_argument("--marked", type=_parse_ints, help="comma list of marked vertices")
    p.add_argument("--t-max", type=int, dest="t_max")
    _add_common(p)

    p = sub.add_parser("attack", help="attack one marked vertex with a random EC")
    p.add_argument("--in", help="edge-list file")
    p.add_argument("--marked", type=int, help="the single originally marked vertex")
    p.add_argument("--orders", type=_parse_ints, help="comma list among 2,3 (default 2)")
    p.add_argument("--distance", type=int, choices=(1, 2), help="hop-distance cap (default none)")
    p.add_argument("--t-pen", type=int, dest="t_pen", help="penalty steps (default ceil(ln n))")
    _add_common(p)

    for name, extra in (("fig1", "EC-formation probabilities"),
                        ("fig2", "attack and strong-attack efficiencies"),
                        ("fig3", "complexity-exponent regressions")):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--model", type=_parse_models, help="comma list among er,ws,ba (default all)")
        p.add_argument("--n", type=int, help="single graph order (shorthand grid)")
        p.add_argument("--n-grid", dest="n_grid", help="start:stop:step, stop inclusive")
        p.add_argument("--samples", type=int, help="samples per (model, n)")
        p.add_argument("--workers", type=int, help=f"process count (default ${'{'}QWATTACK_WORKERS{'}'} or 1)")
        if name != "fig1":
            p.add_argument("--t-pen", type=int, dest="t_pen", help="penalty steps (default ceil(ln n))")
        if name == "fig3":
            p.add_argument("--in", help="existing fig2 CSV to regress instead of running a sweep")
            p.add_argument("--samples-out", dest="samples_out", help="also write the underlying fig2 CSV here")
        _add_model_flags(p)
        _add_common(p)

    return parser


def _resolve_seed(opts: _Options) -> int:
    seed = opts.get("seed", None, int)
    if seed is None:
        seed = secrets.randbits(32)
        print(f"seed: {seed}", file=sys.stderr)
    return seed


@contextmanager
def _output(opts: _Options):
    """The --out file, closed on exit, or stdout when --out is not given."""
    path = opts.get("out")
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        yield fh


def _model_values(opts: _Options) -> dict:
    """The model flags given, as the fields ModelParams and ExperimentConfig share."""
    flags = (("er_p", "p", float), ("ws_k", "k", int), ("ws_beta", "beta", float), ("ba_m0", "m0", int))
    given = ((name, opts.get(flag, None, convert)) for name, flag, convert in flags)
    return {name: value for name, value in given if value is not None}


def _cmd_generate(opts: _Options) -> int:
    model = opts.require("model")
    n = opts.require("n", int)
    seed = _resolve_seed(opts)
    graph = generate_graph(ModelParams(model=model, **_model_values(opts)), n, seed=seed)
    out = opts.require("out")
    write_edge_list(graph, out)
    print(f"wrote {model} graph n={graph.n} edges={graph.num_edges} to {out}", file=sys.stderr)
    return 0


def _cmd_scan_ec(opts: _Options) -> int:
    graph = read_edge_list(opts.require("in"))
    vertex = opts.require("vertex", int)
    orders = opts.get("orders", (2, 3), _parse_ints)
    distance = opts.get("distance", None, int)
    configs = find_ec_within_distance(graph, vertex, distance, orders)
    with _output(opts) as fh:
        rows = ((ec.anchor, ec.kind.value, ec.vertices) for ec in configs)
        write_csv(fh, ("anchor", "kind", "vertices"), rows)
    return 0


def _cmd_search(opts: _Options) -> int:
    graph = read_edge_list(opts.require("in"))
    marked = opts.require("marked", _parse_ints)
    t_max = opts.require("t-max", int)
    trace = probability_trace(graph, marked, t_max)
    with _output(opts) as fh:
        write_csv(fh, ("t", "probability"), enumerate(trace))
    return 0


def _cmd_attack(opts: _Options) -> int:
    graph = read_edge_list(opts.require("in"))
    anchor = opts.require("marked", int)
    seed = _resolve_seed(opts)
    orders = opts.get("orders", (2,), _parse_ints)
    distance = opts.get("distance", None, int)
    t_pen = opts.get("t-pen", default_t_pen(graph.n), int)
    configs = find_ec_within_distance(graph, anchor, distance, orders)
    if not configs:
        raise ValueError(
            f"no exceptional configuration of orders {sorted(orders)} containing vertex {anchor}"
        )
    rng = np.random.default_rng(seed)
    ec = configs[int(rng.integers(len(configs)))]
    report = evaluate_attack(graph, {anchor}, ec, t_pen, model="file", seed=seed)
    with _output(opts) as fh:
        write_csv(fh, CSV_COLUMNS, [astuple(report)])
    return 0


def _experiment_config(name: str, opts: _Options) -> ExperimentConfig:
    single_n = opts.get("n", None, int)
    grid_raw = opts.get("n-grid", None)
    if single_n is not None and grid_raw is not None:
        raise ValueError("give either --n or --n-grid, not both")
    grid = () if grid_raw is None else expand_grid(grid_raw)
    if single_n is not None:
        grid = (single_n,)
    default_samples = 50 if name == "fig1" else 20
    return ExperimentConfig(
        experiment=name,
        models=opts.get("model", MODELS, _parse_models),
        n_grid=grid,
        samples_per_n=opts.get("samples", default_samples, int),
        t_pen=opts.get("t-pen", None, int),
        root_seed=_resolve_seed(opts),
        workers=opts.get("workers", default_workers(), int),
        **_model_values(opts),
    )


def _cmd_fig1(opts: _Options) -> int:
    config = _experiment_config("fig1", opts)
    rows = run_fig1(config)
    out = opts.require("out")
    write_fig1_csv(rows, out)
    regens = sum(r.regens for r in rows) // len(PANELS)
    print(f"fig1: {len(rows)} rows to {out} (graph regenerations: {regens})", file=sys.stderr)
    return 0


def _cmd_fig2(opts: _Options) -> int:
    config = _experiment_config("fig2", opts)
    reports = run_fig2(config)
    out = opts.require("out")
    write_fig2_csv(reports, out)
    regens = sum(r.graph_regens for r in reports)
    retries = sum(r.anchor_retries for r in reports)
    print(
        f"fig2: {len(reports)} rows to {out} "
        f"(graph regenerations: {regens}, anchor retries: {retries})",
        file=sys.stderr,
    )
    return 0


# the options that shape a sweep, which fig3 --in does not run
_SWEEP_OPTIONS = ("n", "n-grid", "samples", "t-pen", "workers", "seed", "p", "k", "beta", "m0")


def _cmd_fig3(opts: _Options) -> int:
    infile = opts.get("in")
    if infile is None:
        labeled, reports = run_fig3(_experiment_config("fig3", opts))
    else:
        given = [f"--{name}" for name in _SWEEP_OPTIONS if opts.get(name) is not None]
        if given:
            raise ValueError(f"--in regresses {infile} and runs no sweep; drop {', '.join(given)}")
        reports = read_fig2_csv(infile)
        present = tuple(m for m in MODELS if any(r.model == m for r in reports))
        if not present:
            raise ValueError(f"{infile} has no rows of the models {', '.join(MODELS)}")
        models = opts.get("model", present, _parse_models)
        labeled, reports = run_fig3(ExperimentConfig("fig3", models=models), reports)
    out = opts.require("out")
    write_fig3_csv(labeled, out)
    samples_out = opts.get("samples-out")
    if samples_out:
        write_fig2_csv(reports, samples_out)
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


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(sys.argv[1:]) if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    config = {}
    if getattr(args, "config", None):
        try:
            config = _load_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    # a config key is a flag of the subcommand without its leading dashes
    keys = {dest.replace("_", "-") for dest in vars(args)} - {"command", "config"}
    unknown = sorted(set(config) - keys)
    if unknown:
        print(f"error: {args.config}: unknown config keys {unknown} for {args.command}", file=sys.stderr)
        return 1
    opts = _Options(args, config)
    try:
        return _COMMANDS[args.command](opts)
    except (ValueError, OSError, RuntimeError, ArithmeticError, EdgeListParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
