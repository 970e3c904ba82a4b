"""Experiment harness: EC-formation scans, attack-efficiency sweeps, and
complexity-exponent regressions, emitted as CSV datasets.

Every sample derives its own seed from (root_seed, model, n, sample index,
attempt), so results are byte-identical for a fixed configuration regardless
of the worker count, and any CSV row can be re-derived from its recorded
seed alone.
"""

import csv
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .attack import CSV_COLUMNS, AttackReport, default_t_pen, evaluate_attack, report_row
from .exceptional import ECKind, find_2ec, find_ec_within_distance, wilson_interval
from .graphs import MODELS, ModelParams, derive_seed, generate_graph, is_connected

WORKERS_ENV = "QWATTACK_WORKERS"

logger = logging.getLogger(__name__)

_MODEL_INDEX = {"er": 0, "ws": 1, "ba": 2}
_MAX_ATTEMPTS = 1000

PANELS = ("order2", "order23", "order23_d1")
_PANEL_SPEC = {
    "order2": ((2,), None),
    "order23": ((2, 3), None),
    "order23_d1": ((2, 3), 1),
}

FIG1_COLUMNS = ("model", "n", "panel", "probability", "ci_low", "ci_high", "samples", "seed", "regens")
FIG3_COLUMNS = ("model", "variant", "alpha", "intercept", "rse", "points")


def default_workers() -> int:
    """Worker count from the environment, defaulting to 1."""
    raw = os.environ.get(WORKERS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def expand_grid(spec) -> tuple[int, ...]:
    """'start:stop:step' (stop inclusive) or an iterable of orders."""
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be start:stop:step, got {spec!r}")
        start, stop, step = (int(p) for p in parts)
        if step < 1 or stop < start:
            raise ValueError(f"invalid grid spec {spec!r}")
        return tuple(range(start, stop + 1, step))
    return tuple(int(n) for n in spec)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration for the figure harnesses."""

    experiment: str
    models: tuple[str, ...] = MODELS
    n_grid: tuple[int, ...] = ()
    samples_per_n: int = 20
    t_pen: Optional[int] = None  # None applies the ceil(ln n) rule per n
    root_seed: int = 0
    workers: int = 1
    panels: tuple[str, ...] = PANELS
    er_p: Optional[float] = None
    ws_k: Optional[int] = None
    ws_beta: float = 0.5
    ba_m0: int = 3

    def __post_init__(self):
        if self.experiment not in ("fig1", "fig2", "fig3"):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not self.n_grid:
            grid = "100:1000:100" if self.experiment == "fig1" else "100:800:100"
            object.__setattr__(self, "n_grid", expand_grid(grid))
        if any(n < 4 for n in self.n_grid):
            raise ValueError(f"graph orders must be at least 4, got {self.n_grid}")
        if self.samples_per_n < 1:
            raise ValueError("samples_per_n must be positive")
        unknown = set(self.models) - set(MODELS)
        if unknown:
            raise ValueError(f"unknown models {sorted(unknown)}")
        unknown = set(self.panels) - set(PANELS)
        if unknown:
            raise ValueError(f"unknown panels {sorted(unknown)}")
        if self.workers < 1:
            raise ValueError("workers must be positive")

    def model_params(self, model: str) -> ModelParams:
        return ModelParams(
            model=model, er_p=self.er_p, ws_k=self.ws_k, ws_beta=self.ws_beta, ba_m0=self.ba_m0
        )

    def t_pen_for(self, n: int) -> int:
        return default_t_pen(n) if self.t_pen is None else self.t_pen


@dataclass(frozen=True)
class Fig1Row:
    """EC-formation probability for one (model, n, panel) cell."""

    model: str
    n: int
    panel: str
    probability: float
    ci_low: float
    ci_high: float
    samples: int
    seed: int
    regens: int


def _run_pool(worker, tasks, workers: int):
    """Map tasks preserving order, inline or over a process pool.

    The pool starts every worker at once, so the request is clamped to
    min(workers, tasks, CPUs), with a warning when that lowers it.
    """
    limit = max(1, min(workers, len(tasks), os.cpu_count() or 1))
    if limit < workers:
        logger.warning(
            "using %d of %d requested workers (%d tasks, %s CPUs)",
            limit, workers, len(tasks), os.cpu_count(),
        )
    if limit == 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=limit) as pool:
        return list(pool.map(worker, tasks, chunksize=1))


def _fig1_cell(task) -> list[Fig1Row]:
    """All requested panels for one (model, n), sharing the sampled draws."""
    model, n, samples, root_seed, panels, params = task
    hits = {panel: 0 for panel in panels}
    regens = 0
    for i in range(samples):
        for attempt in range(_MAX_ATTEMPTS):
            attempt_seed = derive_seed(root_seed, _MODEL_INDEX[model], n, i, attempt)
            graph = generate_graph(params, n, seed=derive_seed(attempt_seed, 0))
            if is_connected(graph):
                break
            regens += 1
        else:
            raise RuntimeError(f"no connected {model} graph of order {n}")
        rng = np.random.default_rng(derive_seed(attempt_seed, 1))
        v = int(rng.integers(n))
        for panel in panels:
            orders, d = _PANEL_SPEC[panel]
            if find_ec_within_distance(graph, v, d, orders):
                hits[panel] += 1
    rows = []
    for panel in panels:
        lo, hi = wilson_interval(hits[panel], samples)
        rows.append(
            Fig1Row(model, n, panel, hits[panel] / samples, lo, hi, samples, root_seed, regens)
        )
    return rows


def run_fig1(config: ExperimentConfig) -> list[Fig1Row]:
    """EC-formation probabilities per (model, n, panel)."""
    tasks = [
        (model, n, config.samples_per_n, config.root_seed, config.panels, config.model_params(model))
        for model in config.models
        for n in config.n_grid
    ]
    results = _run_pool(_fig1_cell, tasks, config.workers)
    return [row for cell in results for row in cell]


def _fig2_sample(task) -> AttackReport:
    """One attacked instance: sample a connected graph and a 2EC anchor, evaluate."""
    model, n, sample_idx, root_seed, t_pen, params = task
    graph_regens = 0
    anchor_retries = 0
    for attempt in range(_MAX_ATTEMPTS):
        attempt_seed = derive_seed(root_seed, _MODEL_INDEX[model], n, sample_idx, attempt)
        graph = generate_graph(params, n, seed=derive_seed(attempt_seed, 0))
        if not is_connected(graph):
            graph_regens += 1
            continue
        rng = np.random.default_rng(derive_seed(attempt_seed, 1))
        ec = None
        for _ in range(n):
            v = int(rng.integers(n))
            candidates = find_2ec(graph, v)
            if candidates:
                ec = candidates[int(rng.integers(len(candidates)))]
                break
            anchor_retries += 1
        if ec is None:
            graph_regens += 1
            continue
        return evaluate_attack(
            graph,
            {ec.anchor},
            ec,
            t_pen,
            model=model,
            seed=attempt_seed,
            graph_regens=graph_regens,
            anchor_retries=anchor_retries,
        )
    raise RuntimeError(f"no attackable {model} instance of order {n} after {_MAX_ATTEMPTS} attempts")


def rederive_fig2_sample(model: str, n: int, attempt_seed: int, t_pen: int,
                         params: Optional[ModelParams] = None) -> AttackReport:
    """Reproduce a fig2 row from its recorded seed (resample counters reset)."""
    if params is None:
        params = ModelParams(model=model)
    graph = generate_graph(params, n, seed=derive_seed(attempt_seed, 0))
    if not is_connected(graph):
        raise ValueError("recorded seed does not yield a connected graph")
    rng = np.random.default_rng(derive_seed(attempt_seed, 1))
    ec = None
    for _ in range(n):
        v = int(rng.integers(n))
        candidates = find_2ec(graph, v)
        if candidates:
            ec = candidates[int(rng.integers(len(candidates)))]
            break
    if ec is None:
        raise ValueError("recorded seed does not yield a 2EC anchor")
    return evaluate_attack(graph, {ec.anchor}, ec, t_pen, model=model, seed=attempt_seed)


def run_fig2(config: ExperimentConfig) -> list[AttackReport]:
    """Attack-efficiency sweep: one report per (model, n, sample)."""
    tasks = [
        (model, n, i, config.root_seed, config.t_pen_for(n), config.model_params(model))
        for model in config.models
        for n in config.n_grid
        for i in range(config.samples_per_n)
    ]
    return _run_pool(_fig2_sample, tasks, config.workers)


@dataclass(frozen=True)
class RegressionResult:
    """Least-squares fit of ln T against ln n: T = exp(intercept) * n^alpha."""

    alpha: float
    intercept: float
    rse: float
    points: int


def fit_loglog(ns: Sequence[float], ts: Sequence[float]) -> RegressionResult:
    """Fit ln T = alpha * ln n + intercept; rse is the residual standard error."""
    ns = np.asarray(ns, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    if ns.size != ts.size:
        raise ValueError("n and T sequences differ in length")
    if ns.size < 3:
        raise ValueError(f"regression needs at least 3 points, got {ns.size}")
    if np.any(ns <= 0) or np.any(ts <= 0) or not (np.all(np.isfinite(ns)) and np.all(np.isfinite(ts))):
        raise ValueError("regression inputs must be finite and positive")
    x = np.log(ns)
    y = np.log(ts)
    alpha, intercept = np.polyfit(x, y, 1)
    resid = y - (alpha * x + intercept)
    rse = math.sqrt(float(resid @ resid) / (x.size - 2))
    return RegressionResult(float(alpha), float(intercept), rse, int(x.size))


def _per_n_geometric_means(pairs: Iterable[tuple[int, float]]) -> tuple[list[int], list[float]]:
    """Group runtimes by n and average ln T per n (non-finite values dropped)."""
    by_n: dict[int, list[float]] = {}
    for n, t in pairs:
        if math.isfinite(t) and t > 0:
            by_n.setdefault(n, []).append(math.log(t))
    ns = sorted(by_n)
    return ns, [math.exp(float(np.mean(by_n[n]))) for n in ns]


def regress_reports(reports: Sequence[AttackReport], models: Sequence[str]) -> list[RegressionResult]:
    """Reference and attacked complexity exponents per model, in model order.

    Returns two results per model: variant order (ref, attacked), fitting
    per-n geometric means of T_base and of T_attacked at the common time.
    """
    out = []
    for model in models:
        rows = [r for r in reports if r.model == model]
        ns_ref, ts_ref = _per_n_geometric_means((r.n, r.T_base) for r in rows)
        ns_att, ts_att = _per_n_geometric_means((r.n, r.T_attacked) for r in rows)
        out.append(fit_loglog(ns_ref, ts_ref))
        out.append(fit_loglog(ns_att, ts_att))
    return out


def run_fig3(
    config: ExperimentConfig, reports: Optional[Sequence[AttackReport]] = None
) -> tuple[list[tuple[str, str, RegressionResult]], list[AttackReport]]:
    """Complexity-exponent regressions from a fig2-style sweep.

    Runs the sweep unless reports are supplied. Returns labeled regressions
    [(model, variant, result)] plus the underlying reports.
    """
    if reports is None:
        reports = run_fig2(replace(config, experiment="fig2"))
    labeled = []
    results = regress_reports(reports, config.models)
    for i, model in enumerate(config.models):
        labeled.append((model, "ref", results[2 * i]))
        labeled.append((model, "attacked", results[2 * i + 1]))
    return labeled, list(reports)


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_fig1_csv(rows: Sequence[Fig1Row], path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(FIG1_COLUMNS) + "\n")
        for r in rows:
            fh.write(
                ",".join(
                    _fmt(v)
                    for v in (
                        r.model, r.n, r.panel, r.probability, r.ci_low, r.ci_high,
                        r.samples, r.seed, r.regens,
                    )
                )
                + "\n"
            )


def write_fig2_csv(reports: Sequence[AttackReport], path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for report in reports:
            fh.write(",".join(report_row(report)) + "\n")


def write_fig3_csv(labeled: Sequence[tuple[str, str, RegressionResult]], path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(FIG3_COLUMNS) + "\n")
        for model, variant, res in labeled:
            fh.write(
                ",".join(
                    _fmt(v)
                    for v in (model, variant, res.alpha, res.intercept, res.rse, res.points)
                )
                + "\n"
            )


class Fig2CsvParseError(ValueError):
    """Raised when a fig2 CSV violates the column, field or kind contract."""


_FIG2_OPTIONAL = ("graph_regens", "anchor_retries")
_FIG2_KINDS = frozenset(kind.value for kind in ECKind)


def read_fig2_csv(path) -> list[AttackReport]:
    """Parse a fig2 CSV back into reports (resample columns optional).

    Raises Fig2CsvParseError with the line number for a missing or unknown
    column, a row with the wrong field count, an unknown kind, and a value
    that does not parse or fails the report's own consistency checks.
    """
    reports = []
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        unknown = [c for c in header if c not in CSV_COLUMNS]
        if unknown:
            raise Fig2CsvParseError(f"line 1: unknown columns {unknown}")
        missing = [c for c in CSV_COLUMNS if c not in header and c not in _FIG2_OPTIONAL]
        if missing:
            raise Fig2CsvParseError(f"line 1: missing columns {missing}")
        for row in reader:
            line = reader.line_num
            if None in row or None in row.values():
                raise Fig2CsvParseError(f"line {line}: expected {len(header)} fields")
            if row["kind"] not in _FIG2_KINDS:
                raise Fig2CsvParseError(f"line {line}: unknown kind {row['kind']!r}")
            try:
                reports.append(_fig2_report(row))
            except ValueError as exc:
                raise Fig2CsvParseError(f"line {line}: {exc}") from None
    return reports


def _fig2_report(row: dict) -> AttackReport:
    return AttackReport(
        model=row["model"],
        n=int(row["n"]),
        seed=int(row["seed"]),
        anchor=int(row["anchor"]),
        added=tuple(int(v) for v in row["added_vertices"].split(";") if v),
        kind=row["kind"],
        t_base=int(row["t_base"]),
        p_base=float(row["p_base"]),
        T_base=float(row["T_base"]),
        p_attacked=float(row["p_attacked"]),
        T_attacked=float(row["T_attacked"]),
        eff=float(row["eff"]),
        t_opt=int(row["t_opt"]),
        T_opt=float(row["T_opt"]),
        strong_eff=float(row["strong_eff"]),
        t_pen=int(row["t_pen"]),
        graph_regens=int(row.get("graph_regens", 0) or 0),
        anchor_retries=int(row.get("anchor_retries", 0) or 0),
    )
