"""Experiment harness: EC-formation scans, attack-efficiency sweeps, and
complexity-exponent regressions, emitted as CSV datasets.

Every connected graph is drawn by _connected_draws. A fig1/fig2 sample
derives its own seed from (root_seed, model, n, sample index, attempt), so
results are byte-identical for a fixed configuration regardless of the
worker count, and any CSV row can be re-derived from its recorded seed alone.
"""

import csv
import logging
import math
import os
from dataclasses import astuple, dataclass, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from . import BLAS_THREAD_VARS
from .attack import AttackReport, default_t_pen, evaluate_attack
from .exceptional import checked_orders, find_2ec, find_ec_within_distance, within_one_hop
from .graphs import MODELS, ModelParams, _pcg64_replay, derive_seed, generate_graph, is_connected

logger = logging.getLogger(__name__)

_MODEL_INDEX = {"er": 0, "ws": 1, "ba": 2}
_MAX_ATTEMPTS = 1000

PANELS = ("order2", "order23", "order23_d1")
_PANEL_SPEC = {
    "order2": ((2,), None),
    "order23": ((2, 3), None),
    "order23_d1": ((2, 3), 1),
}


def expand_grid(spec: str) -> tuple[int, ...]:
    """The orders of a 'start:stop:step' spec, stop inclusive."""
    try:
        start, stop, step = (int(p) for p in spec.split(":"))
    except ValueError:
        raise ValueError(f"grid spec must be start:stop:step of integers, got {spec!r}") from None
    if step < 1 or stop < start:
        raise ValueError(f"invalid grid spec {spec!r}")
    return tuple(range(start, stop + 1, step))


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
    er_p: Optional[float] = None
    ws_k: Optional[int] = None
    ws_beta: float = ModelParams.ws_beta
    ba_m0: int = ModelParams.ba_m0

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
        if self.t_pen is not None and self.t_pen < 1:
            raise ValueError(f"t_pen must be at least 1, got {self.t_pen}")
        if not self.models:
            raise ValueError(f"models must name at least one of {MODELS}")
        for name, values in (("models", self.models), ("graph orders", self.n_grid)):
            if len(set(values)) != len(values):  # each would be drawn and written twice
                raise ValueError(f"{name} must not repeat, got {values}")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if not 0 <= self.root_seed < 2**64:
            raise ValueError(f"root_seed must be in [0, 2**64), got {self.root_seed}")
        for model in self.models:  # every cell's draw parameters, before the first draw
            params = self.model_params(model)
            for n in self.n_grid:
                params.check(n)

    def model_params(self, model: str) -> ModelParams:
        return ModelParams(model, self.er_p, self.ws_k, self.ws_beta, self.ba_m0)

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


FIG1_COLUMNS = tuple(f.name for f in fields(Fig1Row))


def _usable_cpus() -> Optional[int]:
    """CPUs this process may run on: its affinity set where the OS has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _run_pool(worker, tasks, workers: int):
    """Map tasks preserving order, inline or over a process pool.

    The pool starts every worker at once, so the request is clamped to
    min(workers, tasks, usable CPUs), with a warning when that lowers it. Workers
    are spawned, not forked, with one BLAS thread each: a forked worker keeps
    the thread count the parent's numpy read at import, and the workers' BLAS
    threads then compete for the same cores.
    """
    cpus = _usable_cpus()
    limit = max(1, min(workers, len(tasks), cpus or 1))
    if limit < workers:
        logger.warning(
            "using %d of %d requested workers (%d tasks, %s usable CPUs)", limit, workers, len(tasks), cpus
        )
    if limit == 1:
        return [worker(t) for t in tasks]
    import multiprocessing  # here, not at the top: imports and single-worker runs skip the pool modules
    from concurrent.futures import ProcessPoolExecutor

    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(max_workers=limit, mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(worker, tasks, chunksize=1))
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _connected_draws(params: ModelParams, n: int, *seed_parts: int):
    """Connected draws in attempt order, as (attempt, attempt_seed, graph).

    Attempt k seeds with derive_seed(*seed_parts, k) and draws its graph from
    derive_seed(attempt_seed, 0); every attempt before the one yielded was a
    regeneration. Raises once _MAX_ATTEMPTS attempts are spent.
    """
    for attempt in range(_MAX_ATTEMPTS):
        attempt_seed = derive_seed(*seed_parts, attempt)
        graph = generate_graph(params, n, seed=derive_seed(attempt_seed, 0))
        if is_connected(graph):
            yield attempt, attempt_seed, graph
    raise RuntimeError(f"no connected {params.model} graph of order {n} after {_MAX_ATTEMPTS} attempts")


def _pick_2ec(graph, attempt_seed: int):
    """(2EC, failed anchor draws): up to n uniform anchors, then a uniform 2EC at
    the first anchor that has one; (None, n) when none does."""
    n = graph.n
    _, integers = _pcg64_replay(derive_seed(attempt_seed, 1))
    for retries in range(n):
        candidates = find_2ec(graph, integers(n))
        if candidates:
            return candidates[integers(len(candidates))], retries
    return None, n


def _spec_hits(graph, v: int, queries) -> list[bool]:
    """Whether each (orders, d) query, its orders from checked_orders, finds a
    configuration at v.

    An order-2 scan runs first. A 2EC at v lies within one hop, so it decides
    every query whose orders include 2, for any d; the order-3 scan runs only
    if some query with order 3 is still open."""
    has_2ec = bool(find_2ec(graph, v))
    hits = [has_2ec and 2 in orders for orders, _ in queries]
    pending = [k for k, (orders, _) in enumerate(queries) if 3 in orders and not hits[k]]
    if pending:
        found = find_ec_within_distance(graph, v, None, [3])
        for k in pending:
            hits[k] = bool(within_one_hop(graph, v, found) if queries[k][1] == 1 else found)
    return hits


def _formation_counts(params: ModelParams, n: int, specs, samples: int, *seed_parts: int):
    """(EC hits per (orders, d) spec, graph regenerations) over `samples` draws.

    Every spec is checked before the first draw. Sample i takes the first
    connected draw seeded by (*seed_parts, i) and one uniform vertex from
    derive_seed(attempt_seed, 1); _spec_hits decides every spec at that vertex.
    """
    queries = [(checked_orders(orders, d), d) for orders, d in specs]
    hits = [0] * len(specs)
    regens = 0
    for i in range(samples):
        attempt, attempt_seed, graph = next(_connected_draws(params, n, *seed_parts, i))
        regens += attempt
        v = _pcg64_replay(derive_seed(attempt_seed, 1))[1](n)
        for k, hit in enumerate(_spec_hits(graph, v, queries)):
            hits[k] += hit
    return hits, regens


_Z95 = 1.959963984540054  # the standard normal's 97.5% quantile


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if total < 1:
        raise ValueError("total must be positive")
    if not 0 <= successes <= total:
        raise ValueError(f"successes {successes} out of range for total {total}")
    phat = successes / total
    denom = 1.0 + _Z95 * _Z95 / total
    center = (phat + _Z95 * _Z95 / (2 * total)) / denom
    half = _Z95 * math.sqrt(phat * (1 - phat) / total + _Z95 * _Z95 / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class FormationEstimate:
    """Empirical probability that a random vertex admits a configuration."""

    probability: float
    ci_low: float
    ci_high: float
    samples: int
    successes: int
    regenerations: int


def ec_formation_probability(
    params: ModelParams,
    n: int,
    orders: Iterable[int] = (2, 3),
    d: Optional[int] = None,
    samples: int = 100,
    seed: int = 0,
) -> FormationEstimate:
    """Fraction of (connected graph, uniform vertex) draws with a nonempty EC set.

    Sample i draws from the seed parts (seed, i). Disconnected draws are
    regenerated with fresh derived seeds and counted. A Wilson 95% interval
    accompanies the point estimate.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    (hits,), regens = _formation_counts(params, n, [(tuple(orders), d)], samples, seed)
    return FormationEstimate(hits / samples, *wilson_interval(hits, samples), samples, hits, regens)


def _fig1_cell(task) -> list[Fig1Row]:
    """Every panel for one (model, n), sharing the sampled draws."""
    params, n, samples, root_seed = task
    specs = [_PANEL_SPEC[panel] for panel in PANELS]
    hits, regens = _formation_counts(params, n, specs, samples, root_seed, _MODEL_INDEX[params.model], n)
    return [Fig1Row(params.model, n, panel, h / samples, *wilson_interval(h, samples),
                    samples, root_seed, regens) for panel, h in zip(PANELS, hits)]


def run_fig1(config: ExperimentConfig) -> list[Fig1Row]:
    """EC-formation probabilities per (model, n, panel)."""
    tasks = [
        (config.model_params(model), n, config.samples_per_n, config.root_seed)
        for model in config.models
        for n in config.n_grid
    ]
    results = _run_pool(_fig1_cell, tasks, config.workers)
    return [row for cell in results for row in cell]


def _fig2_sample(task) -> AttackReport:
    """One attacked instance: sample a connected graph and a 2EC anchor, evaluate."""
    params, n, sample_idx, root_seed, t_pen = task
    anchor_retries = 0
    draws = _connected_draws(params, n, root_seed, _MODEL_INDEX[params.model], n, sample_idx)
    for attempt, attempt_seed, graph in draws:
        ec, retries = _pick_2ec(graph, attempt_seed)
        anchor_retries += retries
        if ec is not None:
            return evaluate_attack(graph, ec, t_pen, model=params.model, seed=attempt_seed,
                                   graph_regens=attempt, anchor_retries=anchor_retries)


def rederive_fig2_sample(params: ModelParams, n: int, attempt_seed: int, t_pen: int) -> AttackReport:
    """Reproduce a fig2 row from its recorded seed (resample counters reset)."""
    graph = generate_graph(params, n, seed=derive_seed(attempt_seed, 0))
    if not is_connected(graph):
        raise ValueError("recorded seed does not yield a connected graph")
    ec, _ = _pick_2ec(graph, attempt_seed)
    if ec is None:
        raise ValueError("recorded seed does not yield a 2EC anchor")
    return evaluate_attack(graph, ec, t_pen, model=params.model, seed=attempt_seed)


def run_fig2(config: ExperimentConfig) -> list[AttackReport]:
    """Attack-efficiency sweep: one report per (model, n, sample)."""
    tasks = [
        (config.model_params(model), n, i, config.root_seed, config.t_pen_for(n))
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


FIG3_COLUMNS = ("model", "variant", *(f.name for f in fields(RegressionResult)))
_FIG3_VARIANTS = (("ref", "T_base"), ("attacked", "T_attacked"))  # (variant, the runtime it fits)


def fit_loglog(ns: Sequence[float], ts: Sequence[float]) -> RegressionResult:
    """Fit ln T = alpha * ln n + intercept; rse is the residual standard error.

    The closed-form least-squares line, every sum an exact math.fsum: no LAPACK
    call, whose kernel OpenBLAS picks for the CPU, reaches the fit.
    """
    ns = [float(v) for v in ns]
    ts = [float(v) for v in ts]
    if len(ns) != len(ts):
        raise ValueError("n and T sequences differ in length")
    if len(ns) < 3:
        raise ValueError(f"regression needs at least 3 points, got {len(ns)}")
    if not all(math.isfinite(v) and v > 0 for v in ns + ts):
        raise ValueError("regression inputs must be finite and positive")
    x = [math.log(v) for v in ns]
    y = [math.log(v) for v in ts]
    if len(set(x)) < 2:  # every x alike: Sxx = 0 and no line is defined
        orders = ", ".join(f"{v:g}" for v in sorted(set(ns)))
        raise ValueError(f"regression needs at least 2 distinct orders n, got only n = {orders}")
    k = len(x)
    mx = math.fsum(x) / k
    my = math.fsum(y) / k
    dx = [xi - mx for xi in x]
    alpha = math.fsum(d * (yi - my) for d, yi in zip(dx, y)) / math.fsum(d * d for d in dx)
    intercept = my - alpha * mx
    resid = [yi - (alpha * xi + intercept) for xi, yi in zip(x, y)]
    rse = math.sqrt(math.fsum(r * r for r in resid) / (k - 2))
    return RegressionResult(alpha, intercept, rse, k)


def _per_n_geometric_means(pairs: Iterable[tuple[int, float]], label: str) -> tuple[list[int], list[float]]:
    """Group runtimes by n and average ln T per n. Runtimes that are not finite and
    positive are dropped, with a warning that counts them for label."""
    by_n: dict[int, list[float]] = {}
    dropped = 0
    for n, t in pairs:
        if math.isfinite(t) and t > 0:
            by_n.setdefault(n, []).append(math.log(t))
        else:
            dropped += 1
    if dropped:
        # T_attacked = inf is the most successful attack, so a drop biases the fit down
        logger.warning("fig3 %s: dropped %d non-finite or non-positive runtimes", label, dropped)
    ns = sorted(by_n)
    return ns, [math.exp(float(np.mean(by_n[n]))) for n in ns]


def regress_reports(reports: Sequence[AttackReport], models: Sequence[str]) -> list[RegressionResult]:
    """Reference and attacked complexity exponents per model, in model order.

    Returns two results per model: variant order (ref, attacked), fitting
    per-n geometric means of T_base and of T_attacked at the common time.
    Raises ValueError on a repeated model, or naming the model and variant of a failed fit.
    """
    if len(set(models)) != len(models):  # each fit would be made and written twice
        raise ValueError(f"models must not repeat, got {tuple(models)}")
    out = []
    for model in models:
        rows = [r for r in reports if r.model == model]
        for variant, field in _FIG3_VARIANTS:
            label = f"{model} {variant}"
            means = _per_n_geometric_means(((r.n, getattr(r, field)) for r in rows), label)
            try:
                out.append(fit_loglog(*means))
            except ValueError as exc:
                raise ValueError(f"{label}: {exc}") from None
    return out


def run_fig3(reports: Sequence[AttackReport], models: Sequence[str]) -> list[tuple[str, str, RegressionResult]]:
    """Complexity exponents of fig2 reports: regress_reports labeled [(model, variant, result)]."""
    results = iter(regress_reports(reports, models))
    return [(model, variant, next(results)) for model in models for variant, _ in _FIG3_VARIANTS]


def csv_field(value) -> str:
    """One CSV field: floats at full round-trip precision, tuples ';'-joined."""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):
        return ";".join(str(v) for v in value)
    return str(value)


def write_csv(fh, columns: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write the header and one line per row to an open text file, fields by csv_field."""
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(csv_field(v) for v in row) + "\n")


def _write_csv(path, columns: Sequence[str], rows: Iterable[Iterable]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        write_csv(fh, columns, rows)


def write_fig1_csv(rows: Sequence[Fig1Row], path) -> None:
    _write_csv(path, FIG1_COLUMNS, map(astuple, rows))


def write_fig2_csv(reports: Sequence[AttackReport], path) -> None:
    _write_csv(path, CSV_COLUMNS, map(astuple, reports))


def write_fig3_csv(labeled: Sequence[tuple[str, str, RegressionResult]], path) -> None:
    _write_csv(path, FIG3_COLUMNS, ((model, variant, *astuple(res)) for model, variant, res in labeled))


# the fig2 row: AttackReport's fields in order, `added` written as added_vertices
CSV_COLUMNS = tuple("added_vertices" if f.name == "added" else f.name for f in fields(AttackReport))


class Fig2CsvParseError(ValueError):
    """Raised when a fig2 CSV's header, field count or a row's values are not what the writer emits."""


def read_fig2_csv(path) -> list[AttackReport]:
    """Parse a fig2 CSV, as write_fig2_csv writes it, back into reports.

    Raises Fig2CsvParseError with the line number for a header other than
    CSV_COLUMNS, a row with the wrong field count, and a value that does not
    parse or fails the report's own checks.
    """
    reports = []
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != CSV_COLUMNS:
            raise Fig2CsvParseError(f"line 1: expected the header {','.join(CSV_COLUMNS)}")
        for row in reader:
            line = reader.line_num
            if len(row) != len(CSV_COLUMNS):
                raise Fig2CsvParseError(f"line {line}: expected {len(CSV_COLUMNS)} fields")
            try:
                reports.append(_fig2_report(row))
            except ValueError as exc:
                raise Fig2CsvParseError(f"line {line}: {exc}") from None
    return reports


def _fig2_report(row: list[str]) -> AttackReport:
    values = []
    for f, raw in zip(fields(AttackReport), row):
        values.append(tuple(int(v) for v in raw.split(";")) if f.name == "added" else f.type(raw))
    return AttackReport(*values)
