"""Search instances, expected runtime, attacks, and efficiency measures.

A search instance fixes the graph, the marked set, the measurement time t,
and the chain parametrizing the walk. An attack replaces the marked set with
a superset forming an exceptional configuration; it can never touch the
engine, the graph, the chain, or t. Efficiency compares expected runtimes
at the common t; strong efficiency lets the defender re-optimize the
measurement time on the attacked instance.
"""

import math
from dataclasses import dataclass, field, replace
from numbers import Real
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .exceptional import ExceptionalConfiguration
from .graphs import Graph
from .szegedy import (
    SearchStart,
    StochasticMatrix,
    WalkOperator,
    search_start,
    uniform_stochastic,
)

_MAX_OPT_STEPS = 10_000_000


def default_t_pen(n: int) -> int:
    """Optimizer penalty ceil(ln n) used by the experiments."""
    return math.ceil(math.log(n))


@dataclass(frozen=True)
class SearchInstance:
    """A Szegedy spatial-search run: (graph, marked set, measurement time, chain)."""

    graph: Graph
    marked: frozenset[int]
    t: int
    chain: Optional[StochasticMatrix] = None  # None means the uniform chain

    def __post_init__(self):
        object.__setattr__(self, "marked", frozenset(int(v) for v in self.marked))
        if not self.marked:
            raise ValueError("marked set must be nonempty")
        if not all(0 <= v < self.graph.n for v in self.marked):
            raise ValueError(f"marked set {sorted(self.marked)} out of range for n={self.graph.n}")
        if self.t < 0:
            raise ValueError(f"measurement time must be nonnegative, got {self.t}")
        if self.chain is not None and self.chain.n != self.graph.n:
            raise ValueError("chain dimension does not match the graph")

    def resolved_chain(self) -> StochasticMatrix:
        return self.chain if self.chain is not None else uniform_stochastic(self.graph)


def expected_runtime(t: int, p: float, t_pen: int = 0) -> float:
    """Expected steps (t + t_pen) / p of the repeat-until-success process.

    p = 0 returns the infinite-runtime sentinel rather than raising: an
    attack driving the success probability to zero is simply reported as
    infinitely expensive at that measurement time.
    """
    if t < 0 or t_pen < 0:
        raise ValueError("t and t_pen must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if p == 0.0:
        return math.inf
    return (t + t_pen) / p


def efficiency(p_base: float, p_attacked: float) -> float:
    """Attack efficiency 1 - p_attacked / p_base at a common measurement time."""
    if p_base <= 0:
        raise ValueError(f"base probability must be positive, got {p_base}")
    return 1.0 - p_attacked / p_base


def _probabilities(start: SearchStart, marked: Iterable[int]) -> Iterator[float]:
    """p(0), p(1), ... of the search walk for the marked set, stepping lazily."""
    return WalkOperator(start.chain, marked, space=start.space).probabilities(start.state)


def _probability_at(start: SearchStart, marked: Iterable[int], t: int) -> float:
    return next(islice(_probabilities(start, marked), t, None))


def probability_at(
    graph: Graph, marked: Iterable[int], t: int, chain: Optional[StochasticMatrix] = None
) -> float:
    """Success probability after exactly t steps of the search walk."""
    if t < 0:
        raise ValueError(f"measurement time must be nonnegative, got {t}")
    marked = frozenset(int(v) for v in marked)
    if not marked:
        raise ValueError("marked set must be nonempty")
    return _probability_at(search_start(graph, chain), marked, t)


def instance_probability(inst: SearchInstance) -> float:
    """Success probability of the instance at its own measurement time."""
    return probability_at(inst.graph, inst.marked, inst.t, inst.chain)


def apply_attack(inst: SearchInstance, ec: ExceptionalConfiguration) -> SearchInstance:
    """Mark the configuration's vertices on top of the instance's marked set.

    The graph, chain, and measurement time are untouched; only the marked
    set grows. The configuration must be anchored at an already-marked
    vertex and must add at least one new vertex.
    """
    if ec.anchor not in inst.marked:
        raise ValueError(f"configuration anchor {ec.anchor} is not a marked vertex")
    added = set(ec.vertices) - inst.marked
    if not added:
        raise ValueError(f"configuration {ec.vertices} adds no new marked vertex")
    return replace(inst, marked=frozenset(inst.marked | set(ec.vertices)))


class OptimizeResult(NamedTuple):
    t_opt: int
    T_opt: float
    p_opt: float


def optimize_measurement_time(
    graph: Graph,
    marked: Iterable[int],
    chain: Optional[StochasticMatrix] = None,
    t_pen: int = 0,
) -> OptimizeResult:
    """Globally minimize (t + t_pen) / p(t) over integer measurement times.

    Scans t = 0, 1, 2, ... tracking the best value B and stops as soon as
    t + t_pen >= B: every later time t' then costs at least t' + t_pen >= B
    because p <= 1, so the scan provably contains the global optimum. Ties
    resolve to the smallest t.
    """
    if t_pen < 0:
        raise ValueError(f"t_pen must be nonnegative, got {t_pen}")
    return _optimize(search_start(graph, chain), marked, t_pen)


def _optimize(start: SearchStart, marked: Iterable[int], t_pen: int) -> OptimizeResult:
    probs = _probabilities(start, marked)
    p = next(probs)
    if p <= 0.0:
        raise ValueError("initial success probability is zero; marked set must be nonempty")
    best = OptimizeResult(0, expected_runtime(0, p, t_pen), p)
    t = 0
    while True:
        t += 1
        if t + t_pen >= best.T_opt:
            return best
        if t > _MAX_OPT_STEPS:
            raise RuntimeError("measurement-time scan exceeded the step budget")
        p = next(probs)
        if p > 0.0:
            T = (t + t_pen) / p
            if T < best.T_opt:
                best = OptimizeResult(t, T, p)


def attack_efficiency(inst: SearchInstance, attacked: SearchInstance) -> float:
    """1 - p(attacked) / p(inst) at the shared measurement time.

    Identical to 1 - T(inst)/T(attacked) because t (and any penalty) is
    common to both instances. Positive means the attack slowed the search;
    the sign is preserved when an attack accidentally helps.
    """
    if inst.t != attacked.t:
        raise ValueError(f"instances disagree on measurement time: {inst.t} vs {attacked.t}")
    if inst.graph is not attacked.graph and inst.graph != attacked.graph:
        raise ValueError("instances disagree on the graph")
    if inst.chain != attacked.chain:
        raise ValueError("instances disagree on the chain")
    p_base = instance_probability(inst)
    if p_base <= 0:
        raise ValueError("base instance has zero success probability at its measurement time")
    return efficiency(p_base, instance_probability(attacked))


def strong_attack_efficiency(
    inst: SearchInstance, attacked_marked: Iterable[int], t_pen: int = 0
) -> float:
    """Efficiency against a defender who re-optimizes the measurement time.

    1 - T_base(t) / min_tau T_attacked(tau); at most the plain efficiency's
    optimistic reading, and <= 0 whenever the attack is the identity and t
    was already optimal.
    """
    p_base = instance_probability(inst)
    if p_base <= 0:
        raise ValueError("base instance has zero success probability at its measurement time")
    T_base = expected_runtime(inst.t, p_base, t_pen)
    opt = optimize_measurement_time(inst.graph, attacked_marked, inst.chain, t_pen)
    return 1.0 - T_base / opt.T_opt


@dataclass(frozen=True)
class AttackReport:
    """One attacked instance, flattened to the experiment CSV row schema."""

    model: str
    n: int
    seed: int
    anchor: int
    added: tuple[int, ...]
    kind: str
    t_base: int
    p_base: float
    T_base: float
    p_attacked: float
    T_attacked: float
    eff: float
    t_opt: int
    T_opt: float
    strong_eff: float
    t_pen: int
    graph_regens: int = 0
    anchor_retries: int = 0

    def __post_init__(self):
        if self.p_base > 0 and self.p_attacked >= 0:
            drift = abs(self.eff - (1.0 - self.p_attacked / self.p_base))
            if drift > 1e-12:
                raise ValueError(f"eff inconsistent with probabilities (drift {drift})")
        if self.T_opt > self.T_attacked * (1 + 1e-12):
            raise ValueError("re-optimized runtime exceeds the attacked runtime")


CSV_COLUMNS = (
    "model", "n", "seed", "anchor", "added_vertices", "kind",
    "t_base", "p_base", "T_base", "p_attacked", "T_attacked", "eff",
    "t_opt", "T_opt", "strong_eff", "t_pen", "graph_regens", "anchor_retries",
)


def report_row(report: AttackReport) -> list[str]:
    """Serialize a report to the CSV row (full float round-trip precision)."""
    added = ";".join(str(v) for v in report.added)
    vals = (
        report.model, report.n, report.seed, report.anchor, added, report.kind,
        report.t_base, report.p_base, report.T_base, report.p_attacked,
        report.T_attacked, report.eff, report.t_opt, report.T_opt,
        report.strong_eff, report.t_pen, report.graph_regens, report.anchor_retries,
    )
    return [repr(float(v)) if isinstance(v, float) else str(v) for v in vals]


def evaluate_attack(
    graph: Graph,
    marked: Iterable[int],
    ec: ExceptionalConfiguration,
    t_pen: int,
    chain: Optional[StochasticMatrix] = None,
    model: str = "",
    seed: int = 0,
    graph_regens: int = 0,
    anchor_retries: int = 0,
) -> AttackReport:
    """Full attack evaluation: clean optimum, attacked at the common time, defense.

    The base measurement time is the clean instance's optimal time under the
    same penalty; the attacked instance is measured at that same time, and
    the defender's re-optimized time and runtime complete the report. The
    three walks share one chain, pair space and start state.
    """
    marked = frozenset(int(v) for v in marked)
    start = search_start(graph, chain)
    base_opt = _optimize(start, marked, t_pen)
    base = SearchInstance(graph, marked, base_opt.t_opt, chain)
    attacked = apply_attack(base, ec)
    p_att = _probability_at(start, attacked.marked, base_opt.t_opt)
    att_opt = _optimize(start, attacked.marked, t_pen)
    return AttackReport(
        model=model,
        n=graph.n,
        seed=seed,
        anchor=ec.anchor,
        added=ec.added(marked),
        kind=ec.kind.value,
        t_base=base_opt.t_opt,
        p_base=base_opt.p_opt,
        T_base=base_opt.T_opt,
        p_attacked=p_att,
        T_attacked=expected_runtime(base_opt.t_opt, p_att, t_pen),
        eff=efficiency(base_opt.p_opt, p_att),
        t_opt=att_opt.t_opt,
        T_opt=att_opt.T_opt,
        strong_eff=1.0 - base_opt.T_opt / att_opt.T_opt,
        t_pen=t_pen,
        graph_regens=graph_regens,
        anchor_retries=anchor_retries,
    )


@dataclass(frozen=True)
class EfficiencyStats:
    """Distribution summary of efficiencies over a sample of attacked instances."""

    count: int
    max: float
    min: float
    mean: float
    quantiles: dict[float, float] = field(hash=False)
    threshold_probs: dict[float, float] = field(hash=False)


def efficiency_statistics(
    samples: Sequence,
    field_name: str = "eff",
    thresholds: Sequence[float] = (0.5, 0.7, 0.8, 0.9),
    quantiles: Sequence[float] = (0.25, 0.5, 0.75),
) -> EfficiencyStats:
    """Max/min/mean, quantiles, and the almost-sure estimator P(eff >= E).

    Accepts AttackReports (reading `field_name`) or raw numbers.
    """
    if len(samples) == 0:
        raise ValueError("sample set must be nonempty")
    vals = np.array(
        [float(s) if isinstance(s, Real) else float(getattr(s, field_name)) for s in samples]
    )
    return EfficiencyStats(
        count=vals.size,
        max=float(vals.max()),
        min=float(vals.min()),
        mean=float(vals.mean()),
        quantiles={float(q): float(np.quantile(vals, q)) for q in quantiles},
        threshold_probs={float(e): float(np.mean(vals >= e)) for e in thresholds},
    )
