"""Search instances, expected runtime, attacks, and efficiency measures.

A search instance fixes the graph, the marked set and the measurement time
t; the walk is always the graph's uniform chain, started from
szegedy.initial_state(szegedy.uniform_stochastic(graph)). An
attack replaces the marked set with a superset forming an exceptional
configuration; it can never touch the engine, the graph, the walk, or t.
Efficiency compares expected runtimes at the common t; strong efficiency
lets the defender re-optimize the measurement time on the attacked instance.
"""

import math
from dataclasses import dataclass, field, fields, replace
from numbers import Real
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .exceptional import ExceptionalConfiguration
from .graphs import Graph
from .szegedy import WalkOperator, initial_state, probability_trace, uniform_stochastic

_MAX_OPT_STEPS = 10_000_000


def default_t_pen(n: int) -> int:
    """Optimizer penalty ceil(ln n) used by the experiments."""
    return math.ceil(math.log(n))


@dataclass(frozen=True)
class SearchInstance:
    """A Szegedy spatial-search run: (graph, marked set, measurement time)."""

    graph: Graph
    marked: frozenset[int]
    t: int

    def __post_init__(self):
        object.__setattr__(self, "marked", frozenset(int(v) for v in self.marked))
        if not self.marked:
            raise ValueError("marked set must be nonempty")
        if not all(0 <= v < self.graph.n for v in self.marked):
            raise ValueError(f"marked set {sorted(self.marked)} out of range for n={self.graph.n}")
        if self.t < 0:
            raise ValueError(f"measurement time must be nonnegative, got {self.t}")


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


def probability_at(graph: Graph, marked: Iterable[int], t: int) -> float:
    """Success probability after exactly t steps of the search walk."""
    inst = SearchInstance(graph, marked, t)  # validates the marked set and t
    return float(probability_trace(graph, inst.marked, t)[t])


def apply_attack(inst: SearchInstance, ec: ExceptionalConfiguration) -> SearchInstance:
    """Mark the configuration's vertices on top of the instance's marked set.

    The graph and the measurement time are untouched; only the marked
    set grows. The configuration must be anchored at an already-marked
    vertex and must add at least one new vertex.
    """
    if ec.anchor not in inst.marked:
        raise ValueError(f"configuration anchor {ec.anchor} is not a marked vertex")
    if set(ec.vertices) <= inst.marked:
        raise ValueError(f"configuration {ec.vertices} adds no new marked vertex")
    return replace(inst, marked=frozenset(inst.marked | set(ec.vertices)))


class OptimizeResult(NamedTuple):
    t_opt: int
    T_opt: float
    p_opt: float


def optimize_measurement_time(
    graph: Graph, marked: Iterable[int], t_pen: int = 0
) -> OptimizeResult:
    """Globally minimize (t + t_pen) / p(t) over integer measurement times.

    Scans t = 0, 1, 2, ... tracking the best value B and stops as soon as
    t + t_pen >= B: every later time t' then costs at least t' + t_pen >= B
    because p <= 1, so the scan provably contains the global optimum. Ties
    resolve to the smallest t.
    """
    if t_pen < 0:
        raise ValueError(f"t_pen must be nonnegative, got {t_pen}")
    start = initial_state(uniform_stochastic(graph))
    probs = WalkOperator(start.space, marked).probabilities(start)
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


@dataclass(frozen=True)
class AttackReport:
    """One attacked instance, flattened to the experiment CSV row schema.

    Construction rejects NaN, probabilities out of range, negative orders,
    times and runtimes, and an eff or T_opt inconsistent with the rest.
    """

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
        nan = [f.name for f in fields(self) if f.type is float and math.isnan(getattr(self, f.name))]
        if nan:
            raise ValueError(f"{', '.join(nan)} must not be NaN")
        if not 0 < self.p_base <= 1:
            raise ValueError(f"p_base must be in (0, 1], got {self.p_base}")
        if not 0 <= self.p_attacked <= 1:
            raise ValueError(f"p_attacked must be in [0, 1], got {self.p_attacked}")
        for name in ("n", "t_base", "T_base", "T_attacked", "t_opt", "T_opt", "t_pen"):
            if getattr(self, name) < 0:  # a T field may be inf
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        drift = abs(self.eff - (1.0 - self.p_attacked / self.p_base))
        if drift > 1e-12:
            raise ValueError(f"eff inconsistent with probabilities (drift {drift})")
        if self.T_opt > self.T_attacked * (1 + 1e-12):
            raise ValueError("re-optimized runtime exceeds the attacked runtime")


def evaluate_attack(
    graph: Graph,
    marked: Iterable[int],
    ec: ExceptionalConfiguration,
    t_pen: int,
    model: str = "",
    seed: int = 0,
    graph_regens: int = 0,
    anchor_retries: int = 0,
) -> AttackReport:
    """Full attack evaluation: clean optimum, attacked at the common time, defense.

    The base measurement time is the clean instance's optimal time under the
    same penalty; the attacked instance is measured at that same time, and
    the defender's re-optimized time and runtime complete the report. The
    penalty must be at least 1: with none both optima sit at t = 0 with
    T_opt = 0, and the strong efficiency 1 - T_base / T_opt is undefined.
    """
    if t_pen < 1:
        raise ValueError(f"t_pen must be at least 1, got {t_pen}")
    marked = frozenset(int(v) for v in marked)
    base_opt = optimize_measurement_time(graph, marked, t_pen)
    base = SearchInstance(graph, marked, base_opt.t_opt)
    attacked = apply_attack(base, ec)
    p_att = probability_at(graph, attacked.marked, base_opt.t_opt)
    att_opt = optimize_measurement_time(graph, attacked.marked, t_pen)
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
