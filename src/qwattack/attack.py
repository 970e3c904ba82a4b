"""Expected runtime, the measurement-time optimizer, attacks, and efficiency measures.

Every walk is szegedy.WalkOperator(graph, marked).probabilities(): the
graph's uniform chain, started from its uniform column superposition. An
attack is an exceptional configuration anchored at the single marked vertex:
the base search marks the anchor alone, the attacked search marks every vertex
of the configuration, and neither touches the engine, the graph, the walk, or t.
Efficiency compares expected runtimes at the common t; strong efficiency
lets the defender re-optimize the measurement time on the attacked search.
"""

import math
from dataclasses import dataclass, field, fields
from itertools import islice, tee
from numbers import Real
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .exceptional import ECKind, ExceptionalConfiguration
from .graphs import Graph
from .szegedy import WalkOperator, probability_trace

_MAX_OPT_STEPS = 10_000_000


def default_t_pen(n: int) -> int:
    """Optimizer penalty ceil(ln n) used by the experiments."""
    return math.ceil(math.log(n))


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
    return float(probability_trace(graph, marked, t)[t])


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
    return _scan(WalkOperator(graph, marked).probabilities(), t_pen)


def _scan(probs: Iterator[float], t_pen: int) -> OptimizeResult:
    """optimize_measurement_time's scan over p(0), p(1), ...: it reads p(t) only while t + t_pen < B."""
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

    Construction rejects NaN, probabilities out of range, negative counts,
    times and runtimes, vertices outside [0, n), an (anchor, added, kind)
    that is not a configuration's shape, and an eff, T_base, T_attacked,
    T_opt or strong_eff inconsistent with the rest.
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
        for name in ("n", "seed", "t_base", "T_base", "T_attacked", "t_opt", "T_opt", "t_pen",
                     "graph_regens", "anchor_retries"):
            if getattr(self, name) < 0:  # a T field may be inf
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not all(0 <= v < self.n for v in (self.anchor, *self.added)):
            raise ValueError(f"anchor {self.anchor} and added {self.added} must lie in [0, {self.n})")
        try:
            kind = ECKind(self.kind)
        except ValueError:
            raise ValueError(f"unknown kind {self.kind!r}") from None
        # the configuration's own checks: 2-3 distinct vertices, as many as the kind needs
        ec = ExceptionalConfiguration(tuple(sorted((self.anchor, *self.added))), kind, self.anchor)
        if ec.added != self.added:
            raise ValueError(f"added {self.added} must be ascending")
        drift = abs(self.eff - (1.0 - self.p_attacked / self.p_base))
        if drift > 1e-12:
            raise ValueError(f"eff inconsistent with probabilities (drift {drift})")
        if self.T_opt > self.T_attacked * (1 + 1e-12):
            raise ValueError("re-optimized runtime exceeds the attacked runtime")
        # strong_eff is undefined at T_opt = 0, so no value matches it there
        for name, want in (
            ("T_base", expected_runtime(self.t_base, self.p_base, self.t_pen)),
            ("T_attacked", expected_runtime(self.t_base, self.p_attacked, self.t_pen)),  # inf iff p is 0
            ("strong_eff", 1.0 - self.T_base / self.T_opt if self.T_opt > 0 else math.nan),
        ):
            if not math.isclose(getattr(self, name), want, rel_tol=1e-12):
                raise ValueError(f"{name} is {getattr(self, name)!r}, but the other fields give {want!r}")


def evaluate_attack(
    graph: Graph,
    ec: ExceptionalConfiguration,
    t_pen: int,
    model: str = "",
    seed: int = 0,
    graph_regens: int = 0,
    anchor_retries: int = 0,
) -> AttackReport:
    """Full attack evaluation: clean optimum, attacked at the common time, defense.

    The base search marks the configuration's anchor alone and the attacked
    search marks all of its vertices. The base measurement time is the base
    search's optimal time under the penalty; the attacked search is measured
    at that same time, and the defender's re-optimized time and runtime
    complete the report. The attacked set is walked once: its scan keeps each
    p(t) it reads, and the walk steps on to t_base if the scan stopped before
    it. The penalty must be at least 1: with none both optima sit at t = 0
    with T_opt = 0, and the strong efficiency 1 - T_base / T_opt is undefined.
    """
    if t_pen < 1:
        raise ValueError(f"t_pen must be at least 1, got {t_pen}")
    base_opt = optimize_measurement_time(graph, [ec.anchor], t_pen)
    scanned, kept = tee(WalkOperator(graph, ec.vertices).probabilities())
    att_opt = _scan(scanned, t_pen)
    p_att = next(islice(kept, base_opt.t_opt, None))
    return AttackReport(
        model=model,
        n=graph.n,
        seed=seed,
        anchor=ec.anchor,
        added=ec.added,
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
