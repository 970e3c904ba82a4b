"""Acceptance suite: one test per stated criterion, at the stated tolerances.

Two desk-scale clauses are expected to fail against the physics this
simulator (faithfully) produces and are left red rather than weakened:
the BA-vs-ER interquartile comparison (c08) and the exponent-growth margin
on the shortened grid (c09). The full-range companion test demonstrates the
exponent growth the attack is meant to show.
"""

import itertools
import math

import numpy as np
import pytest

from _oracles import (
    brute_force_ecs,
    brute_force_optimum,
    complete,
    cycle,
    dense_search_step,
    dense_trace,
    dense_uniform_chain,
    max_marked_first_mass,
    plus_one_eigenspace,
    star,
)
from qwattack.attack import default_t_pen, optimize_measurement_time, probability_at
from qwattack.exceptional import find_2ec, find_3ec
from qwattack.experiments import (
    ExperimentConfig,
    ec_formation_probability,
    fit_loglog,
    regress_reports,
    run_fig1,
    run_fig2,
    write_fig1_csv,
    write_fig2_csv,
)
from qwattack.graphs import Graph, ModelParams, derive_seed, generate_graph, is_connected
from qwattack.szegedy import (
    PairSpace,
    WalkOperator,
    WalkState,
    initial_state,
    probability_trace,
    success_probability,
    uniform_stochastic,
)

ROOT_SEED = 0
WORKERS = 4


def connected_model_sample(model, n, *parts):
    params = ModelParams(model=model)
    for attempt in range(200):
        g = generate_graph(params, n, seed=derive_seed(*parts, attempt))
        if is_connected(g):
            return g
    raise RuntimeError(f"no connected {model} sample at n={n}")


def test_c01_initial_measurement_law():
    # 200 random instances across all three models, n <= 300:
    # p(0) = |S|/n within 1e-12
    rng = np.random.default_rng(ROOT_SEED)
    checked = 0
    while checked < 200:
        model = ("er", "ws", "ba")[checked % 3]
        n = int(rng.integers(50, 301))
        g = connected_model_sample(model, n, 1, checked)
        k = int(rng.integers(1, 4))
        marked = sorted(rng.choice(n, size=k, replace=False).tolist())
        p0 = probability_trace(g, marked, 0)[0]
        assert abs(p0 - k / n) <= 1e-12, f"{model} n={n} S={marked}: p0={p0!r}"
        checked += 1


def test_c02_unitarity_and_involution():
    # 50 random graphs (n <= 50), random states: one application preserves
    # the norm within 1e-10 and each squared reflection is the identity
    # within 1e-10
    rng = np.random.default_rng(ROOT_SEED + 2)
    for i in range(50):
        model = ("er", "ws", "ba")[i % 3]
        n = int(rng.integers(10, 51))
        g = connected_model_sample(model, n, 2, i)
        chain = uniform_stochastic(g)
        space = PairSpace.from_graph(g)
        marked = [int(rng.integers(n))]
        op = WalkOperator(chain, marked, space=space)
        amps = rng.normal(size=space.size)
        state = WalkState(space, amps / np.linalg.norm(amps))
        stepped = op.apply(state)
        assert abs(stepped.norm() - state.norm()) <= 1e-10
        r1_twice = op.reflect_first(op.reflect_first(state))
        r2_twice = op.reflect_second(op.reflect_second(state))
        assert np.max(np.abs(r1_twice.amps - state.amps)) <= 1e-10
        assert np.max(np.abs(r2_twice.amps - state.amps)) <= 1e-10


def test_c03_dense_oracle_equivalence():
    # named graphs plus connected model samples on n <= 8: 20-step traces
    # match the dense two-reflection (plus oracle) operator within 1e-10
    graphs = [cycle(4), complete(2), complete(3), star(4)]
    for model in ("er", "ws", "ba"):
        for n in (5, 6, 7, 8):
            graphs.append(connected_model_sample(model, n, 3, n))
    for g in graphs:
        marked_sets = [[0]]
        if g.n >= 4:
            marked_sets.append([0, g.n - 1])
        for marked in marked_sets:
            sparse = probability_trace(g, marked, 20)
            dense = dense_trace(g, marked, 20)
            assert np.max(np.abs(sparse - dense)) <= 1e-10, f"n={g.n} S={marked}"


def test_c04_ec_brute_force_equivalence():
    # enumerators match exhaustive connected-subset filtering on an
    # n <= 8 corpus: every graph on 4 vertices plus named graphs plus
    # connected model samples at n = 5..8
    graphs = [cycle(4), cycle(5), cycle(8), complete(2), complete(3), complete(4), star(4)]
    pairs4 = list(itertools.combinations(range(4), 2))
    for mask in range(1 << 6):
        graphs.append(Graph(4, [e for i, e in enumerate(pairs4) if mask >> i & 1]))
    for model in ("er", "ws", "ba"):
        for n in (5, 6, 7, 8):
            graphs.append(connected_model_sample(model, n, 4, n))
    for g in graphs:
        for v in range(g.n):
            expected = brute_force_ecs(g, v)
            got = {(ec.vertices, ec.kind.value) for ec in find_2ec(g, v) + find_3ec(g, v)}
            assert got == expected, f"n={g.n} edges={list(g.edges())} v={v}"


def test_c05_stationary_state_witness():
    # C_n (n <= 10) with an adjacent marked pair: the dense walk operator
    # has a +1 eigenvector with >= 99% squared norm on marked-first pairs
    for n in range(4, 11):
        g = cycle(n)
        marked = [0, 1]
        W = dense_search_step(dense_uniform_chain(g), marked)
        basis = plus_one_eigenspace(W)
        assert basis.shape[1] > 0, f"C{n}: no +1 eigenvector found"
        mass = max_marked_first_mass(basis, marked, n)
        assert mass >= 0.99, f"C{n}: best marked-first mass {mass}"


@pytest.mark.slow
def test_c06_optimizer_matches_brute_force():
    # 50 random instances (n <= 200): exhaustive scan over [0, 3*T_opt]
    # finds no better measurement time than the stopping rule's optimum
    rng = np.random.default_rng(ROOT_SEED + 6)
    for i in range(50):
        model = ("er", "ws", "ba")[i % 3]
        n = int(rng.integers(30, 201))
        g = connected_model_sample(model, n, 6, i)
        v = int(rng.integers(n))
        marked = [v]
        if i % 2:
            ecs = find_2ec(g, v) + find_3ec(g, v)
            if ecs:
                marked = sorted(ecs[int(rng.integers(len(ecs)))].vertices)
        t_pen = default_t_pen(n)
        res = optimize_measurement_time(g, marked, t_pen=t_pen)
        horizon = 3 * int(math.ceil(res.T_opt))
        trace = probability_trace(g, marked, horizon)
        t_best, T_best = brute_force_optimum(trace, t_pen)
        assert res.t_opt == t_best, f"{model} n={n} S={marked}"
        assert res.T_opt == pytest.approx(T_best, rel=1e-12)


@pytest.mark.slow
def test_c07_fig1_reproduction_scaled():
    # WS at n in {400, 800}, 50 samples: P(order-2 or order-3 EC) >= 0.95;
    # BA at n=800: global (d=2) beats local (d=1) by more than 0.05
    for n in (400, 800):
        est = ec_formation_probability(
            ModelParams(model="ws"), n, orders=(2, 3), samples=50, seed=ROOT_SEED
        )
        assert est.probability >= 0.95, f"WS n={n}: {est.probability}"
    ba_local = ec_formation_probability(
        ModelParams(model="ba"), 800, orders=(2, 3), d=1, samples=50, seed=ROOT_SEED
    )
    ba_global = ec_formation_probability(
        ModelParams(model="ba"), 800, orders=(2, 3), d=2, samples=50, seed=ROOT_SEED
    )
    assert ba_global.probability - ba_local.probability > 0.05


_FIG2_CACHE = {}


def _fig2_at_800():
    if "reports" not in _FIG2_CACHE:
        cfg = ExperimentConfig(
            experiment="fig2",
            models=("er", "ws", "ba"),
            n_grid=(800,),
            samples_per_n=20,
            root_seed=ROOT_SEED,
            workers=WORKERS,
        )
        _FIG2_CACHE["reports"] = run_fig2(cfg)
    return _FIG2_CACHE["reports"]


@pytest.mark.slow
def test_c08_fig2_efficiency_levels():
    # n=800, 20 samples per model: median eff >= 0.7 (ER) and >= 0.8 (WS);
    # median strong_eff >= 0.4 for both
    reports = _fig2_at_800()
    eff = {m: np.median([r.eff for r in reports if r.model == m]) for m in ("er", "ws")}
    strong = {m: np.median([r.strong_eff for r in reports if r.model == m]) for m in ("er", "ws")}
    assert eff["er"] >= 0.7, f"ER median eff {eff['er']}"
    assert eff["ws"] >= 0.8, f"WS median eff {eff['ws']}"
    assert strong["er"] >= 0.4, f"ER median strong_eff {strong['er']}"
    assert strong["ws"] >= 0.4, f"WS median strong_eff {strong['ws']}"


@pytest.mark.slow
def test_c08_fig2_ba_irregularity_iqr():
    # Stated clause: the BA interquartile range of eff exceeds ER's.
    # EXPECTED RED: under the faithful construction BA's middle 50%
    # concentrates near 0.95 (its irregularity shows up as extreme
    # outliers/range, not IQR) while ER's eff is bimodal; see the analysis
    # notes. Asserted as specified, without loosening.
    reports = _fig2_at_800()
    iqr = {}
    for m in ("er", "ba"):
        effs = [r.eff for r in reports if r.model == m]
        q1, q3 = np.quantile(effs, [0.25, 0.75])
        iqr[m] = q3 - q1
    assert iqr["ba"] > iqr["er"], (
        f"BA IQR {iqr['ba']:.3f} does not exceed ER IQR {iqr['er']:.3f}; "
        "BA irregularity manifests as range/outliers at this scale"
    )


@pytest.mark.slow
def test_c09_fig3_exponent_growth_desk_grid():
    # Stated clause: on grid 100:800:100 with 20 samples,
    # alpha_attacked - alpha_ref > 0.1 for both ER and WS.
    # EXPECTED RED: over this shortened grid the per-n oscillation-phase
    # alignment of the attacked trace dominates the weak trend (measured
    # diffs across root seeds: ER -0.03..+0.35, WS -0.44..+0.01). The
    # full-range companion test below shows the growth cleanly.
    cfg = ExperimentConfig(
        experiment="fig3",
        models=("er", "ws"),
        n_grid=tuple(range(100, 801, 100)),
        samples_per_n=20,
        root_seed=ROOT_SEED,
        workers=WORKERS,
    )
    reports = run_fig2(cfg)
    diffs = {}
    for model in ("er", "ws"):
        ref, attacked = regress_reports(reports, [model])
        diffs[model] = attacked.alpha - ref.alpha
    assert diffs["er"] > 0.1 and diffs["ws"] > 0.1, (
        f"exponent growth on the desk grid: ER {diffs['er']:+.3f}, WS {diffs['ws']:+.3f}"
    )


@pytest.mark.slow
def test_c09_supplement_exponent_growth_full_range():
    # Companion evidence at full scale: over n = 100..2400 the
    # attacked expected runtime grows with a distinctly larger exponent
    # (measured ~ +0.58 for both models at these seeds).
    ns = (100, 200, 400, 800, 1600, 2400)
    for model in ("er", "ws"):
        ref_ts, att_ts = [], []
        for n in ns:
            t_pen = default_t_pen(n)
            base_log, att_log = [], []
            for i in range(10):
                params = ModelParams(model=model)
                for attempt in range(100):
                    seed = derive_seed(9, n, i, attempt)
                    g = generate_graph(params, n, seed=derive_seed(seed, 0))
                    if not is_connected(g):
                        continue
                    rng = np.random.default_rng(derive_seed(seed, 1))
                    ec = None
                    for _ in range(n):
                        v = int(rng.integers(n))
                        cands = find_2ec(g, v)
                        if cands:
                            ec = cands[int(rng.integers(len(cands)))]
                            break
                    if ec is not None:
                        break
                opt = optimize_measurement_time(g, [ec.anchor], t_pen=t_pen)
                p_att = probability_at(g, ec.vertices, opt.t_opt)
                base_log.append(math.log(opt.T_opt))
                if p_att > 0:
                    att_log.append(math.log((opt.t_opt + t_pen) / p_att))
            ref_ts.append(math.exp(np.mean(base_log)))
            att_ts.append(math.exp(np.mean(att_log)))
        ref = fit_loglog(ns, ref_ts)
        att = fit_loglog(ns, att_ts)
        assert att.alpha - ref.alpha > 0.1, (
            f"{model}: alpha_ref={ref.alpha:.3f} alpha_attacked={att.alpha:.3f}"
        )


def test_c10_determinism():
    # identical config and seed give byte-identical CSV, independent of
    # the worker count
    def fig1_bytes(workers, path):
        cfg = ExperimentConfig(
            experiment="fig1",
            models=("er", "ba"),
            n_grid=(40, 60),
            samples_per_n=6,
            root_seed=7,
            workers=workers,
        )
        write_fig1_csv(run_fig1(cfg), path)
        return path.read_bytes()

    def fig2_bytes(workers, path):
        cfg = ExperimentConfig(
            experiment="fig2",
            models=("ws",),
            n_grid=(50,),
            samples_per_n=3,
            root_seed=7,
            workers=workers,
        )
        write_fig2_csv(run_fig2(cfg), path)
        return path.read_bytes()

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as td:
        td = Path(td)
        runs1 = [fig1_bytes(w, td / f"f1_{i}.csv") for i, w in enumerate((1, 1, 2))]
        assert runs1[0] == runs1[1] == runs1[2]
        runs2 = [fig2_bytes(w, td / f"f2_{i}.csv") for i, w in enumerate((1, 2))]
        assert runs2[0] == runs2[1]
