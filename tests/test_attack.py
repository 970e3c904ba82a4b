import math

import numpy as np
import pytest

from _oracles import brute_force_optimum, complete, cycle
from qwattack import attack, experiments, szegedy
from qwattack.attack import (
    AttackReport,
    default_t_pen,
    efficiency,
    efficiency_statistics,
    evaluate_attack,
    expected_runtime,
    optimize_measurement_time,
    probability_at,
)
from qwattack.exceptional import ECKind, find_2ec, find_3ec
from qwattack.graphs import Graph, ModelParams, generate_graph, is_connected
from qwattack.szegedy import probability_trace


def connected_sample(model, n, start_seed=0):
    params = ModelParams(model=model)
    for seed in range(start_seed, start_seed + 200):
        g = generate_graph(params, n, seed=seed)
        if is_connected(g):
            return g
    raise RuntimeError("no connected sample")


class TestExpectedRuntime:
    def test_plain_arithmetic(self):
        assert expected_runtime(10, 0.5) == 20.0

    def test_certain_success(self):
        assert expected_runtime(7, 1.0) == 7.0

    def test_with_penalty(self):
        assert expected_runtime(100, 0.25, 5) == 420.0

    def test_zero_probability_is_infinite(self):
        assert expected_runtime(3, 0.0, 2) == math.inf

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            expected_runtime(-1, 0.5)
        with pytest.raises(ValueError):
            expected_runtime(1, 1.5)

    def test_default_penalty_rule(self):
        assert default_t_pen(400) == 6  # ceil(ln 400) = ceil(5.99)
        assert default_t_pen(800) == 7


class TestEfficiencyFormula:
    def test_ratio(self):
        assert efficiency(0.5, 0.1) == pytest.approx(0.8)

    def test_identity_attack_is_zero(self):
        assert efficiency(0.37, 0.37) == 0.0

    def test_negative_when_attack_helps(self):
        assert efficiency(0.2, 0.4) == pytest.approx(-1.0)

    def test_zero_base_rejected(self):
        with pytest.raises(ValueError):
            efficiency(0.0, 0.5)


class TestOptimizer:
    def test_all_marked_with_penalty(self):
        # p(t) = 1 for every t, so waiting only adds cost
        g = complete(5)
        res = optimize_measurement_time(g, range(5), t_pen=1)
        assert res == (0, 1.0, 1.0)

    def test_k2_matches_brute_force(self):
        g = complete(2)
        res = optimize_measurement_time(g, [0], t_pen=1)
        trace = probability_trace(g, [0], 3 * int(math.ceil(res.T_opt)))
        t_best, T_best = brute_force_optimum(trace, 1)
        assert (res.t_opt, res.T_opt) == (t_best, T_best)
        assert res.t_opt == 0
        assert res.T_opt == pytest.approx(2.0, abs=1e-12)
        assert res.p_opt == pytest.approx(0.5, abs=1e-12)

    def test_zero_penalty_degenerates_to_zero_time(self):
        g = cycle(6)
        res = optimize_measurement_time(g, [0], t_pen=0)
        assert res.t_opt == 0 and res.T_opt == 0.0

    @pytest.mark.parametrize("model,n,seed", [("er", 80, 0), ("ws", 60, 1), ("ba", 100, 2)])
    def test_matches_brute_force_scan(self, model, n, seed):
        g = connected_sample(model, n, seed)
        t_pen = default_t_pen(n)
        res = optimize_measurement_time(g, [1], t_pen=t_pen)
        horizon = 3 * int(math.ceil(res.T_opt))
        trace = probability_trace(g, [1], horizon)
        t_best, T_best = brute_force_optimum(trace, t_pen)
        assert res.t_opt == t_best
        assert res.T_opt == pytest.approx(T_best, rel=1e-12)

    @pytest.mark.slow
    def test_er_quantum_search_beats_exhaustive(self):
        n = 400
        g = connected_sample("er", n)
        res = optimize_measurement_time(g, [5], t_pen=default_t_pen(n))
        assert res.T_opt < n

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            optimize_measurement_time(cycle(4), [0], t_pen=-1)

    def test_ties_resolve_to_the_smallest_t(self):
        # T(0) = (0 + 1) / 0.25 and T(1) = (1 + 1) / 0.5 are both 4; T(2) = 30, and t = 3 stops
        assert attack._scan(iter([0.25, 0.5, 0.1]), t_pen=1) == (0, 4.0, 0.25)

    def test_stops_once_t_plus_penalty_reaches_the_best_runtime(self):
        # T(0) = (0 + 1) / 0.5 = 2, and at t = 1 no runtime can beat 1 + 1 = 2, so p(1) is never read
        assert attack._scan(iter([0.5]), t_pen=1) == (0, 2.0, 0.5)

    def test_step_budget_stops_the_scan(self, monkeypatch):
        # p = 1e-6 throughout: T(0) = 1e6, so only the budget can stop the scan before t = 1e6 - 1
        monkeypatch.setattr(attack, "_MAX_OPT_STEPS", 3)
        with pytest.raises(RuntimeError, match="step budget"):
            attack._scan(iter([1e-6] * 10), t_pen=1)


class TestEvaluateAttack:
    def test_report_fields_are_consistent(self):
        g = connected_sample("er", 80, 11)
        anchor = next(v for v in range(g.n) if find_2ec(g, v))
        ec = find_2ec(g, anchor)[0]
        t_pen = default_t_pen(g.n)
        report = evaluate_attack(g, ec, t_pen, model="er", seed=99)
        assert report.n == g.n
        assert report.anchor == anchor
        assert set(report.added) == set(ec.vertices) - {anchor}
        assert report.kind == "2ec_path"
        assert report.t_pen == t_pen
        assert report.T_base == pytest.approx((report.t_base + t_pen) / report.p_base)
        assert report.T_attacked == pytest.approx((report.t_base + t_pen) / report.p_attacked)
        assert report.eff == pytest.approx(1 - report.p_attacked / report.p_base, abs=1e-12)
        assert report.T_opt <= report.T_attacked + 1e-12
        assert report.strong_eff == pytest.approx(1 - report.T_base / report.T_opt, abs=1e-12)
        # the defender optimum is confirmed by a brute-force scan
        horizon = 3 * int(math.ceil(report.T_opt))
        trace = probability_trace(g, sorted({anchor} | set(ec.vertices)), horizon)
        t_best, T_best = brute_force_optimum(trace, t_pen)
        assert report.T_opt == pytest.approx(T_best, rel=1e-12)

    @pytest.mark.parametrize("graph,anchor,kind,added", [
        (complete(4), 0, ECKind.EC3_TRIANGLE, (1, 2)),
        # deg(1) = 3 = deg(0) + deg(2), and 0 is an end of the path 0-1-2
        (Graph(5, [(0, 1), (1, 2), (1, 3), (2, 4)]), 0, ECKind.EC3_PATH, (1, 2)),
    ], ids=["3ec_triangle-K4", "3ec_path-end-anchor"])
    def test_reports_the_configuration(self, graph, anchor, kind, added):
        ec = next(ec for ec in find_3ec(graph, anchor) if ec.kind is kind)
        report = evaluate_attack(graph, ec, 2)
        assert (report.kind, report.anchor, report.added) == (kind.value, anchor, added)
        assert report.p_base == pytest.approx(probability_at(graph, [anchor], report.t_base), abs=1e-14)

    def test_probability_at_common_time(self):
        g = connected_sample("ws", 60, 2)
        anchor = next(v for v in range(g.n) if find_2ec(g, v))
        ec = find_2ec(g, anchor)[0]
        report = evaluate_attack(g, ec, 4)
        attacked_marked = sorted({anchor} | set(ec.vertices))
        assert report.p_attacked == probability_at(g, attacked_marked, report.t_base)

    @pytest.mark.parametrize("graph,kind,kept", [
        # the attacked scan reads past t_base, so p(t_base) is one it kept
        (Graph(5, [(0, 1), (1, 2), (1, 3), (2, 4)]), ECKind.EC3_PATH, True),
        # the attacked scan stops at t = 0, before t_base = 1, so the walk steps on
        (complete(4), ECKind.EC3_TRIANGLE, False),
    ], ids=["kept", "stepped-on"])
    def test_walks_the_attacked_set_once(self, monkeypatch, graph, kind, kept):
        # the benchmark's attack.optimize and szegedy.build spans wrap these module globals;
        # szegedy's own WalkOperator is the one probability_trace, and so probability_at, builds
        ec = next(ec for ec in find_3ec(graph, 0) if ec.kind is kind)
        expected = evaluate_attack(graph, ec, 2)
        calls, reads = [], []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        def counted_scan(probs, t_pen, scan=attack._scan):
            def read():
                for p in probs:
                    reads[-1] += 1
                    yield p
            reads.append(0)
            return scan(read(), t_pen)

        for module, name in ((attack, "optimize_measurement_time"), (attack, "WalkOperator"),
                             (szegedy, "WalkOperator")):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        monkeypatch.setattr(attack, "_scan", counted_scan)
        report = evaluate_attack(graph, ec, 2)
        assert report == expected
        assert sorted(calls) == ["WalkOperator"] * 2 + ["optimize_measurement_time"]
        assert len(reads) == 2 and (reads[1] > report.t_base) is kept
        assert report.p_attacked == probability_at(graph, ec.vertices, report.t_base)

    @pytest.mark.parametrize("model,n,root_seed", [("er", 150, 3), ("ws", 60, 11), ("ba", 400, 3)])
    def test_steps_walked_follow_from_the_row(self, monkeypatch, model, n, root_seed):
        # a fig2 row walks its base scan, and its attacked scan stepped on to t_base when
        # the scan stopped before it; each scan stops at max(t_opt + 1, ceil(T_opt - t_pen))
        steps, step = [], szegedy.WalkOperator._step
        monkeypatch.setattr(szegedy.WalkOperator, "_step", lambda op, *a: steps.append(1) or step(op, *a))
        config = experiments.ExperimentConfig(
            "fig2", models=(model,), n_grid=(n,), samples_per_n=1, root_seed=root_seed
        )
        (r,) = experiments.run_fig2(config)
        base = max(r.t_base, math.ceil(r.T_base - r.t_pen) - 1)
        attacked = max(r.t_opt, math.ceil(r.T_opt - r.t_pen) - 1)
        assert len(steps) == base + max(attacked, r.t_base)

    @pytest.mark.parametrize("t_pen", [0, -1])
    def test_penalty_below_one_rejected(self, t_pen):
        # with no penalty both optima are T_opt = 0 and strong_eff = 1 - 0/0
        g = connected_sample("er", 200)
        ec = find_2ec(g, next(v for v in range(g.n) if find_2ec(g, v)))[0]
        with pytest.raises(ValueError, match="t_pen must be at least 1"):
            evaluate_attack(g, ec, t_pen)

    @pytest.mark.slow
    def test_ws_attack_efficiency_sanity(self):
        # moderate-scale smoke check of the large-n suppression behavior
        effs = []
        for seed in range(4):
            g = connected_sample("ws", 300, 40 * seed)
            rng = np.random.default_rng(seed)
            ec = None
            for _ in range(g.n):
                v = int(rng.integers(g.n))
                cands = find_2ec(g, v)
                if cands:
                    ec = cands[int(rng.integers(len(cands)))]
                    break
            report = evaluate_attack(g, ec, default_t_pen(g.n))
            effs.append(report.eff)
        assert np.median(effs) > 0.5


class TestProbabilityAt:
    def test_matches_trace(self):
        g = connected_sample("ba", 50)
        trace = probability_trace(g, [3, 7], 12)
        assert [probability_at(g, [3, 7], t) for t in (0, 5, 12)] == [trace[0], trace[5], trace[12]]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            probability_at(cycle(4), [0], -3)

    def test_empty_marked_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            probability_at(cycle(4), [], 2)

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError, match=r"marked set \[9\] out of range for n=6"):
            probability_at(cycle(6), [9], 3)


class TestReportValidation:
    def _base_kwargs(self):
        return dict(
            model="er", n=100, seed=1, anchor=0, added=(1,), kind="2ec_path",
            t_base=10, p_base=0.5, T_base=30.0, p_attacked=0.1, T_attacked=150.0,
            t_opt=12, T_opt=60.0, strong_eff=0.5, t_pen=5,
        )

    def test_consistent_report_accepted(self):
        AttackReport(eff=1 - 0.1 / 0.5, **self._base_kwargs())

    def test_inconsistent_eff_rejected(self):
        with pytest.raises(ValueError, match="eff inconsistent"):
            AttackReport(eff=0.123, **self._base_kwargs())

    def test_defender_cannot_do_worse(self):
        kwargs = self._base_kwargs()
        kwargs["T_opt"] = 200.0  # exceeds T_attacked
        with pytest.raises(ValueError, match="re-optimized"):
            AttackReport(eff=0.8, **kwargs)

    @pytest.mark.parametrize("changes,message", [
        # T_base = (t_base + t_pen) / p_base = 15 / 0.5
        ({"T_base": 999.0}, r"T_base is 999.0, but the other fields give 30.0"),
        ({"T_base": 30.00000003}, r"T_base is 30.00000003, but the other fields give 30.0"),
        ({"T_attacked": 151.0}, r"T_attacked is 151.0, but the other fields give 150.0"),
        ({"T_attacked": math.inf}, r"T_attacked is inf, but the other fields give 150.0"),
        ({"strong_eff": 0.4}, r"strong_eff is 0.4, but the other fields give 0.5"),
        ({"seed": -1}, "seed must be non-negative, got -1"),
        ({"graph_regens": -2}, "graph_regens must be non-negative, got -2"),
        ({"anchor_retries": -3}, "anchor_retries must be non-negative, got -3"),
        ({"anchor": 100}, r"anchor 100 and added \(1,\) must lie in \[0, 100\)"),
        ({"added": (-7,)}, r"anchor 0 and added \(-7,\) must lie in \[0, 100\)"),
        ({"kind": "4ec_star"}, "unknown kind '4ec_star'"),
        ({"added": (0,)}, r"duplicate vertices in \(0, 0\)"),
        ({"added": (1, 2)}, r"2ec_path needs 2 vertices, got \(0, 1, 2\)"),
        ({"kind": "3ec_path"}, r"3ec_path needs 3 vertices, got \(0, 1\)"),
        ({"added": (2, 1), "kind": "3ec_triangle"}, r"added \(2, 1\) must be ascending"),
    ], ids=["T_base", "T_base-1e-9", "T_attacked", "T_attacked-inf", "strong_eff", "seed", "graph_regens",
            "anchor_retries", "anchor-range", "added-range", "kind", "added-is-anchor", "too-many",
            "too-few", "added-order"])
    def test_contradicting_fields_rejected(self, changes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AttackReport(eff=0.8, **{**self._base_kwargs(), **changes})

    def test_runtime_is_infinite_exactly_when_p_attacked_is_zero(self):
        # eff = 1 and strong_eff = 1 - 30 / 60 at p_attacked = 0
        kwargs = {**self._base_kwargs(), "p_attacked": 0.0, "T_attacked": math.inf}
        assert AttackReport(eff=1.0, **kwargs).T_attacked == math.inf
        with pytest.raises(ValueError, match="T_attacked is 1e[+]300, but the other fields give inf"):
            AttackReport(eff=1.0, **{**kwargs, "T_attacked": 1e300})

    def test_configuration_shapes_accepted(self):
        for anchor, added, kind in [(5, (3,), "2ec_path"), (1, (0, 2), "3ec_triangle"), (0, (1, 2), "3ec_path")]:
            AttackReport(eff=0.8, **{**self._base_kwargs(), "anchor": anchor, "added": added, "kind": kind})


class TestEfficiencyStatistics:
    def test_single_value(self):
        stats = efficiency_statistics([0.8])
        assert stats.max == stats.min == stats.mean == 0.8

    def test_two_values(self):
        stats = efficiency_statistics([0.2, 0.8])
        assert stats.max == 0.8
        assert stats.mean == pytest.approx(0.5)

    def test_threshold_probability(self):
        stats = efficiency_statistics([0.2, 0.8, 0.9], thresholds=(0.7,))
        assert stats.threshold_probs[0.7] == pytest.approx(2 / 3)

    def test_reads_reports(self):
        reports = [
            AttackReport(
                model="er", n=10, seed=i, anchor=0, added=(1,), kind="2ec_path",
                t_base=1, p_base=0.5, T_base=2.0, p_attacked=0.5 - 0.1 * i,
                T_attacked=1 / (0.5 - 0.1 * i), eff=0.2 * i, t_opt=1, T_opt=2.0,
                strong_eff=0.0, t_pen=0,
            )
            for i in range(3)
        ]
        stats = efficiency_statistics(reports)
        assert stats.mean == pytest.approx(0.2)
        strong = efficiency_statistics(reports, field_name="strong_eff")
        assert strong.max == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            efficiency_statistics([])
