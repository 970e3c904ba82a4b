import math

import numpy as np
import pytest

from _oracles import brute_force_optimum, complete, cycle
from qwattack.attack import (
    AttackReport,
    SearchInstance,
    apply_attack,
    attack_efficiency,
    default_t_pen,
    efficiency,
    efficiency_statistics,
    evaluate_attack,
    expected_runtime,
    instance_probability,
    optimize_measurement_time,
    probability_at,
    strong_attack_efficiency,
)
from qwattack.exceptional import ECKind, ExceptionalConfiguration, find_2ec
from qwattack.graphs import ModelParams, generate_graph, is_connected
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


class TestSearchInstance:
    def test_validation(self):
        g = cycle(6)
        with pytest.raises(ValueError, match="nonempty"):
            SearchInstance(g, frozenset(), 3)
        with pytest.raises(ValueError, match="out of range"):
            SearchInstance(g, frozenset({9}), 3)
        with pytest.raises(ValueError, match="nonnegative"):
            SearchInstance(g, frozenset({0}), -1)

    def test_probability_matches_trace(self):
        g = connected_sample("er", 40)
        inst = SearchInstance(g, frozenset({0}), 6)
        assert instance_probability(inst) == pytest.approx(
            probability_trace(g, [0], 6)[6], abs=1e-14
        )


class TestApplyAttack:
    def test_marked_set_grows_by_configuration(self):
        g = cycle(8)
        inst = SearchInstance(g, frozenset({3}), 5)
        ec = find_2ec(g, 3)[0]
        attacked = apply_attack(inst, ec)
        assert attacked.marked == {2, 3}
        assert attacked.t == inst.t
        assert attacked.graph is inst.graph
        assert attacked.chain == inst.chain

    def test_triangle_attack(self):
        g = complete(4)
        inst = SearchInstance(g, frozenset({0}), 2)
        ec = ExceptionalConfiguration((0, 1, 2), ECKind.EC3_TRIANGLE, 0)
        assert apply_attack(inst, ec).marked == {0, 1, 2}

    def test_anchor_must_be_marked(self):
        g = cycle(8)
        inst = SearchInstance(g, frozenset({3}), 5)
        ec = find_2ec(g, 0)[0]
        with pytest.raises(ValueError, match="anchor"):
            apply_attack(inst, ec)

    def test_must_add_a_vertex(self):
        g = cycle(8)
        inst = SearchInstance(g, frozenset({2, 3}), 5)
        ec = ExceptionalConfiguration((2, 3), ECKind.EC2_PATH, 3)
        with pytest.raises(ValueError, match="adds no new"):
            apply_attack(inst, ec)

    def test_original_instance_untouched(self):
        g = cycle(8)
        inst = SearchInstance(g, frozenset({3}), 5)
        before = (inst.graph, inst.marked, inst.t)
        apply_attack(inst, find_2ec(g, 3)[0])
        assert (inst.graph, inst.marked, inst.t) == before


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


class TestEfficiencies:
    def test_identity_attack_zero_efficiency(self):
        g = connected_sample("ws", 50)
        inst = SearchInstance(g, frozenset({0}), 4)
        assert attack_efficiency(inst, inst) == 0.0

    def test_mismatched_time_rejected(self):
        g = cycle(8)
        a = SearchInstance(g, frozenset({0}), 4)
        b = SearchInstance(g, frozenset({0}), 5)
        with pytest.raises(ValueError, match="measurement time"):
            attack_efficiency(a, b)

    def test_mismatched_graph_rejected(self):
        a = SearchInstance(cycle(8), frozenset({0}), 4)
        b = SearchInstance(cycle(6), frozenset({0}), 4)
        with pytest.raises(ValueError, match="graph"):
            attack_efficiency(a, b)

    def test_formula_equivalence(self):
        # 1 - T_base/T_attacked equals 1 - p_att/p_base at the common time
        g = connected_sample("er", 60, 3)
        anchor = next(v for v in range(g.n) if find_2ec(g, v))
        ec = find_2ec(g, anchor)[0]
        inst = SearchInstance(g, frozenset({anchor}), 7)
        attacked = apply_attack(inst, ec)
        eff = attack_efficiency(inst, attacked)
        p_b = instance_probability(inst)
        p_a = instance_probability(attacked)
        T_b = expected_runtime(inst.t, p_b)
        T_a = expected_runtime(attacked.t, p_a)
        assert eff == pytest.approx(1 - p_a / p_b, abs=1e-12)
        if math.isfinite(T_a):
            assert eff == pytest.approx(1 - T_b / T_a, abs=1e-12)

    def test_strong_efficiency_of_identity_at_optimum_is_zero(self):
        g = connected_sample("ba", 60, 5)
        t_pen = default_t_pen(g.n)
        opt = optimize_measurement_time(g, [2], t_pen=t_pen)
        inst = SearchInstance(g, frozenset({2}), opt.t_opt)
        assert strong_attack_efficiency(inst, {2}, t_pen) == pytest.approx(0.0, abs=1e-12)

    def test_strong_efficiency_of_identity_never_positive(self):
        g = connected_sample("er", 50, 8)
        inst = SearchInstance(g, frozenset({1}), 2)  # deliberately suboptimal t
        assert strong_attack_efficiency(inst, {1}, t_pen=4) <= 0.0

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
            report = evaluate_attack(g, {ec.anchor}, ec, default_t_pen(g.n))
            effs.append(report.eff)
        assert np.median(effs) > 0.5


class TestEvaluateAttack:
    def test_report_fields_are_consistent(self):
        g = connected_sample("er", 80, 11)
        anchor = next(v for v in range(g.n) if find_2ec(g, v))
        ec = find_2ec(g, anchor)[0]
        t_pen = default_t_pen(g.n)
        report = evaluate_attack(g, {anchor}, ec, t_pen, model="er", seed=99)
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

    def test_probability_at_common_time(self):
        g = connected_sample("ws", 60, 2)
        anchor = next(v for v in range(g.n) if find_2ec(g, v))
        ec = find_2ec(g, anchor)[0]
        report = evaluate_attack(g, {anchor}, ec, 4)
        attacked_marked = sorted({anchor} | set(ec.vertices))
        assert report.p_attacked == pytest.approx(
            probability_at(g, attacked_marked, report.t_base), abs=1e-14
        )


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
                T_attacked=2.0, eff=0.2 * i, t_opt=1, T_opt=2.0,
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
