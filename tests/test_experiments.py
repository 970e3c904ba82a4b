import concurrent.futures
import logging
import math
import os
import re

import pytest

from _oracles import star
from qwattack import experiments
from qwattack.attack import AttackReport
from qwattack.exceptional import checked_orders, find_2ec, find_ec_within_distance
from qwattack.experiments import (
    ExperimentConfig,
    Fig2CsvParseError,
    ec_formation_probability,
    expand_grid,
    fit_loglog,
    read_fig2_csv,
    rederive_fig2_sample,
    regress_reports,
    run_fig1,
    run_fig2,
    run_fig3,
    write_fig1_csv,
    write_fig2_csv,
    write_fig3_csv,
)
from qwattack.graphs import Graph, ModelParams, _pcg64_replay, derive_seed, generate_graph


def make_report(model, n, t_base, T_base, T_attacked, seed=0):
    p_base = (t_base + 1) / T_base
    p_att = (t_base + 1) / T_attacked
    return AttackReport(
        model=model, n=n, seed=seed, anchor=0, added=(1,), kind="2ec_path",
        t_base=t_base, p_base=p_base, T_base=T_base, p_attacked=p_att,
        T_attacked=T_attacked, eff=1 - p_att / p_base, t_opt=t_base,
        T_opt=min(T_attacked, T_base), strong_eff=1 - T_base / min(T_attacked, T_base),
        t_pen=1,
    )


class TestGrid:
    def test_inclusive_stop(self):
        assert expand_grid("100:500:100") == (100, 200, 300, 400, 500)

    def test_single_point(self):
        assert expand_grid("64:64:1") == (64,)

    def test_malformed(self):
        with pytest.raises(ValueError):
            expand_grid("100:50")
        with pytest.raises(ValueError):
            expand_grid("500:100:100")


class TestConfig:
    def test_defaults_per_experiment(self):
        fig1 = ExperimentConfig(experiment="fig1")
        assert fig1.n_grid == tuple(range(100, 1001, 100))
        fig2 = ExperimentConfig(experiment="fig2")
        assert fig2.n_grid == tuple(range(100, 801, 100))

    def test_t_pen_rule(self):
        cfg = ExperimentConfig(experiment="fig2", n_grid=(400,))
        assert cfg.t_pen_for(400) == math.ceil(math.log(400))
        fixed = ExperimentConfig(experiment="fig2", n_grid=(400,), t_pen=3)
        assert fixed.t_pen_for(400) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="fig9")
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="fig1", n_grid=(2,))
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="fig1", models=("er", "grid"))
        for count in ("samples_per_n", "workers"):
            with pytest.raises(ValueError, match=f"{count} must be positive"):
                ExperimentConfig(experiment="fig1", **{count: 0})
        # derive_seed masks to 64 bits, so -1 would draw 2**64 - 1's rows and 2**64 seed 0's
        for root_seed in (-1, 2**64):
            with pytest.raises(ValueError, match=rf"root_seed must be in \[0, 2\*\*64\), got {root_seed}"):
                ExperimentConfig(experiment="fig1", root_seed=root_seed)
        ExperimentConfig(experiment="fig1", root_seed=2**64 - 1)

    def test_empty_model_set_rejected(self):
        with pytest.raises(ValueError, match="at least one of"):
            ExperimentConfig(experiment="fig1", models=())

    @pytest.mark.parametrize("kw,message", [
        ({"models": ("er", "er")}, r"models must not repeat, got \('er', 'er'\)"),
        ({"models": ("ws", "er", "ws")}, r"models must not repeat, got \('ws', 'er', 'ws'\)"),
        ({"n_grid": (100, 100)}, r"graph orders must not repeat, got \(100, 100\)"),
    ], ids=["model", "model-apart", "order"])
    def test_repeats_rejected_before_any_draw(self, monkeypatch, kw, message):
        # a repeat would draw its cells twice and write every row twice
        def no_draw(*args, **kwargs):
            raise AssertionError("a graph was drawn before the repeat was rejected")

        monkeypatch.setattr(experiments, "generate_graph", no_draw)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(experiment="fig2", **kw)

    @pytest.mark.parametrize("t_pen", [0, -3])
    def test_penalty_below_one_rejected(self, t_pen):
        with pytest.raises(ValueError, match="t_pen must be at least 1"):
            ExperimentConfig(experiment="fig2", n_grid=(60,), t_pen=t_pen)

    @pytest.mark.parametrize("models,n_grid,params,message", [
        (("ws",), (4,), {}, r"2 <= k < n, got k=4, n=4"),  # the default k at n = 4
        (("ba",), (4,), {"ba_m0": 4}, r"1 <= m0 < n, got m0=4, n=4"),
        (("ws",), (60,), {"ws_k": 3}, "must be even, got 3"),
        (("ws",), (60,), {"ws_beta": 1.5}, r"rewiring probability must be in \[0, 1\], got 1.5"),
        (("er",), (60,), {"er_p": 2.0}, r"edge probability must be in \[0, 1\], got 2.0"),
        (("er", "ws"), (4, 5, 6), {}, r"got k=4, n=4"),  # a later model's first cell
        (("ws",), (100, 90, 80), {"ws_k": 80}, r"got k=80, n=80"),  # a later order
    ], ids=["ws-default-k", "ba-m0", "ws-odd-k", "ws-beta", "er-p", "er-then-ws", "ws-later-n"])
    def test_model_parameters_checked_for_every_cell(self, models, n_grid, params, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(experiment="fig1", models=models, n_grid=n_grid, **params)

    def test_parameters_of_models_not_swept_are_not_checked(self):
        ExperimentConfig(experiment="fig2", models=("ws",), n_grid=(20,), er_p=2.0, ba_m0=30)


class TestRegression:
    def test_exact_square_root_power_law(self):
        ns = [100, 200, 400, 800, 1600]
        ts = [n ** 0.5 for n in ns]
        res = fit_loglog(ns, ts)
        assert abs(res.alpha - 0.5) < 1e-12
        assert res.rse < 1e-12
        assert res.points == 5

    def test_exact_linear_with_constant(self):
        ns = [50, 100, 200, 400]
        c = 3.7
        res = fit_loglog(ns, [c * n for n in ns])
        assert abs(res.alpha - 1.0) < 1e-12
        assert math.exp(res.intercept) == pytest.approx(c, rel=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_loglog([10, 20], [1.0, 2.0])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="n and T sequences differ in length"):
            fit_loglog([10, 20, 30], [1.0, 2.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog([10, 20, 30], [1.0, -2.0, 3.0])

    def test_one_distinct_order_rejected(self):
        # Sxx = 0: no line through three points at one n
        with pytest.raises(ValueError, match="at least 2 distinct orders n, got only n = 10$"):
            fit_loglog([10, 10, 10], [1.0, 2.0, 3.0])

    def test_regress_reports_recovers_synthetic_exponents(self):
        reports = []
        for n in (100, 200, 400, 800):
            for i in range(3):
                reports.append(make_report("er", n, 5, T_base=2.0 * n ** 0.5, T_attacked=0.1 * n ** 1.1, seed=i))
        ref, attacked = regress_reports(reports, ["er"])
        assert ref.alpha == pytest.approx(0.5, abs=1e-12)
        assert attacked.alpha == pytest.approx(1.1, abs=1e-12)

    def test_regress_reports_names_the_failing_fit(self):
        reports = [make_report("er", n, 5, 2.0 * n ** 0.5, 0.1 * n) for n in (100, 200, 400, 800)]
        with pytest.raises(ValueError, match=r"^ws ref: regression needs at least 3 points, got 0$"):
            regress_reports(reports, ["er", "ws"])
        # T_base fits on three orders, T_attacked is infinite at one of them
        reports = reports[:2] + [make_report("er", 800, 5, 50.0, math.inf)]
        with pytest.raises(ValueError, match=r"^er attacked: regression needs at least 3 points, got 2$"):
            regress_reports(reports, ["er"])

    def test_regress_reports_rejects_a_repeated_model(self):
        reports = [make_report("er", n, 5, 2.0 * n ** 0.5, 0.1 * n) for n in (100, 200, 400)]
        with pytest.raises(ValueError, match=re.escape("models must not repeat, got ('er', 'er')")):
            regress_reports(reports, ["er", "er"])

    def test_infinite_runtimes_dropped(self):
        reports = [make_report("er", n, 5, 2.0 * n ** 0.5, 0.1 * n) for n in (100, 200, 400, 800)]
        inf_report = AttackReport(
            model="er", n=100, seed=9, anchor=0, added=(1,), kind="2ec_path",
            t_base=5, p_base=0.5, T_base=12.0, p_attacked=0.0, T_attacked=math.inf,
            eff=1.0, t_opt=5, T_opt=12.0, strong_eff=0.0, t_pen=1,
        )
        ref, attacked = regress_reports(reports + [inf_report], ["er"])
        assert math.isfinite(attacked.alpha)


class TestFig1:
    def small_config(self, **kw):
        defaults = dict(
            experiment="fig1", models=("er",), n_grid=(40, 60),
            samples_per_n=8, root_seed=11,
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_row_shape_and_determinism(self):
        rows_a = run_fig1(self.small_config())
        rows_b = run_fig1(self.small_config())
        assert rows_a == rows_b
        assert len(rows_a) == 2 * 3  # (n values) x (panels)
        for row in rows_a:
            assert 0.0 <= row.ci_low <= row.probability <= row.ci_high <= 1.0
            assert row.samples == 8

    def test_workers_do_not_change_results(self):
        rows_a = run_fig1(self.small_config(workers=1))
        rows_b = run_fig1(self.small_config(workers=3))
        assert rows_a == rows_b

    def test_local_panel_never_exceeds_global(self):
        rows = run_fig1(self.small_config(models=("ba",), samples_per_n=12))
        by_panel = {(r.n, r.panel): r.probability for r in rows}
        for n in (40, 60):
            assert by_panel[(n, "order23_d1")] <= by_panel[(n, "order23")]
            assert by_panel[(n, "order2")] <= by_panel[(n, "order23")]

    def test_er_probability_one_override(self):
        # p = 1 gives complete graphs where every vertex has a 2EC
        rows = run_fig1(self.small_config(er_p=1.0, n_grid=(20,), samples_per_n=5))
        order2 = next(r for r in rows if r.panel == "order2")
        assert order2.probability == 1.0

    def test_csv_round_trip_format(self, tmp_path):
        rows = run_fig1(self.small_config())
        out = tmp_path / "fig1.csv"
        write_fig1_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "model,n,panel,probability,ci_low,ci_high,samples,seed,regens"
        assert len(lines) == len(rows) + 1


class TestFormationScan:
    """An order-2 scan, then an order-3 scan only if a query is still open, decides
    every (orders, d) spec of a fig1 sample."""

    SPECS = [(orders, d) for orders in ((2,), (3,), (2, 3)) for d in (None, 1, 2)]

    @pytest.mark.parametrize("model", ["er", "ws", "ba"])
    def test_one_scan_matches_each_query(self, model):
        # the lazy hits against each query's own eager scan, for every spec together,
        # each spec alone and fig1's three panels
        subsets = [self.SPECS] + [[spec] for spec in self.SPECS] + [list(experiments._PANEL_SPEC.values())]
        for n, seed in ((12, 1), (12, 2), (30, 3), (30, 4)):
            g = generate_graph(ModelParams(model), n, seed)
            for v in range(n):
                for specs in subsets:
                    queries = [(checked_orders(orders, d), d) for orders, d in specs]
                    expected = [bool(find_ec_within_distance(g, v, d, orders)) for orders, d in specs]
                    assert experiments._spec_hits(g, v, queries) == expected, (model, n, seed, v, specs)

    def test_one_scan_per_sample(self, monkeypatch):
        calls = []

        def spy(name, scan):
            def counted(graph, v, *rest):
                found = scan(graph, v, *rest)
                calls.append((name, id(graph), v, rest, bool(found)))
                return found
            return counted

        monkeypatch.setattr(experiments, "find_2ec", spy("order 2", find_2ec))
        monkeypatch.setattr(experiments, "find_ec_within_distance", spy("order 3", find_ec_within_distance))
        run_fig1(ExperimentConfig("fig1", models=("ws",), n_grid=(40, 60), samples_per_n=5, root_seed=2))
        samples = [c for c in calls if c[0] == "order 2"]
        assert len(samples) == 2 * 5
        assert {has_2ec for *_, has_2ec in samples} == {False, True}  # both kinds of sample ran
        # each sample's order-2 scan, then an order-3 scan at the same vertex if it found none
        expected = []
        for name, graph, v, rest, has_2ec in samples:
            expected.append((name, graph, v, rest))
            if not has_2ec:
                expected.append(("order 3", graph, v, (None, [3])))
        assert [c[:4] for c in calls] == expected

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="samples must be positive, got 0"):
            ec_formation_probability(ModelParams("er"), 40, samples=0)

    @pytest.mark.parametrize("orders,d,message", [
        ((2, 3), 5, "hop distance must be 1, 2, or None, got 5"),
        ((), None, r"orders must be a nonempty subset of \{2, 3\}, got \[\]"),
        ((4,), None, r"orders must be a nonempty subset of \{2, 3\}, got \[4\]"),
    ])
    def test_specs_checked_before_first_draw(self, monkeypatch, orders, d, message):
        def no_draw(*args, **kwargs):
            raise AssertionError("a graph was drawn before the specs were checked")

        monkeypatch.setattr(experiments, "generate_graph", no_draw)
        with pytest.raises(ValueError, match=message):
            ec_formation_probability(ModelParams("er"), 40, orders=orders, d=d, samples=3)
        with pytest.raises(ValueError, match=message):  # a bad spec after a good one
            experiments._formation_counts(ModelParams("er"), 40, [((2,), None), (orders, d)], 3, 0)


class TestPick2ec:
    def test_tries_up_to_n_anchors(self):
        # a double star: the adjacent centres 0 and 1 (degree 4) are the only 2EC anchors
        graph = Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])
        seed = 3  # its first anchor in {0, 1} is draw 6, past n // 2
        integers = _pcg64_replay(derive_seed(seed, 1))[1]
        anchors = [integers(graph.n) for _ in range(graph.n)]
        first_hit = next(k for k, v in enumerate(anchors) if v < 2)
        assert first_hit >= graph.n // 2
        ec, retries = experiments._pick_2ec(graph, seed)
        assert retries == first_hit
        assert ec.anchor == anchors[first_hit] and ec.vertices == (0, 1)

    def test_no_anchor_has_a_2ec(self):
        # a star's centre has degree 4 and each leaf 1, so no adjacent pair has equal degrees
        assert experiments._pick_2ec(star(4), 3) == (None, 5)


class TestFig2:
    def small_config(self, **kw):
        defaults = dict(
            experiment="fig2", models=("er", "ws"), n_grid=(60,),
            samples_per_n=3, root_seed=5,
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_determinism_and_worker_independence(self):
        a = run_fig2(self.small_config(workers=1))
        b = run_fig2(self.small_config(workers=2))
        assert a == b
        assert len(a) == 2 * 3

    def test_rows_are_rederivable_from_recorded_seed(self):
        reports = run_fig2(self.small_config())
        for r in reports[:3]:
            again = rederive_fig2_sample(ModelParams(r.model), r.n, r.seed, r.t_pen)
            assert (again.anchor, again.added, again.kind) == (r.anchor, r.added, r.kind)
            assert again.t_base == r.t_base
            assert again.p_base == r.p_base
            assert again.eff == r.eff
            assert again.strong_eff == r.strong_eff

    def test_csv_round_trip(self, tmp_path):
        reports = run_fig2(self.small_config())
        out = tmp_path / "fig2.csv"
        write_fig2_csv(reports, out)
        back = read_fig2_csv(out)
        assert back == list(reports)

    def test_no_connected_draw_raises(self):
        config = self.small_config(models=("er",), n_grid=(4,), samples_per_n=1, er_p=0.0)
        with pytest.raises(RuntimeError, match="no connected er graph of order 4 after 1000 attempts"):
            run_fig2(config)

    @pytest.mark.parametrize("seed,message", [
        (0, "recorded seed does not yield a connected graph"),
        (2, "recorded seed does not yield a 2EC anchor"),  # a 3-leaf star
    ], ids=["disconnected", "no-2ec"])
    def test_rederive_rejects_a_seed_with_no_row(self, seed, message):
        with pytest.raises(ValueError, match=message):
            rederive_fig2_sample(ModelParams("er", er_p=0.5), 4, seed, 1)

    def test_csv_bytes_are_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_fig2_csv(run_fig2(self.small_config(workers=1)), a)
        write_fig2_csv(run_fig2(self.small_config(workers=3)), b)
        assert a.read_bytes() == b.read_bytes()


class TestReadFig2Csv:
    HEADER = (
        "model,n,seed,anchor,added_vertices,kind,t_base,p_base,T_base,p_attacked,"
        "T_attacked,eff,t_opt,T_opt,strong_eff,t_pen,graph_regens,anchor_retries"
    )
    ROW = "er,100,1,0,1,2ec_path,10,0.5,30.0,0.1,150.0,0.8,12,60.0,0.5,5,0,0"
    COLUMNS = HEADER.split(",")
    HEADER_MISMATCH = "^line 1: expected the header model,n,seed,.*,anchor_retries$"

    def read(self, tmp_path, *lines):
        path = tmp_path / "fig2.csv"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        return read_fig2_csv(path)

    def test_valid_rows_parse(self, tmp_path):
        (report,) = self.read(tmp_path, self.HEADER, self.ROW)
        assert (report.model, report.n, report.added, report.t_opt) == ("er", 100, (1,), 12)

    @pytest.mark.parametrize("header,row", [
        (HEADER.replace(",eff,", ","), ROW.replace(",0.8,", ",")),
        (HEADER + ",extra", ROW + ",1"),
        (HEADER.replace("seed,anchor", "anchor,seed"), ROW.replace("er,100,1,0,", "er,100,0,1,")),
        (HEADER.rsplit(",", 2)[0], ROW.rsplit(",", 2)[0]),
        (None, None),
    ], ids=["missing", "unknown", "reordered", "no-resample-columns", "empty-file"])
    def test_header_must_be_the_writers(self, tmp_path, header, row):
        lines = () if header is None else (header, row)
        with pytest.raises(Fig2CsvParseError, match=self.HEADER_MISMATCH):
            self.read(tmp_path, *lines)

    @pytest.mark.parametrize("column,value", [("t_base", "999"), ("seed", "7"), ("anchor", "5"), ("model", "ba")])
    def test_duplicate_column_rejected(self, tmp_path, column, value):
        # a second copy of the column must not silently win
        with pytest.raises(Fig2CsvParseError, match=self.HEADER_MISMATCH):
            self.read(tmp_path, f"{self.HEADER},{column}", f"{self.ROW},{value}")

    def test_unknown_kind_rejected_with_line(self, tmp_path):
        bad = self.ROW.replace("2ec_path", "4ec_star")
        with pytest.raises(Fig2CsvParseError, match="line 3: unknown kind '4ec_star'"):
            self.read(tmp_path, self.HEADER, self.ROW, bad)

    @pytest.mark.parametrize("bad", ["er,100,1", ROW + ",7"])
    def test_wrong_field_count_rejected_with_line(self, tmp_path, bad):
        with pytest.raises(Fig2CsvParseError, match="line 2: expected 18 fields"):
            self.read(tmp_path, self.HEADER, bad)

    def test_unparsable_value_rejected_with_line(self, tmp_path):
        bad = self.ROW.replace(",10,", ",ten,")
        with pytest.raises(Fig2CsvParseError, match="line 2: invalid literal"):
            self.read(tmp_path, self.HEADER, bad)

    @pytest.mark.parametrize("column,value,message", [
        ("p_base", "nan", "p_base must not be NaN"),
        ("p_attacked", "-0.5", r"p_attacked must be in \[0, 1\], got -0.5"),
        ("T_base", "-3", "T_base must be non-negative, got -3.0"),
        ("T_base", "999.0", "T_base is 999.0, but the other fields give 30.0"),
        ("anchor", "500", r"anchor 500 and added \(1,\) must lie in \[0, 100\)"),
        ("added_vertices", "0", r"duplicate vertices in \(0, 0\)"),
        ("graph_regens", "-2", "graph_regens must be non-negative, got -2"),
        ("added_vertices", "1;", "invalid literal for int"),
        ("p_base", "0", r"p_base must be in \(0, 1\], got 0.0"),
        ("p_base", "1.5", r"p_base must be in \(0, 1\], got 1.5"),
    ], ids=["p_base-nan", "p_attacked-negative", "T_base-negative", "T_base-contradicts",
            "anchor-out-of-range", "added-is-anchor", "graph_regens-negative", "added-empty-field",
            "p_base-zero", "p_base-above-one"])
    def test_out_of_range_value_rejected_with_line(self, tmp_path, column, value, message):
        fields = self.ROW.split(",")
        fields[self.COLUMNS.index(column)] = value
        with pytest.raises(Fig2CsvParseError, match=f"line 3: {message}"):
            self.read(tmp_path, self.HEADER, self.ROW, ",".join(fields))

    def test_row_of_impossible_vertices_and_counts_rejected(self, tmp_path):
        fields = dict(zip(self.COLUMNS, self.ROW.split(",")))
        fields.update(seed="-1", anchor="500", added_vertices="500;-7", graph_regens="-2", anchor_retries="-3")
        with pytest.raises(Fig2CsvParseError, match="line 2: seed must be non-negative, got -1"):
            self.read(tmp_path, self.HEADER, ",".join(fields.values()))


class FakePool:
    """ProcessPoolExecutor stand-in that records its size and maps inline."""

    sizes = []

    def __init__(self, max_workers, mp_context=None):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


class TestWorkerClamp:
    @pytest.fixture
    def pool(self, monkeypatch):
        FakePool.sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
        return FakePool

    @pytest.mark.parametrize(
        "workers,tasks,expected",
        [(64, 10, 4), (8, 3, 3), (3, 10, 3), (100_000, 2, 2)],
    )
    def test_pool_size_is_min_of_request_tasks_and_cpus(
        self, pool, caplog, workers, tasks, expected
    ):
        with caplog.at_level(logging.WARNING, logger="qwattack.experiments"):
            out = experiments._run_pool(abs, list(range(-tasks, 0)), workers)
        assert out == list(range(tasks, 0, -1))
        assert pool.sizes == [expected]
        clamped = [r for r in caplog.records if "requested workers" in r.getMessage()]
        assert len(clamped) == (1 if expected < workers else 0)

    @pytest.mark.parametrize("workers,tasks", [(1, 10), (16, 1), (16, 0)])
    def test_one_worker_runs_inline(self, pool, workers, tasks):
        assert experiments._run_pool(abs, [-1] * tasks, workers) == [1] * tasks
        assert pool.sizes == []

    def test_single_cpu_runs_inline_with_warning(self, pool, monkeypatch, caplog):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: None)
        with caplog.at_level(logging.WARNING, logger="qwattack.experiments"):
            assert experiments._run_pool(abs, [-1, -2], 8) == [1, 2]
        assert pool.sizes == []
        assert "using 1 of 8 requested workers" in caplog.text

    def test_affinity_below_the_cpu_count_clamps(self, monkeypatch, caplog):
        # pinned to one of four CPUs (taskset -c 0): two workers would share that CPU, so
        # the tasks run inline
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert experiments._usable_cpus() == 1
        with caplog.at_level(logging.WARNING, logger="qwattack.experiments"):
            assert experiments._run_pool(abs, [-1, -2], 2) == [1, 2]
        assert "using 1 of 2 requested workers (2 tasks, 1 usable CPUs)" in caplog.text

    def test_usable_cpus_fall_back_to_the_cpu_count(self, monkeypatch):
        # where the OS has no affinity call (macOS, Windows) the machine's count is all there is
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        assert experiments._usable_cpus() == 3


class TestPoolBlasThreads:
    VARIABLES = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]

    def test_pool_workers_see_one_blas_thread(self, monkeypatch):
        for name in self.VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        assert experiments._run_pool(os.getenv, self.VARIABLES, 2) == ["1"] * 3
        assert [os.environ.get(name) for name in self.VARIABLES] == [None] * 3


class TestFig3:
    def test_from_synthetic_reports(self):
        reports = []
        for n in (100, 200, 400):
            for model in ("er", "ws"):
                reports.append(make_report(model, n, 4, 3.0 * n ** 0.4, 0.5 * n ** 0.9))
        labeled = run_fig3(reports, ("er", "ws"))
        assert [(m, v) for m, v, _ in labeled] == [
            ("er", "ref"), ("er", "attacked"), ("ws", "ref"), ("ws", "attacked"),
        ]
        for model, variant, res in labeled:
            expected = 0.4 if variant == "ref" else 0.9
            assert res.alpha == pytest.approx(expected, abs=1e-12)

    def test_repeated_model_rejected(self):
        reports = [make_report("er", n, 4, 3.0 * n ** 0.4, 0.5 * n ** 0.9) for n in (100, 200, 400)]
        with pytest.raises(ValueError, match="models must not repeat"):
            run_fig3(reports, ("er", "er"))

    def test_dropped_runtimes_are_counted_per_model_and_variant(self, caplog):
        reports = [make_report("er", n, 4, 3.0 * n ** 0.4, 0.5 * n ** 0.9) for n in (100, 200, 400)]
        reports += [make_report("er", 200, 4, 3.0 * 200 ** 0.4, math.inf, seed=s) for s in (1, 2)]
        reports += [make_report("ws", n, 4, 3.0 * n ** 0.4, 0.5 * n ** 0.9) for n in (100, 200, 400)]
        with caplog.at_level(logging.WARNING, logger="qwattack.experiments"):
            labeled = run_fig3(reports, ("er", "ws"))
        assert [r.getMessage() for r in caplog.records] == [
            "fig3 er attacked: dropped 2 non-finite or non-positive runtimes",
        ]
        assert [res.points for _, _, res in labeled] == [3, 3, 3, 3]

    def test_live_small_run(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="fig3", models=("er",), n_grid=(40, 60, 80),
            samples_per_n=2, root_seed=1,
        )
        reports = run_fig2(cfg)
        assert len(reports) == 6
        labeled = run_fig3(reports, cfg.models)
        assert {(m, v) for m, v, _ in labeled} == {("er", "ref"), ("er", "attacked")}
        out = tmp_path / "fig3.csv"
        write_fig3_csv(labeled, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "model,variant,alpha,intercept,rse,points"
        assert len(lines) == 3  # header + (ref, attacked) for the one model
