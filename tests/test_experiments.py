import logging
import math

import pytest

from qwattack import experiments
from qwattack.attack import AttackReport
from qwattack.experiments import (
    ExperimentConfig,
    Fig2CsvParseError,
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

    def test_iterable_passthrough(self):
        assert expand_grid([10, 20]) == (10, 20)

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

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog([10, 20, 30], [1.0, -2.0, 3.0])

    def test_regress_reports_recovers_synthetic_exponents(self):
        reports = []
        for n in (100, 200, 400, 800):
            for i in range(3):
                reports.append(make_report("er", n, 5, T_base=2.0 * n ** 0.5, T_attacked=0.1 * n ** 1.1, seed=i))
        ref, attacked = regress_reports(reports, ["er"])
        assert ref.alpha == pytest.approx(0.5, abs=1e-12)
        assert attacked.alpha == pytest.approx(1.1, abs=1e-12)

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
            again = rederive_fig2_sample(r.model, r.n, r.seed, r.t_pen)
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

    def read(self, tmp_path, *lines):
        path = tmp_path / "fig2.csv"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        return read_fig2_csv(path)

    def test_valid_rows_parse(self, tmp_path):
        (report,) = self.read(tmp_path, self.HEADER, self.ROW)
        assert (report.model, report.n, report.added, report.t_opt) == ("er", 100, (1,), 12)

    def test_resample_columns_are_optional(self, tmp_path):
        header = self.HEADER.rsplit(",", 2)[0]
        row = self.ROW.rsplit(",", 2)[0]
        (report,) = self.read(tmp_path, header, row)
        assert (report.graph_regens, report.anchor_retries) == (0, 0)

    def test_missing_column_rejected(self, tmp_path):
        header = self.HEADER.replace(",eff,", ",")
        row = self.ROW.replace(",0.8,", ",")
        with pytest.raises(Fig2CsvParseError, match=r"line 1: missing columns \['eff'\]"):
            self.read(tmp_path, header, row)

    def test_unknown_column_rejected(self, tmp_path):
        with pytest.raises(Fig2CsvParseError, match=r"line 1: unknown columns \['extra'\]"):
            self.read(tmp_path, self.HEADER + ",extra", self.ROW + ",1")

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(Fig2CsvParseError, match="line 1: missing columns"):
            self.read(tmp_path)

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


class FakePool:
    """ProcessPoolExecutor stand-in that records its size and maps inline."""

    sizes = []

    def __init__(self, max_workers):
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
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
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
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        with caplog.at_level(logging.WARNING, logger="qwattack.experiments"):
            assert experiments._run_pool(abs, [-1, -2], 8) == [1, 2]
        assert pool.sizes == []
        assert "using 1 of 8 requested workers" in caplog.text


class TestFig3:
    def test_from_synthetic_reports(self):
        reports = []
        for n in (100, 200, 400):
            for model in ("er", "ws"):
                reports.append(make_report(model, n, 4, 3.0 * n ** 0.4, 0.5 * n ** 0.9))
        cfg = ExperimentConfig(experiment="fig3", models=("er", "ws"), n_grid=(100, 200, 400))
        labeled, back = run_fig3(cfg, reports)
        assert back == reports
        assert len(labeled) == 4
        for model, variant, res in labeled:
            expected = 0.4 if variant == "ref" else 0.9
            assert res.alpha == pytest.approx(expected, abs=1e-12)

    def test_live_small_run(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="fig3", models=("er",), n_grid=(40, 60, 80),
            samples_per_n=2, root_seed=1,
        )
        labeled, reports = run_fig3(cfg)
        assert len(reports) == 6
        assert {(m, v) for m, v, _ in labeled} == {("er", "ref"), ("er", "attacked")}
        out = tmp_path / "fig3.csv"
        write_fig3_csv(labeled, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "model,variant,alpha,intercept,rse,points"
        assert len(lines) == 3  # header + (ref, attacked) for the one model
