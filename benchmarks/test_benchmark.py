"""Tests of the benchmark's own logic: python -m pytest benchmarks/test_benchmark.py"""

import json

import bootstrap

bootstrap.prepare()

import pytest  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qwattack import attack, experiments, szegedy  # noqa: E402
from qwattack.graphs import Graph  # noqa: E402


@pytest.mark.parametrize("model", workloads.MODELS)
@pytest.mark.parametrize("n", [60, 150, 400])
@pytest.mark.parametrize("root_seed", [3, 11])
def test_steps_derived_from_row_match_counted_steps(monkeypatch, model, n, root_seed):
    applied = []
    original = szegedy.WalkOperator.apply

    def counted(self, state):
        applied.append(1)
        return original(self, state)

    monkeypatch.setattr(szegedy.WalkOperator, "apply", counted)
    config = experiments.ExperimentConfig(
        "fig2", models=(model,), n_grid=(n,), samples_per_n=1, root_seed=root_seed
    )
    (report,) = experiments.run_fig2(config)
    assert workloads.fig2_steps(report)["steps_walked"] == len(applied)


def test_missing_name_is_reported_as_absent_span(monkeypatch):
    monkeypatch.delattr(attack, "WalkOperator")
    tracer = tracing.Tracer()
    assert "qwattack.attack.WalkOperator" in tracer.absent
    square = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with tracer.active(0):
        szegedy.probability_trace(square, [0], 3)
    assert {span[0] for span in tracer.spans} == {"szegedy.trace", "szegedy.build"}


def test_metric_names_match_benchmark_json():
    with open(bootstrap.ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_tail_leaves_ten_ops_beyond_it():
    percentile, value = run.tail([float(v) for v in range(1, 31)])
    assert value == 20.0
    assert percentile == pytest.approx(100 * 20 / 30)


def test_times_are_scaled_by_the_kernel_time_around_them():
    times = [1.0] * 30
    kernel = [calibrate.REFERENCE_S] * 10 + [2 * calibrate.REFERENCE_S] * 20
    scaled = calibrate.at_reference_speed(times, kernel)
    assert scaled[:5] == [1.0] * 5
    assert scaled[-15:] == [0.5] * 15
    # one slow kernel pass among steady ones does not move its op
    kernel[20] = 10 * calibrate.REFERENCE_S
    assert calibrate.at_reference_speed(times, kernel)[20] == 0.5


def test_fig1_calls_keep_their_reference_indices():
    workload = workloads.Fig1(workloads.REFERENCE_SEED)
    assert list(workload._calls(2)) == list(range(18, 27))
    assert [workload._cell(c) for c in workload._calls(2)][:4] == [("er", 200), ("ws", 200), ("ba", 200), ("er", 600)]
