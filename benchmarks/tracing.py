"""Spans around the calls into each layer, and the per-layer metrics built from them.

A span is recorded by rebinding a public name where its caller looks it up
(the `generate_graph` that `qwattack.experiments` calls, the `WalkOperator`
that `qwattack.attack` builds), and only while a traced op runs. The layers'
own code is untouched. A name that no longer exists is reported as an
absent span, and the metrics built only from it read 0.

The walk probes time `szegedy.probability_trace` through the public API, so
they stay comparable however the walk is implemented inside.
"""

import importlib
import statistics
import time
from contextlib import contextmanager

from qwattack import szegedy

# Steps of the walk probe on inputs whose op does not itself time a trace.
PROBE_STEPS = 256


def _arcs_of(graph) -> int:
    return 2 * graph.num_edges


# (module the caller looks the name up in, name, span, summary of the result)
SPAN_SITES = (
    ("qwattack.experiments", "run_fig1", "experiments.run", None),
    ("qwattack.experiments", "run_fig2", "experiments.run", None),
    ("qwattack.experiments", "generate_graph", "graphs.generate", _arcs_of),
    ("qwattack.experiments", "is_connected", "graphs.is_connected", None),
    ("qwattack.experiments", "find_2ec", "exceptional.scan", bool),
    ("qwattack.experiments", "find_ec_within_distance", "exceptional.scan", bool),
    ("qwattack.experiments", "evaluate_attack", "attack.evaluate", None),
    ("qwattack.attack", "optimize_measurement_time", "attack.optimize", None),
    ("qwattack.attack", "WalkOperator", "szegedy.build", None),
    ("qwattack.szegedy", "WalkOperator", "szegedy.build", None),
    ("qwattack.szegedy", "probability_trace", "szegedy.trace", None),
)

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    ("szegedy.setup_ms", "ms"),
    ("szegedy.builds", "count"),
    ("szegedy.step_us", "us"),
    ("szegedy.step_ns_per_arc", "ns/arc"),
    ("szegedy.arc_steps", "count"),
    ("attack.optimize_ms", "ms"),
    ("attack.evaluate_ms", "ms"),
    ("attack.steps_walked", "count"),
    ("attack.steps_base_scan", "count"),
    ("attack.steps_attacked_scan", "count"),
    ("attack.steps_common_t", "count"),
    ("graphs.generate_ms", "ms"),
    ("graphs.generate_ns_per_arc", "ns/arc"),
    ("graphs.is_connected_ms", "ms"),
    ("graphs.arcs", "count"),
    ("exceptional.scan_calls", "count"),
    ("exceptional.scan_ms", "ms"),
    ("exceptional.scan_hit_ratio", "ratio"),
    ("experiments.self_ms", "ms"),
    ("experiments.graph_regens", "count"),
    ("experiments.anchor_retries", "count"),
    ("experiments.useful_draw_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Records spans [name, op, parent index, start, end, summary] in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._sites = []
        for modname, attr, span, summary in SPAN_SITES:
            module = importlib.import_module(modname)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            self._sites.append((module, attr, original, self._wrap(span, original, summary)))

    def _wrap(self, name, fn, summary):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, self._op, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if summary is not None:
                rec[5] = summary(out)
            return out

        return traced

    @contextmanager
    def active(self, op: int):
        """Rebind every traced name for the duration of op `op`."""
        self._op = op
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._sites:
                setattr(module, attr, original)


def probe_walk(graph, marked, timed_trace: tuple[int, float] | None = None) -> dict:
    """Walk set-up and per-step time on one input, through the public API only.

    Set-up is the time of probability_trace(g, S, 0). The step time is the
    time of a trace of T steps less that set-up, divided by T. `timed_trace`
    is (T, seconds) for a trace the op already timed on this input;
    otherwise a PROBE_STEPS trace is timed here.
    """
    start = time.perf_counter()
    szegedy.probability_trace(graph, marked, 0)
    setup_s = time.perf_counter() - start
    if timed_trace is None:
        start = time.perf_counter()
        szegedy.probability_trace(graph, marked, PROBE_STEPS)
        timed_trace = (PROBE_STEPS, time.perf_counter() - start)
    steps, trace_s = timed_trace
    step_s = (trace_s - setup_s) / steps
    return {
        "setup_ms": setup_s * 1e3,
        "step_us": step_s * 1e6,
        "step_ns_per_arc": step_s * 1e9 / (2 * graph.num_edges),
    }


def layer_metrics(tracer: Tracer, samples: list[dict], overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics, normalised per traced op.

    `samples` holds one dict per traced op: counts derived from the op's
    output and, where the walk ran, its probe. Times and counts are totals
    per op; probe times and ratios are medians and pooled ratios.
    """
    ops = max(len(samples), 1)
    spans = tracer.spans
    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    summed: dict[str, int] = {}
    child_s = [0.0] * len(spans)
    for name, _, parent, start, end, summary in spans:
        dur[name] = dur.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if summary is not None:
            summed[name] = summed.get(name, 0) + int(summary)
        if parent >= 0:
            child_s[parent] += end - start
    run_self_s = sum(s[4] - s[3] - child_s[k] for k, s in enumerate(spans) if s[0] == "experiments.run")

    def total(key):
        return sum(s.get(key, 0) for s in samples)

    def median(key):
        vals = [s[key] for s in samples if key in s]
        return statistics.median(vals) if vals else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    per_op_ms = {name: dur.get(name, 0.0) * 1e3 / ops for name in calls}
    generated = summed.get("graphs.generate", 0)
    return {
        "szegedy.setup_ms": median("setup_ms"),
        "szegedy.builds": calls.get("szegedy.build", 0) / ops,
        "szegedy.step_us": median("step_us"),
        "szegedy.step_ns_per_arc": median("step_ns_per_arc"),
        "szegedy.arc_steps": total("arc_steps") / ops,
        "attack.optimize_ms": per_op_ms.get("attack.optimize", 0.0),
        "attack.evaluate_ms": per_op_ms.get("attack.evaluate", 0.0),
        "attack.steps_walked": total("steps_walked") / ops,
        "attack.steps_base_scan": total("steps_base_scan") / ops,
        "attack.steps_attacked_scan": total("steps_attacked_scan") / ops,
        "attack.steps_common_t": total("steps_common_t") / ops,
        "graphs.generate_ms": per_op_ms.get("graphs.generate", 0.0),
        "graphs.generate_ns_per_arc": ratio(dur.get("graphs.generate", 0.0) * 1e9, generated),
        "graphs.is_connected_ms": per_op_ms.get("graphs.is_connected", 0.0),
        "graphs.arcs": generated / ops,
        "exceptional.scan_calls": calls.get("exceptional.scan", 0) / ops,
        "exceptional.scan_ms": per_op_ms.get("exceptional.scan", 0.0),
        "exceptional.scan_hit_ratio": ratio(summed.get("exceptional.scan", 0), calls.get("exceptional.scan", 0)),
        "experiments.self_ms": run_self_s * 1e3 / ops,
        "experiments.graph_regens": total("graph_regens") / ops,
        "experiments.anchor_retries": total("anchor_retries") / ops,
        "experiments.useful_draw_ratio": ratio(total("draws_accepted"), total("draws_attempted")),
        "trace.overhead_frac": overhead_frac,
    }
