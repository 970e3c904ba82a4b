"""Layered benchmark for qwattack.

    python3 benchmarks/run.py --workload fig2_n800 --seed 0 --seconds 30 --trace 0

Runs one workload (see workloads.py and README.md) as a closed loop with
one client for `--seconds`, checks every op's output, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` each
op runs once plainly and once traced, and the metrics are the per-layer
ones. End-to-end times are reported at the reference speed of
calibrate.py, which a fixed kernel timed before every op tracks; the raw
times are in the details line, the line before the result, with the
machine. A run with a failed op exits with status 1; a traced run also
writes its spans under benchmarks/out/.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import bootstrap  # noqa: E402

WORKLOAD_NAMES = ("fig2_n800", "search_trace", "fig1_scan")
# Set-up is repeated and its median reported, so one slow pass does not move it.
SETUP_PASSES = 3
# Ops beyond the tail percentile; the tail is the (TAIL_OPS + 1)-th slowest op.
TAIL_OPS = 10
MAX_REPORTED_PROBLEMS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("op_cpu_ms_p50", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _read(path) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return None


def _git_sha(root) -> str | None:
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if head.startswith("ref: "):
        ref = head[5:]
        head = (_read(root / ".git" / ref) or "").strip()
        for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
            if not head and line.endswith(" " + ref):
                head = line.split()[0]
    return head if len(head) == 40 else None


def environment(root, seed: int) -> dict:
    """The machine and software the numbers were measured on."""
    import numpy as np

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, kind, size = _read(base + "level"), _read(base + "type"), _read(base + "size")
        if level and kind and size and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
        "git_sha": _git_sha(root),
        "seed": seed,
    }


def run_op(workload, i, tracer=None):
    """Time op i (wall and process CPU) and check its output; returns (wall_s, cpu_s, out, problems)."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            out = workload.op(i)
        else:
            with tracer.active(i):
                out = workload.op(i)
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return time.perf_counter() - wall, time.process_time() - cpu, None, [f"{type(exc).__name__}: {exc}"]
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    try:
        problems = workload.verify(i, out)
    except Exception as exc:  # a check that cannot run on the output fails the op
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return wall, cpu, out, problems


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_OPS ops beyond it, and its value."""
    ordered = sorted(values)
    # with too few ops for the rule, the slowest op stands in
    k = len(ordered) - TAIL_OPS - 1 if len(ordered) > TAIL_OPS else len(ordered) - 1
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def time_metrics(setup_s: float, walls: list[float], cpus: list[float]) -> dict[str, float]:
    """The end-to-end time metrics from set-up time and per-op wall and CPU seconds."""
    tail_pct, tail_s = tail(walls)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(walls) / sum(walls),
        "op_ms_p50": statistics.median(walls) * 1e3,
        "op_ms_tail": tail_s * 1e3,
        "op_ms_tail_percentile": tail_pct,
        "op_cpu_ms_p50": statistics.median(cpus) * 1e3,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = bootstrap.prepare()
    import calibrate
    import tracing
    import workloads

    import_s = time.perf_counter() - _START
    workload = workloads.WORKLOADS[args.workload](args.seed)
    passes = []
    for _ in range(SETUP_PASSES):
        start = time.perf_counter()
        workload.prepare()
        passes.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(passes)
    if args.seed == workloads.REFERENCE_SEED:
        workload.references = workloads.load_references(workload.name)

    walls, cpus, problems, outputs = [], [], [], []
    kernel_walls, kernel_cpus = [], []
    traced_walls, samples = [], []
    tracer = tracing.Tracer() if args.trace else None
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < args.seconds:
        # a traced run times each op plainly and traced, alternating which goes first
        order = ((False, True) if i % 2 == 0 else (True, False)) if tracer else (False,)
        plain = None
        kernel_wall, kernel_cpu = calibrate.measure()
        for traced in order:
            wall, cpu, out, bad = run_op(workload, i, tracer if traced else None)
            attempted += 1
            if bad:
                failed += 1
                problems += [f"op {i}: {p}" for p in bad]
            (traced_walls if traced else walls).append(wall)
            if not traced:
                cpus.append(cpu)
                kernel_walls.append(kernel_wall)
                kernel_cpus.append(kernel_cpu)
                plain = (wall, out, bad)
        wall, out, bad = plain
        if tracer and out is not None and not bad:
            sample, walk_input = workload.layer_sample(i, out)
            if walk_input is not None:
                sample.update(tracing.probe_walk(*walk_input, workload.timed_trace(wall)))
            samples.append(dict(sample, op=i))
        if len(outputs) < len(workloads.MODELS):
            outputs.append(out)
        i += 1
    elapsed = time.perf_counter() - start

    if tracer:
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        values = tracing.layer_metrics(tracer, samples, overhead)
        units = dict(tracing.PER_LAYER)
    else:
        values = time_metrics(setup_s, calibrate.at_reference_speed(walls, kernel_walls),
                              calibrate.at_reference_speed(cpus, kernel_cpus))
        tail_pct = values.pop("op_ms_tail_percentile")
        values["ok_frac"] = (attempted - failed) / attempted
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = dict(END_TO_END)

    details = {
        "workload": args.workload,
        "trace": args.trace,
        "ops": i,
        "failed_frac": failed / attempted,
        "setup_passes_s": passes,
        "import_s": import_s,
        "input_arcs": workload.input_arcs([o for o in outputs if o is not None]),
        "absent_spans": tracer.absent if tracer else [],
        "problems": problems[:MAX_REPORTED_PROBLEMS],
        "env": environment(root, args.seed),
    }
    if not tracer:
        details["op_ms_tail_percentile"] = tail_pct
        details["kernel_ms_p50"] = statistics.median(kernel_walls) * 1e3
        details["speed_vs_reference"] = calibrate.REFERENCE_S / statistics.median(kernel_walls)
        details["raw"] = time_metrics(setup_s, walls, cpus)
        details["raw"]["loop_ops_per_s"] = i / elapsed
    else:
        details["traced_ops"] = len(samples)
        out_dir = root / "benchmarks" / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w", encoding="ascii") as fh:
            json.dump({"details": details, "samples": samples,
                       "span_fields": ["name", "op", "parent", "start", "end", "summary"],
                       "spans": tracer.spans}, fh)
    for p in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"benchmark: {p}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
