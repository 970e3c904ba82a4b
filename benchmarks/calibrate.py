"""A fixed reference computation that tracks the machine's speed.

The benchmark runs on a shared machine whose speed drifts by 20% or more
within a minute, in CPU time as much as in wall time, so two runs of the
same code can differ by more than a change worth detecting. Before each op
the loop times `measure()`: a kernel that does the program's two kinds of
work on fixed inputs that no change to qwattack can touch. One half is
numpy gathers and bincounts over an arc-sized array, like a walk step; the
other is pure-Python set and list work, like graph generation. run.py
reports op times at the reference speed: each op's time is scaled by
REFERENCE_S over the kernel's running median around that op.
"""

import statistics
import time

import numpy as np

# A typical median time of the kernel on the machine the README's numbers
# come from (2-vCPU Xeon at 2.1 GHz), where runs read 7.5 to 11.5 ms. It
# only sets the scale of the reported times.
REFERENCE_S = 0.010
# Ops on each side of an op whose kernel times make its running median.
HALF_WINDOW = 5

_VERTICES, _ARCS = 2000, 16000
_rng = np.random.default_rng(20180227)
_FIRST = np.sort(_rng.integers(0, _VERTICES, _ARCS))
_PERM = _rng.permutation(_ARCS)
_WEIGHTS = _rng.random(_ARCS)
_START = _rng.random(_ARCS)


def _array_work() -> float:
    x = _START
    for _ in range(40):
        overlap = np.bincount(_FIRST, weights=_WEIGHTS * x, minlength=_VERTICES)
        x = (2.0 * overlap[_FIRST] * _WEIGHTS - x)[_PERM]
        x /= np.linalg.norm(x)
    return float(x[0])


def _python_work() -> int:
    adjacency = [set() for _ in range(500)]
    r = 12345
    for _ in range(6000):
        r = (r * 1103515245 + 12345) & 0x7FFFFFFF
        a, b = r % 500, (r >> 9) % 500
        if a != b and b not in adjacency[a]:
            adjacency[a].add(b)
            adjacency[b].add(a)
    order = sorted(range(500), key=lambda v: len(adjacency[v]))
    return sum(len(adjacency[v]) for v in order)


def measure() -> tuple[float, float]:
    """Wall and process CPU seconds of one pass of the reference kernel."""
    wall, cpu = time.perf_counter(), time.process_time()
    _array_work()
    _python_work()
    return time.perf_counter() - wall, time.process_time() - cpu


def running_median(values: list[float]) -> list[float]:
    """Median of each value and its HALF_WINDOW neighbours on either side."""
    return [statistics.median(values[max(0, k - HALF_WINDOW):k + HALF_WINDOW + 1])
            for k in range(len(values))]


def at_reference_speed(times: list[float], kernel_times: list[float]) -> list[float]:
    """Each time scaled to the reference speed by the kernel timed around it."""
    return [t * REFERENCE_S / k for t, k in zip(times, running_median(kernel_times))]
