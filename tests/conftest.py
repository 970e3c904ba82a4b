import sys
from itertools import islice
from pathlib import Path

import pytest

from qwattack.graphs import ModelParams


def small_graph_corpus():
    """Named small graphs plus connected model samples with n <= 8."""
    from _oracles import complete, connected_draws, cycle, path, star

    graphs = {
        "K2": complete(2),
        "K3": complete(3),
        "K4": complete(4),
        "C4": cycle(4),
        "C5": cycle(5),
        "C8": cycle(8),
        "S4": star(4),
        "P5": path(5),
    }
    for model in ("er", "ws", "ba"):
        for n in (5, 6, 7, 8):
            for seed, g in islice(connected_draws(ModelParams(model=model), n, range(40)), 2):
                graphs[f"{model}{n}/{seed}"] = g
    return graphs


@pytest.fixture(scope="session")
def corpus():
    return small_graph_corpus()


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call" or Path(report.location[0]).name != "test_acceptance.py":
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else ("FAIL" if report.failed else "SKIP")
    sys.stderr.write(f"[acceptance] {name}: {status}\n")
