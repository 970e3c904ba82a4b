"""Byte-for-byte golden outputs: small fig1/fig2 CSVs and walk-trace digests.

The goldens under tests/golden/ pin what the engine computes, bit for bit.
A refactor or speed-up that keeps the arithmetic must leave them unchanged.
A change that deliberately moves the numerics regenerates them in the same
change, with the reason recorded in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

from qwattack.exceptional import find_2ec
from qwattack.experiments import (
    ExperimentConfig,
    run_fig1,
    run_fig2,
    write_fig1_csv,
    write_fig2_csv,
)
from qwattack.graphs import ModelParams, derive_seed, generate_graph, is_connected
from qwattack.szegedy import probability_trace

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FIG2_CONFIG = ExperimentConfig(
    "fig2", models=("er", "ws", "ba"), n_grid=(60, 120), samples_per_n=2, root_seed=0
)
FIG1_CONFIG = ExperimentConfig(
    "fig1", models=("er", "ws", "ba"), n_grid=(60, 120), samples_per_n=5, root_seed=0
)
TRACE_SIZES = (100, 400)
TRACE_STEPS = 300


def trace_cases():
    """(model, n, graph seed, marked set): an anchor and its first 2EC per sample."""
    for model_index, model in enumerate(("er", "ws", "ba")):
        for n in TRACE_SIZES:
            for attempt in range(200):
                seed = derive_seed(0, model_index, n, attempt)
                graph = generate_graph(ModelParams(model=model), n, seed=seed)
                if is_connected(graph):
                    break
            anchor, ec = next((v, ecs[0]) for v in range(n) if (ecs := find_2ec(graph, v)))
            yield model, n, seed, graph, [anchor]
            yield model, n, seed, graph, sorted(ec.vertices)


def trace_digests() -> list[dict]:
    return [
        {
            "model": model,
            "n": n,
            "seed": seed,
            "marked": marked,
            "t_max": TRACE_STEPS,
            "sha256": hashlib.sha256(
                probability_trace(graph, marked, TRACE_STEPS).tobytes()
            ).hexdigest(),
        }
        for model, n, seed, graph, marked in trace_cases()
    ]


def write_goldens(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    write_fig2_csv(run_fig2(FIG2_CONFIG), directory / "fig2.csv")
    write_fig1_csv(run_fig1(FIG1_CONFIG), directory / "fig1.csv")
    with open(directory / "traces.json", "w", encoding="ascii", newline="\n") as fh:
        json.dump(trace_digests(), fh, indent=1)
        fh.write("\n")


def test_fig2_csv_matches_golden(tmp_path):
    out = tmp_path / "fig2.csv"
    write_fig2_csv(run_fig2(FIG2_CONFIG), out)
    assert out.read_bytes() == (GOLDEN_DIR / "fig2.csv").read_bytes()


def test_fig1_csv_matches_golden(tmp_path):
    out = tmp_path / "fig1.csv"
    write_fig1_csv(run_fig1(FIG1_CONFIG), out)
    assert out.read_bytes() == (GOLDEN_DIR / "fig1.csv").read_bytes()


def test_trace_digests_match_golden():
    with open(GOLDEN_DIR / "traces.json", encoding="ascii") as fh:
        golden = json.load(fh)
    assert len(golden) == 2 * 3 * len(TRACE_SIZES)
    assert trace_digests() == golden


if __name__ == "__main__":
    write_goldens(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_DIR)
