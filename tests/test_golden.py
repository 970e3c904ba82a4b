"""Byte-for-byte golden outputs: small fig1/fig2/fig3 CSVs, walk-trace and edge-list digests.

The goldens under tests/golden/ pin what the engine computes, bit for bit,
on any CPU: they are also rewritten with OpenBLAS and numpy forced onto other
kernels. A refactor or speed-up that keeps the arithmetic must leave them unchanged.
A change that deliberately moves the numerics regenerates them in the same
change, with the reason recorded in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qwattack.cli import cli_main
from qwattack.exceptional import find_2ec
from qwattack.experiments import (
    ExperimentConfig,
    run_fig1,
    run_fig2,
    run_fig3,
    write_fig1_csv,
    write_fig2_csv,
    write_fig3_csv,
)
from qwattack.graphs import (
    ModelParams,
    derive_seed,
    generate_graph,
    is_connected,
    write_edge_list,
)
from qwattack.szegedy import probability_trace

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
FIG2_CONFIG = ExperimentConfig(
    "fig2", models=("er", "ws", "ba"), n_grid=(60, 120), samples_per_n=2, root_seed=0
)
FIG1_CONFIG = ExperimentConfig(
    "fig1", models=("er", "ws", "ba"), n_grid=(60, 120), samples_per_n=5, root_seed=0
)
FIG3_CONFIG = ExperimentConfig(
    "fig3", models=("er", "ws", "ba"), n_grid=(60, 90, 120), samples_per_n=2, root_seed=1
)
TRACE_SIZES = (100, 400)
TRACE_STEPS = 300
EDGE_LIST_SIZES = (5, 60, 200, 1000)
EDGE_LIST_SEEDS = (0, 1, 2)


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


def edge_list_cases():
    """(label, params, n, seed): every model at its default rules, plus WS beta = 1
    and ER p in {0, 1}. Small BA orders make the weighted sampling redraw."""
    for model in ("er", "ws", "ba"):
        for n in EDGE_LIST_SIZES:
            for seed in EDGE_LIST_SEEDS:
                yield model, ModelParams(model=model), n, seed
    for n in EDGE_LIST_SIZES:
        yield "ws_beta1", ModelParams(model="ws", ws_beta=1.0), n, 0
    for p in (0.0, 1.0):
        for n in EDGE_LIST_SIZES[:3]:
            yield f"er_p{p:g}", ModelParams(model="er", er_p=p), n, 0


def edge_list_digests() -> list[dict]:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.txt"
        for label, params, n, seed in edge_list_cases():
            write_edge_list(generate_graph(params, n, seed=seed), path)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            out.append({"case": label, "n": n, "seed": seed, "sha256": digest})
    return out


def write_goldens(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    write_fig2_csv(run_fig2(FIG2_CONFIG), directory / "fig2.csv")
    write_fig1_csv(run_fig1(FIG1_CONFIG), directory / "fig1.csv")
    write_fig3_csv(run_fig3(run_fig2(FIG3_CONFIG), FIG3_CONFIG.models), directory / "fig3.csv")
    with open(directory / "traces.json", "w", encoding="ascii", newline="\n") as fh:
        json.dump(trace_digests(), fh, indent=1)
        fh.write("\n")
    with open(directory / "edge_lists.json", "w", encoding="ascii", newline="\n") as fh:
        json.dump(edge_list_digests(), fh, indent=1)
        fh.write("\n")


def test_fig2_csv_matches_golden(tmp_path):
    out = tmp_path / "fig2.csv"
    write_fig2_csv(run_fig2(FIG2_CONFIG), out)
    assert out.read_bytes() == (GOLDEN_DIR / "fig2.csv").read_bytes()


def test_fig1_csv_matches_golden(tmp_path):
    out = tmp_path / "fig1.csv"
    write_fig1_csv(run_fig1(FIG1_CONFIG), out)
    assert out.read_bytes() == (GOLDEN_DIR / "fig1.csv").read_bytes()


def test_fig3_csv_matches_golden(tmp_path):
    out = tmp_path / "fig3.csv"
    write_fig3_csv(run_fig3(run_fig2(FIG3_CONFIG), FIG3_CONFIG.models), out)
    assert out.read_bytes() == (GOLDEN_DIR / "fig3.csv").read_bytes()


def test_no_draw_builds_a_numpy_generator(tmp_path, monkeypatch):
    """Every draw reads raw PCG64 words: the fig1 and fig2 goldens, and an attack's
    configuration pick, come out with np.random.default_rng and Generator refused."""
    def refuse(*args, **kwargs):
        raise AssertionError("a draw built a numpy Generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    test_fig2_csv_matches_golden(tmp_path)
    test_fig1_csv_matches_golden(tmp_path)
    write_edge_list(generate_graph(ModelParams(model="ba"), 40, seed=2), tmp_path / "ba.edges")
    argv = ["attack", "--in", str(tmp_path / "ba.edges"), "--marked", "3", "--orders", "2,3",
            "--seed", "1", "--out", str(tmp_path / "attack.csv")]
    assert cli_main(argv) == 0


def test_trace_digests_match_golden():
    with open(GOLDEN_DIR / "traces.json", encoding="ascii") as fh:
        golden = json.load(fh)
    assert len(golden) == 2 * 3 * len(TRACE_SIZES)
    assert trace_digests() == golden


def test_edge_list_digests_match_golden():
    with open(GOLDEN_DIR / "edge_lists.json", encoding="ascii") as fh:
        golden = json.load(fh)
    assert len(golden) == 3 * len(EDGE_LIST_SIZES) * len(EDGE_LIST_SEEDS) + len(EDGE_LIST_SIZES) + 6
    assert edge_list_digests() == golden


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy without mode="dicts", or no BLAS entry
        return "unknown"


def test_goldens_do_not_follow_the_cpu_kernels(tmp_path):
    """The goldens come out byte for byte with OpenBLAS and numpy forced onto other kernels
    than the ones they pick for this CPU: no output goes through BLAS or LAPACK."""
    if sys.platform != "linux" or platform.machine() != "x86_64":
        pytest.skip(f"forcing kernels needs x86-64 Linux, not {sys.platform} on {platform.machine()}")
    if "openblas" not in _blas_name().lower():
        pytest.skip(f"OPENBLAS_CORETYPE needs numpy built on OpenBLAS, not {_blas_name()}")
    # (OPENBLAS_CORETYPE, NPY_DISABLE_CPU_FEATURES): the oldest x86-64 kernels OpenBLAS and
    # numpy carry, then Haswell's AVX2 + FMA kernels where the CPU has both
    cases = [("Prescott", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR")]
    if {"avx2", "fma"} <= set(Path("/proc/cpuinfo").read_text().split()):
        cases.append(("Haswell", ""))
    pythonpath = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    for coretype, disabled in cases:
        out = tmp_path / coretype
        env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_CORETYPE=coretype,
                   NPY_DISABLE_CPU_FEATURES=disabled)
        subprocess.run([sys.executable, __file__, str(out)], env=env, check=True, timeout=300)
        written = sorted(p.name for p in out.iterdir())
        assert written == sorted(p.name for p in GOLDEN_DIR.iterdir())
        differ = [name for name in written if (out / name).read_bytes() != (GOLDEN_DIR / name).read_bytes()]
        assert differ == [], f"OPENBLAS_CORETYPE={coretype}"


if __name__ == "__main__":
    write_goldens(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_DIR)
