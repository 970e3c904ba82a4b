"""The benchmark's three workloads: inputs from a seed, one op, output checks.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned. Per-op inputs are derived from the benchmark's
`--seed` alone, so the same seed gives the same inputs, and the program sees
only the generated inputs. Every op's output is checked against invariants
that hold for any seed; for `REFERENCE_SEED` it is also compared with the
records committed under `references/` (written by `make_references.py`).

Only public entry points of `experiments`, `szegedy`, `exceptional` and
`graphs` are called.
"""

import json
import math
from pathlib import Path

import numpy as np

from qwattack import exceptional, experiments, graphs, szegedy

MODELS = ("er", "ws", "ba")
PANELS = ("order2", "order23", "order23_d1")
REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "references"
# Absolute tolerance for floats against the references: loose enough for a
# change of summation order in the walk kernel, tight enough to catch a
# different walk.
FLOAT_TOL = 1e-9
# Tolerance of the exact identities between fields of one fig2 row.
IDENTITY_TOL = 1e-12
# Second argument of derive(): what the seed is for.
OP, WARM_UP, SIZE_DRAW = 0, 1, 2


def derive(seed: int, *parts: int) -> int:
    """A 63-bit seed from the run seed and integer parts (benchmark-own hashing)."""
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF, *parts]
    return int(np.random.SeedSequence(words).generate_state(1, dtype=np.uint64)[0] >> 1)


def arcs(graph) -> int:
    """Directed arcs of a graph: each undirected edge walked both ways."""
    return 2 * graph.num_edges


def scan_steps(t_opt: int, T_opt: float, t_pen: int) -> int:
    """Walk steps taken by one `optimize_measurement_time` scan.

    The scan stops at the first t with t + t_pen >= best. Past t_opt the best
    is T_opt, so it stops at max(t_opt + 1, ceil(T_opt - t_pen)) having
    walked one step fewer than that.
    """
    return max(t_opt, math.ceil(T_opt - t_pen) - 1)


def fig2_steps(report) -> dict[str, int]:
    """Walk steps behind one fig2 row, derived from the row alone.

    The base and attacked optimizer scans, plus the t_base steps that
    measure the attacked instance at the common time.
    """
    base = scan_steps(report.t_base, report.T_base, report.t_pen)
    attacked = scan_steps(report.t_opt, report.T_opt, report.t_pen)
    return {
        "steps_base_scan": base,
        "steps_attacked_scan": attacked,
        "steps_common_t": report.t_base,
        "steps_walked": base + report.t_base + attacked,
    }


def same(ref, got) -> bool:
    """Floats equal within FLOAT_TOL (infinities exactly); everything else exactly."""
    if isinstance(ref, list):
        return isinstance(got, list) and len(ref) == len(got) and all(map(same, ref, got))
    if isinstance(ref, float) and isinstance(got, float):
        if math.isfinite(ref) and math.isfinite(got):
            return abs(ref - got) <= FLOAT_TOL
        return ref == got
    return type(ref) is type(got) and ref == got


def load_references(name: str) -> list[dict]:
    with open(REFERENCE_DIR / f"{name}.json", encoding="ascii") as fh:
        return json.load(fh)["records"]


class Workload:
    """One benchmark workload. Subclasses define the op and its checks."""

    name = ""
    # First argument of every derive() call, so workloads draw disjoint inputs.
    tag = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.references: list[dict] | None = None

    def prepare(self) -> None:
        """Build the inputs that live across ops and warm up (repeatable)."""

    def op(self, i: int):
        """The timed call for op i."""
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        """Invariant violations of op i's output (any seed)."""
        raise NotImplementedError

    def records(self, i: int, out) -> list[tuple[int, dict]]:
        """Op i's output as (reference index, JSON record) pairs for reference comparison."""
        raise NotImplementedError

    def verify(self, i: int, out) -> list[str]:
        """Invariant checks plus, when references are loaded, the reference comparison."""
        problems = self.check(i, out)
        if self.references is not None:
            for k, got in self.records(i, out):
                if k < len(self.references):
                    ref = self.references[k]
                    problems += [f"record {k}: {key} differs from the reference" for key in ref
                                 if not same(ref[key], got.get(key))]
        return problems

    def layer_sample(self, i: int, out) -> tuple[dict, tuple | None]:
        """Per-op counts derived from the output, and the (graph, marked) input to probe."""
        return {}, None

    def timed_trace(self, op_s: float) -> tuple[int, float] | None:
        """(steps, seconds) if the op, which took op_s, was itself a walk trace."""
        return None

    def input_arcs(self, outputs: list) -> dict[str, int]:
        """Arcs of the workload's input graphs, keyed by model and order."""
        raise NotImplementedError


class Fig2(Workload):
    """One op: `run_fig2` for one (model, n=800) cell, one sample, fresh root seed.

    The paper's attack sweep at desk scale. Each sample builds the walk three
    times and runs two optimizer scans whose length varies by model (BA's
    is the longest), so walk set-up sets the median and BA the tail.
    """

    name = "fig2_n800"
    tag = 2
    n = 800
    warm_n = 100

    def _config(self, model: str, n: int, root_seed: int):
        return experiments.ExperimentConfig(
            "fig2", models=(model,), n_grid=(n,), samples_per_n=1, root_seed=root_seed, workers=1
        )

    def prepare(self) -> None:
        for m, model in enumerate(MODELS):
            experiments.run_fig2(self._config(model, self.warm_n, derive(self.seed, self.tag, WARM_UP, m)))

    def op(self, i: int):
        model = MODELS[i % len(MODELS)]
        return experiments.run_fig2(self._config(model, self.n, derive(self.seed, self.tag, OP, i)))

    def check(self, i: int, out) -> list[str]:
        if len(out) != 1:
            return [f"expected one fig2 row, got {len(out)}"]
        r = out[0]
        problems = []
        if (r.model, r.n) != (MODELS[i % len(MODELS)], self.n):
            problems.append(f"row is for ({r.model}, {r.n})")
        if not (0.0 < r.p_base <= 1.0 and 0.0 <= r.p_attacked <= 1.0):
            problems.append(f"probabilities out of range: p_base={r.p_base}, p_attacked={r.p_attacked}")
            return problems
        if abs(r.eff - (1.0 - r.p_attacked / r.p_base)) > IDENTITY_TOL:
            problems.append("eff != 1 - p_attacked/p_base")
        if not r.T_opt <= r.T_attacked * (1.0 + IDENTITY_TOL):
            problems.append("T_opt > T_attacked")
        if not math.isclose(r.T_base, (r.t_base + r.t_pen) / r.p_base, rel_tol=IDENTITY_TOL):
            problems.append("T_base != (t_base + t_pen) / p_base")
        return problems

    def records(self, i: int, out) -> list[tuple[int, dict]]:
        r = out[0]
        return [(i, {
            "seed": r.seed, "anchor": r.anchor, "added_vertices": list(r.added), "kind": r.kind,
            "t_base": r.t_base, "t_opt": r.t_opt, "t_pen": r.t_pen,
            "graph_regens": r.graph_regens, "anchor_retries": r.anchor_retries,
            "p_base": r.p_base, "T_base": r.T_base, "p_attacked": r.p_attacked,
            "T_attacked": r.T_attacked, "eff": r.eff, "T_opt": r.T_opt, "strong_eff": r.strong_eff,
        })]

    @staticmethod
    def _graph(r):
        # the documented recipe for re-deriving a fig2 row's graph from its seed
        params = graphs.ModelParams(model=r.model)
        return graphs.generate_graph(params, r.n, seed=graphs.derive_seed(r.seed, 0))

    def layer_sample(self, i: int, out) -> tuple[dict, tuple | None]:
        r = out[0]
        graph = self._graph(r)
        counts = fig2_steps(r)
        counts["arc_steps"] = counts["steps_walked"] * arcs(graph)
        counts["graph_regens"] = r.graph_regens
        counts["anchor_retries"] = r.anchor_retries
        # one accepted graph draw and one accepted anchor draw per sample
        counts["draws_accepted"] = 2
        counts["draws_attempted"] = 2 + r.graph_regens + r.anchor_retries
        return counts, (graph, (r.anchor,))

    def input_arcs(self, outputs: list) -> dict[str, int]:
        firsts = {}
        for out in outputs:
            firsts.setdefault(out[0].model, out[0])
        return {f"{m}{r.n}": arcs(self._graph(r)) for m, r in firsts.items()}


class SearchTrace(Workload):
    """One op: `szegedy.probability_trace(g, S, t_max)` on a fixed pool of inputs.

    The pool holds `graphs_per_model` connected n=1000 graphs of each model,
    built in set-up together with a 2EC-anchored vertex; S alternates between
    that anchor and its 2EC (the attacked set). Graph generation, EC search
    and the attack layer stay out of the timed loop, so the walk's set-up
    and step kernel are all that is timed.
    """

    name = "search_trace"
    tag = 3
    n = 1000
    t_max = 1500
    graphs_per_model = 2
    # p(t) is compared with the references at every sample_every-th step
    sample_every = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        self.pool: list[tuple[str, object, tuple[int, ...]]] = []

    def _draw(self, m: int, k: int):
        params = graphs.ModelParams(model=MODELS[m])
        for attempt in range(100):
            graph = graphs.generate_graph(params, self.n, seed=derive(self.seed, self.tag, OP, m, k, attempt))
            if not graphs.is_connected(graph):
                continue
            rng = np.random.default_rng(derive(self.seed, self.tag, OP, m, k, attempt, 1))
            for _ in range(self.n):
                found = exceptional.find_2ec(graph, int(rng.integers(self.n)))
                if found:
                    return graph, found[int(rng.integers(len(found)))]
        raise RuntimeError(f"no connected {MODELS[m]} graph with a 2EC anchor")

    def prepare(self) -> None:
        pool = []
        for k in range(self.graphs_per_model):
            for m, model in enumerate(MODELS):
                graph, ec = self._draw(m, k)
                pool.append((model, graph, (ec.anchor,)))
                pool.append((model, graph, ec.vertices))
        self.pool = pool
        szegedy.probability_trace(pool[0][1], pool[0][2], 10)

    def op(self, i: int):
        _, graph, marked = self.pool[i % len(self.pool)]
        return szegedy.probability_trace(graph, marked, self.t_max)

    def check(self, i: int, out) -> list[str]:
        _, graph, marked = self.pool[i % len(self.pool)]
        if out.shape != (self.t_max + 1,):
            return [f"trace has shape {out.shape}"]
        problems = []
        if abs(out[0] - len(marked) / graph.n) > IDENTITY_TOL:
            problems.append(f"p(0) = {out[0]} != |S|/n")
        if not np.all((out >= 0.0) & (out <= 1.0)):
            problems.append("p(t) outside [0, 1]")
        return problems

    def records(self, i: int, out) -> list[tuple[int, dict]]:
        k = i % len(self.pool)
        model, graph, marked = self.pool[k]
        return [(k, {"model": model, "arcs": arcs(graph), "marked": list(marked),
                     "p": [float(p) for p in out[:: self.sample_every]]})]

    def layer_sample(self, i: int, out) -> tuple[dict, tuple | None]:
        _, graph, marked = self.pool[i % len(self.pool)]
        return {"arc_steps": self.t_max * arcs(graph)}, (graph, marked)

    def timed_trace(self, op_s: float) -> tuple[int, float] | None:
        return self.t_max, op_s

    def input_arcs(self, outputs: list) -> dict[str, int]:
        return {f"{model}{graph.n}#{k // 2}": arcs(graph)
                for k, (model, graph, _) in enumerate(self.pool) if k % 2 == 0}


class Fig1(Workload):
    """One op: a sweep of `run_fig1` calls, one sample and all three panels each,
    over the nine (model, n) cells, n in `ns` and the models round-robin.

    Call c of the run is op c // 9 and has cell c % 9. Graph generation (WS
    rewiring above all) dominates; the rest is the 2/3-EC scan with the
    hop-distance filter. The walk and the attack layer never run. One call
    takes 6 to 75 ms depending on its cell, so a whole sweep is the op: its
    time does not jump between cells as a single call's median would.
    """

    name = "fig1_scan"
    tag = 1
    ns = (200, 600, 1000)
    warm_n = 100

    cells = len(MODELS) * len(ns)

    def _cell(self, c: int) -> tuple[str, int]:
        return MODELS[c % len(MODELS)], self.ns[(c // len(MODELS)) % len(self.ns)]

    def _config(self, model: str, n: int, root_seed: int):
        return experiments.ExperimentConfig(
            "fig1", models=(model,), n_grid=(n,), samples_per_n=1, root_seed=root_seed, workers=1
        )

    def prepare(self) -> None:
        for m, model in enumerate(MODELS):
            experiments.run_fig1(self._config(model, self.warm_n, derive(self.seed, self.tag, WARM_UP, m)))

    def _calls(self, i: int) -> range:
        return range(i * self.cells, (i + 1) * self.cells)

    def op(self, i: int):
        return [experiments.run_fig1(self._config(*self._cell(c), derive(self.seed, self.tag, OP, c)))
                for c in self._calls(i)]

    def check(self, i: int, out) -> list[str]:
        problems = []
        for c, rows in zip(self._calls(i), out):
            model, n = self._cell(c)
            if [(r.model, r.n, r.panel, r.samples) for r in rows] != [(model, n, p, 1) for p in PANELS]:
                problems.append(f"call {c}: rows do not cover the call's cell and panels")
                continue
            problems += [f"call {c}: {r.panel}: Wilson interval does not bracket {r.probability}"
                         for r in rows if not r.ci_low <= r.probability <= r.ci_high]
        return problems

    def records(self, i: int, out) -> list[tuple[int, dict]]:
        return [(c, {
            "hits": [round(r.probability * r.samples) for r in rows],
            "regens": rows[0].regens,
            "ci_low": [r.ci_low for r in rows],
            "ci_high": [r.ci_high for r in rows],
        }) for c, rows in zip(self._calls(i), out)]

    def layer_sample(self, i: int, out) -> tuple[dict, tuple | None]:
        regens = sum(rows[0].regens for rows in out)
        return {"graph_regens": regens, "draws_accepted": len(out),
                "draws_attempted": len(out) + regens}, None

    def input_arcs(self, outputs: list) -> dict[str, int]:
        # fig1 rows carry no per-draw seed, so measure one draw per cell
        found = {}
        for m, model in enumerate(MODELS):
            for n in self.ns:
                graph = graphs.generate_graph(graphs.ModelParams(model=model), n,
                                              seed=derive(self.seed, self.tag, SIZE_DRAW, m, n))
                found[f"{model}{n}"] = arcs(graph)
        return found


WORKLOADS = {w.name: w for w in (Fig2, SearchTrace, Fig1)}
