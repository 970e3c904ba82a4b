import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import count, islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import (
    arc_trace,
    complete,
    connected_draws,
    cycle,
    dense_initial,
    dense_reflection,
    dense_search_step,
    dense_trace,
    dense_uniform_chain,
    exceptional_by_definition,
    index_of,
    max_marked_first_mass,
    plus_one_eigenspace,
    star,
    stationary_witness,
)
from qwattack.exceptional import find_2ec, find_3ec, find_ec_within_distance
from qwattack.graphs import Graph, ModelParams, generate_graph, gen_watts_strogatz
from qwattack.graphs import derive_seed, is_connected
from qwattack.szegedy import NumericalStabilityError, WalkOperator, probability_trace


def random_unit_state(graph, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=graph.indices.size)
    return amps / np.linalg.norm(amps)


def norm(amps):
    return math.sqrt(amps.dot(amps))


def column(graph, v):
    """Support and weights of column v of the uniform chain, the squared reflection profile."""
    op = WalkOperator(graph)
    lo, hi = graph.indptr[v], graph.indptr[v + 1]
    return op.second[lo:hi], op._profile[lo:hi] ** 2


class TestStochasticMatrix:
    def test_uniform_on_k3(self):
        for v in range(3):
            idx, wts = column(complete(3), v)
            assert list(idx) == sorted(set(range(3)) - {v})
            assert np.allclose(wts, 0.5)

    def test_uniform_on_c4_columns_sum_to_one(self):
        for v in range(4):
            _, wts = column(cycle(4), v)
            assert wts.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(wts, 0.5)

    def test_uniform_on_star(self):
        idx, wts = column(star(4), 0)
        assert list(idx) == [1, 2, 3, 4]
        assert np.allclose(wts, 0.25)
        for leaf in range(1, 5):
            idx, wts = column(star(4), leaf)
            assert list(idx) == [0]
            assert wts[0] == 1.0

    def test_chain_shares_the_graph_arrays_read_only(self):
        g = star(4)
        op = WalkOperator(g)
        assert op.n == g.n and op.first is g.tails and op.second is g.indices
        assert not op.first.flags.writeable and not op.second.flags.writeable
        # bit for bit the start built from the arc-length chain weights 1/deg(first)
        weights = np.repeat(1.0 / g.degrees, g.degrees)
        assert np.array_equal(op.start(), np.sqrt(weights) / math.sqrt(g.n))

    def test_isolated_vertex_rejected(self):
        with pytest.raises(ValueError, match="vertex 2 is isolated"):
            WalkOperator(Graph(3, [(0, 1)]))
        with pytest.raises(ValueError, match="vertex 2 is isolated"):
            probability_trace(Graph(3, [(0, 1)]), [0], 1)


class TestInitialState:
    def test_c4_closed_form(self):
        # each of the 8 directed-edge pairs carries sqrt(1/2)/2
        s = WalkOperator(cycle(4)).start()
        nonzero = s[s != 0]
        assert nonzero.size == 8
        assert np.allclose(nonzero, math.sqrt(0.5) / 2)
        assert norm(s) == pytest.approx(1.0, abs=1e-12)

    def test_k2_closed_form(self):
        op = WalkOperator(complete(2))
        amp = {(int(f), int(sec)): a for f, sec, a in zip(op.first, op.second, op.start())}
        assert amp[(0, 1)] == pytest.approx(1 / math.sqrt(2))
        assert amp[(1, 0)] == pytest.approx(1 / math.sqrt(2))
        assert op.second.size == 2

    @pytest.mark.parametrize("name_seed", [("er", 3), ("ws", 5), ("ba", 7)])
    def test_first_register_marginal_is_uniform(self, name_seed):
        model, seed = name_seed
        g = generate_graph(ModelParams(model=model), 30, seed=seed)
        for v in (0, 7, 29):
            assert next(WalkOperator(g, [v]).probabilities()) == pytest.approx(1 / 30, abs=1e-12)


class TestWalkAgainstDenseOracle:
    @pytest.mark.parametrize(
        "graph,marked",
        [
            (cycle(4), [0]),
            (complete(2), [0]),
            (complete(3), [0]),
            (star(4), [0]),
            (star(4), [1]),
            (cycle(8), [0, 1]),
        ],
    )
    def test_named_graphs_20_steps(self, graph, marked):
        sparse = probability_trace(graph, marked, 20)
        dense = dense_trace(graph, marked, 20)
        assert np.max(np.abs(sparse - dense)) < 1e-10

    @pytest.mark.parametrize("model", ["er", "ws", "ba"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_model_samples_n12(self, model, seed):
        g = None
        for s in range(seed, seed + 30):
            cand = generate_graph(ModelParams(model=model), 12, seed=s)
            if all(cand.degree(v) > 0 for v in range(12)):
                g = cand
                break
        assert g is not None
        sparse = probability_trace(g, [0, 5], 20)
        dense = dense_trace(g, [0, 5], 20)
        assert np.max(np.abs(sparse - dense)) < 1e-10

    def test_per_step_state_agrees(self):
        g = cycle(5)
        marked = [2]
        op = WalkOperator(g, marked)
        state = op.start()

        P = dense_uniform_chain(g)
        W = dense_search_step(P, marked)
        vec = dense_initial(P)
        for _ in range(12):
            state = op.apply(state)
            vec = W @ vec
            lifted = np.zeros(g.n * g.n)
            lifted[op.first * g.n + op.second] = state
            assert np.max(np.abs(lifted - vec)) < 1e-10

    @pytest.mark.slow
    @pytest.mark.parametrize("model,n", [("er", 300), ("ws", 300), ("ba", 300)])
    def test_matches_per_arc_oracle_100_steps(self, model, n):
        # the literal dict-state walk at sizes the dense oracle cannot reach,
        # marking one vertex and then a 2EC that suppresses the search
        _, g = next(connected_draws(ModelParams(model=model), n, (derive_seed(11, n, a) for a in range(50))))
        ec = next(ecs[0].vertices for w in range(n) if (ecs := find_2ec(g, w)))
        for marked in ([0], list(ec)):
            sparse = probability_trace(g, marked, 100)
            assert np.max(np.abs(sparse - arc_trace(g, marked, 100))) <= 1e-12

    def test_k2_frozen_value(self):
        # dense oracle gives p(t) = 1/2 for every t on K2 with S={0}
        trace = probability_trace(complete(2), [0], 5)
        assert np.allclose(trace, 0.5, atol=1e-12)

    def test_c4_frozen_trace(self):
        # dense oracle gives a flat trace: p(t) = 1/4 on C4 with S={0}
        trace = probability_trace(cycle(4), [0], 8)
        dense = dense_trace(cycle(4), [0], 8)
        assert np.max(np.abs(trace - dense)) < 1e-10
        assert np.allclose(trace, 0.25, atol=1e-10)


def literal_reflection(amps, blocks, profile, n):
    """2 |profile><profile| - I per block, written out step by step: multiply,
    block sums, double, gather, scale by the arc profile, subtract the input."""
    weighted = np.multiply(profile, amps)
    overlap = np.bincount(blocks, weights=weighted, minlength=n)
    overlap *= 2.0
    out = np.take(overlap, blocks)
    out *= profile
    out -= amps
    return out


class TestBitwiseStep:
    """The engine's reflections and step, bit for bit against the literal transcription.

    The seed-0 benchmark references compare integer fields such as the
    optimal time exactly, and a last-bit change in p(t) can move them, so a
    faster step must round every amplitude the same way.
    """

    @pytest.mark.parametrize("model", ["er", "ws", "ba"])
    def test_200_steps_match_the_literal_reflections(self, model):
        n = 300
        _, g = next(connected_draws(ModelParams(model=model), n, (derive_seed(13, n, a) for a in range(50))))
        ec = next(ecs[0] for w in range(n) if (ecs := find_2ec(g, w)))
        first, second = np.repeat(np.arange(n), g.degrees), g.indices
        profile = np.sqrt(np.repeat(1.0 / g.degrees, g.degrees))
        swapped_profile = np.sqrt(1.0 / np.diff(g.indptr))[second]
        start = profile / math.sqrt(n)
        for marked in ([ec.anchor], list(ec.vertices)):
            op = WalkOperator(g, marked)
            assert np.array_equal(op.start(), start)
            leaving = np.isin(first, marked)
            entering = np.isin(second, marked)

            def literal_probability(amps):
                sel = amps[leaving]
                return min(float(np.add.reduce(sel * sel)), 1.0)

            amps = start
            literal_probs = [literal_probability(amps)]
            for _ in range(200):
                r1 = literal_reflection(amps, first, profile, n)
                r2 = literal_reflection(amps, second, swapped_profile, n)
                assert np.array_equal(op.reflect(amps, leaving=True), r1)
                assert np.array_equal(op.reflect(amps, leaving=False), r2)
                step = literal_reflection(np.where(leaving, -amps, amps), first, profile, n)
                step = literal_reflection(np.where(entering, -step, step), second, swapped_profile, n)
                amps = op.apply(amps)
                assert np.array_equal(amps, step)
                literal_probs.append(literal_probability(step))
            # the optimizer's raw-array stream walks the same literal steps
            assert list(islice(op.probabilities(), 201)) == literal_probs


PAW = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


class TestAllMarkedFixedPoint:
    @pytest.mark.parametrize("graph", [complete(3), cycle(4), star(3), complete(6), PAW])
    def test_absorbed_superposition_is_fixed(self, graph):
        # S = V: Q1 and Q2 negate every arc, so the step is R2 R1, which fixes
        # the uniform arc state 1/sqrt(2m): it lies in the span of both profiles
        op = WalkOperator(graph, range(graph.n))
        s = np.full(2 * graph.num_edges, 1 / math.sqrt(2 * graph.num_edges))
        out = op.apply(s)
        assert np.linalg.norm(out - s) <= 1e-10

    def test_start_state_is_not_fixed_off_regular_graphs(self):
        # on the paw the degrees differ, so sqrt(P(w, v)) / sqrt(n) is not uniform on arcs
        op = WalkOperator(PAW, range(PAW.n))
        s = op.start()
        out = op.apply(s)
        assert np.linalg.norm(out - s) > 0.1


class TestUnitarityAndInvolutions:
    @pytest.mark.parametrize("seed", range(6))
    def test_walk_preserves_norm(self, seed):
        g = generate_graph(ModelParams(model="er", er_p=0.2), 40, seed=seed)
        if any(g.degree(v) == 0 for v in range(g.n)):
            pytest.skip("isolated vertex in sample")
        op = WalkOperator(g, [0, 3])
        s = random_unit_state(g, seed)
        out = op.apply(s)
        assert abs(norm(out) - norm(s)) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_reflections_are_involutions(self, seed):
        g = gen_watts_strogatz(30, 4, 0.5, seed=seed)
        op = WalkOperator(g, [1])
        s = random_unit_state(g, 100 + seed)
        twice1 = op.reflect(op.reflect(s, leaving=True), leaving=True)
        twice2 = op.reflect(op.reflect(s, leaving=False), leaving=False)
        assert np.max(np.abs(twice1 - s)) < 1e-10
        assert np.max(np.abs(twice2 - s)) < 1e-10

    def test_reflection_matches_dense(self):
        g = cycle(6)
        op = WalkOperator(g, [0])
        s = random_unit_state(g, 9)
        R1 = dense_reflection(dense_uniform_chain(g))
        lifted = np.zeros(g.n * g.n)
        lifted[op.first * g.n + op.second] = s
        expected = R1 @ lifted
        got = op.reflect(s, leaving=True)
        lifted_got = np.zeros(g.n * g.n)
        lifted_got[op.first * g.n + op.second] = got
        assert np.max(np.abs(lifted_got - expected)) < 1e-10

    @pytest.mark.slow
    def test_norm_drift_over_1000_steps(self):
        g = gen_watts_strogatz(100, default_k := 10, 0.5, seed=3)
        op = WalkOperator(g, [0])
        s = op.start()
        for _ in range(1000):
            s = op.apply(s)
        assert abs(norm(s) - 1.0) < 1e-8

    def test_norm_guard_raises_on_broken_operator(self):
        op = WalkOperator(cycle(6), [0])
        s = op.start()
        op._profile = op._profile * 1.5  # corrupt the reflection profile
        with pytest.raises(NumericalStabilityError):
            op.apply(s)

    def test_norm_guard_catches_a_drift_of_a_millionth(self):
        # a profile 1e-6 too long moves the norm by about 2e-6: far above the 1e-8 limit
        op = WalkOperator(cycle(6), [0])
        s = op.start()
        op._profile = op._profile * (1 + 1e-6)
        with pytest.raises(NumericalStabilityError, match="changed the state norm"):
            op.apply(s)

    def test_norm_guard_raises_after_a_good_step(self):
        # a good first step, then a broken second one: the check fires against the stepped norm
        op = WalkOperator(cycle(6), [0])
        s = op.apply(op.start())
        op._swapped_profile = op._swapped_profile * 1.5
        with pytest.raises(NumericalStabilityError, match="changed the state norm from"):
            op.apply(s)

    def test_equal_space_different_object_accepted(self):
        # apply takes any arc array: here the start of an equal graph's own operator
        op = WalkOperator(cycle(6), [0])
        out = op.apply(WalkOperator(cycle(6)).start())
        assert abs(norm(out) - 1.0) < 1e-12

    def test_arc_space_is_the_graph_csr(self):
        op = WalkOperator(PAW)
        assert op.second.size == 2 * PAW.num_edges
        assert op.second is PAW.indices
        assert op.first.tolist() == [0, 0, 1, 1, 2, 2, 2, 3]
        assert index_of(PAW, [2, 3, 0], [3, 2, 2]).tolist() == [6, 7, 1]
        for f, s in ((0, 3), (1, 1), (4, 0), (-1, 0)):
            with pytest.raises(KeyError, match="not in the graph"):
                index_of(PAW, f, s)


class TestSuccessProbability:
    def test_initial_single_marked(self):
        assert next(WalkOperator(cycle(8), [0]).probabilities()) == pytest.approx(1 / 8, abs=1e-12)

    def test_initial_k_marked(self):
        p0 = next(WalkOperator(complete(6), [0, 2, 4]).probabilities())
        assert p0 == pytest.approx(3 / 6, abs=1e-12)

    def test_clamped_to_one(self):
        # marked mass 1 + 5e-14: the float dust a unit state's sum can carry
        op = WalkOperator(cycle(3), range(3))
        amps = np.full(op.second.size, 1e-7)
        amps[0] = 1.0
        op.start = lambda: amps
        assert next(op.probabilities()) == 1.0

    @pytest.mark.parametrize("vertex", [-1, 8])
    def test_out_of_range_vertex_rejected(self, vertex):
        with pytest.raises(ValueError, match=rf"marked set \[{vertex}\] out of range for n=8"):
            WalkOperator(cycle(8), [vertex])
        with pytest.raises(ValueError, match=rf"marked set \[{vertex}\] out of range for n=8"):
            probability_trace(cycle(8), [vertex], 0)


class TestProbabilityTrace:
    @pytest.mark.parametrize("model,n,k", [("er", 50, 1), ("ws", 40, 2), ("ba", 60, 3)])
    def test_trace_starts_at_k_over_n(self, model, n, k):
        g = None
        for seed in range(30):
            cand = generate_graph(ModelParams(model=model), n, seed=seed)
            if all(cand.degree(v) > 0 for v in range(n)):
                g = cand
                break
        marked = list(range(k))
        trace = probability_trace(g, marked, 0)
        assert trace[0] == pytest.approx(k / n, abs=1e-12)

    @pytest.mark.slow
    def test_er_search_amplifies(self):
        # max_t p(t) >= 10/n within t <= 4 sqrt(n) log n on ER(200)
        n = 200
        _, g = next(connected_draws(ModelParams("er"), n, count()))
        t_max = math.ceil(4 * math.sqrt(n) * math.log(n))
        trace = probability_trace(g, [17], t_max)
        assert trace.max() >= 10 / n

    def test_two_threads_step_one_operator(self):
        """The operator keeps no scratch state: two threads walking through one operator
        at once each give the single-thread trace, bit for bit."""
        _, g = next(connected_draws(ModelParams("er"), 200, count()))
        expected = probability_trace(g, [0], 300)
        operator = WalkOperator(g, [0])
        barrier = threading.Barrier(2)

        def walk(_):
            barrier.wait()
            return np.fromiter(islice(operator.probabilities(), 301), dtype=np.float64, count=301)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over between (almost) every two numpy calls
        try:
            with ThreadPoolExecutor(2) as pool:
                traces = list(pool.map(walk, range(2)))
        finally:
            sys.setswitchinterval(interval)
        assert [trace.tobytes() == expected.tobytes() for trace in traces] == [True, True]

    def test_negative_t_max_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            probability_trace(cycle(4), [0], -1)

    def test_empty_marked_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            probability_trace(cycle(4), [], 3)


class TestStationaryWitness:
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_cycle_adjacent_pair_has_concentrated_plus_one_eigenvector(self, n):
        g = cycle(n)
        marked = [0, 1]
        W = dense_search_step(dense_uniform_chain(g), marked)
        basis = plus_one_eigenspace(W)
        assert basis.shape[1] > 0
        assert max_marked_first_mass(basis, marked, n) >= 0.99

    def test_explicit_stationary_state_on_cycle(self):
        # c on every directed edge, -(deg-1)c on the marked-incident pair edge
        n = 8
        g = cycle(n)
        marked = [0, 1]
        op = WalkOperator(g, marked)
        amps = np.zeros(op.second.size)
        for k in range(op.second.size):
            f, s = int(op.first[k]), int(op.second[k])
            amps[k] = -1.0 if {f, s} == {0, 1} else 1.0
        amps /= np.linalg.norm(amps)
        out = op.apply(amps.copy())
        assert np.max(np.abs(out - amps)) < 1e-12


# a consistent witness system solves to ~1e-13; an inconsistent one misses by >= 1/3
WITNESS_TOL = 1e-9


def assert_step_fixes(g, marked, amps):
    amps = amps / np.linalg.norm(amps)
    out = WalkOperator(g, marked).apply(amps.copy())
    assert np.max(np.abs(out - amps)) <= 1e-12


class TestScaledStationaryWitness:
    """The degree-sum stationary state of a marked EC, checked on the sparse engine.

    For an adjacent pair {u, v} of equal degree d, the vector that is 1 on
    every arc and -(d - 1) on the arcs (u, v) and (v, u) is a +1 eigenvector
    of the search step with S = {u, v} (Prusis, Vihrovs and Wong, PRA 94,
    032334, 2016). For every kind, _oracles.stationary_witness
    solves the same construction from the degree sums inside the EC.
    """

    @staticmethod
    def draw(model, n):
        return next(connected_draws(ModelParams(model=model), n, (derive_seed(7, n, a) for a in range(50))))[1]

    @pytest.mark.parametrize("model", ["er", "ws", "ba"])
    @pytest.mark.parametrize("n", [800, 2400])
    def test_search_step_fixes_witness(self, model, n):
        g = self.draw(model, n)
        u, v = next(ecs[0].vertices for w in range(n) if (ecs := find_2ec(g, w)))
        d = g.degree(u)
        amps = np.ones(2 * g.num_edges)
        amps[index_of(g, [u, v], [v, u])] = -(d - 1.0)
        amps /= np.linalg.norm(amps)
        out = WalkOperator(g, [u, v]).apply(amps.copy())
        assert np.max(np.abs(out - amps)) <= 1e-12

    @pytest.mark.parametrize("kind", ["2ec_path", "3ec_triangle", "3ec_path"])
    @pytest.mark.parametrize("model", ["er", "ws", "ba"])
    @pytest.mark.parametrize("n", [800, 2400])
    def test_search_step_fixes_solved_witness(self, model, n, kind):
        g = self.draw(model, n)
        ec = next((ec for w in range(n) for ec in find_ec_within_distance(g, w) if ec.kind == kind), None)
        assert ec is not None, f"no {kind} in the {model} draw of order {n}"
        for v in ec.vertices:  # each member lists the EC, whichever its role in it
            assert any(e.vertices == ec.vertices for e in find_ec_within_distance(g, v))
        assert exceptional_by_definition(g, ec.vertices)
        amps, residual = stationary_witness(g, ec.vertices)
        assert residual <= WITNESS_TOL
        assert_step_fixes(g, ec.vertices, amps)


class TestWitnessPredicate:
    @given(
        model=st.sampled_from(["er", "ws", "ba"]),
        n=st.integers(8, 30),
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_witness_exists_exactly_for_exceptional_sets(self, model, n, seed, data):
        # a connected H of 2-5 vertices, grown one neighbor at a time
        g = generate_graph(ModelParams(model=model), n, seed=seed)
        assume(is_connected(g))
        H = [data.draw(st.integers(0, n - 1), label="start")]
        size = data.draw(st.integers(2, 5), label="size")
        while len(H) < size:
            frontier = sorted({int(w) for v in H for w in g.neighbors(v)} - set(H))
            H.append(data.draw(st.sampled_from(frontier), label="grow"))
        amps, residual = stationary_witness(g, H)
        consistent = residual <= WITNESS_TOL
        assert exceptional_by_definition(g, H) == consistent
        if size <= 3:  # the enumerators list H from each member exactly when it is exceptional
            for v in H:
                listed = {ec.vertices for ec in find_ec_within_distance(g, v, orders=(size,))}
                assert (tuple(sorted(H)) in listed) == consistent
        if consistent:
            assert_step_fixes(g, H, amps)


class TestRelabelInvariance:
    @given(
        model=st.sampled_from(["er", "ws", "ba"]),
        n=st.integers(8, 30),
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_trace_is_independent_of_vertex_order(self, model, n, seed, data):
        g = generate_graph(ModelParams(model=model), n, seed=seed)
        assume(is_connected(g))
        perm = data.draw(st.permutations(range(n)), label="perm")
        marked = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True), label="marked"
        )
        relabeled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        base = probability_trace(g, marked, 50)
        moved = probability_trace(relabeled, [perm[v] for v in marked], 50)
        assert np.max(np.abs(base - moved)) <= 1e-12

    @pytest.mark.slow
    @pytest.mark.parametrize("model", ["er", "ws", "ba"])
    def test_relabelled_and_doubled_graphs_walk_alike_at_scale(self, model):
        # A relabelling reorders the terms of every block sum and changes none, so it moves p
        # by rounding alone; the disjoint union of the graph with a relabelled copy, the 2EC
        # marked in both, walks each copy as its own block. Over 2,000 steps from the first
        # 2EC of each draw, max |dp|/p read 1.8e-13 relabelled (ER, WS) and 2.1e-13 for the
        # union (WS): 4.7x headroom under 1e-12. The bound is relative because p spans
        # 2.5e-5 (WS) to 0.75 (BA): BA's |dp| reaches 1.1e-14 at p = 0.51, ER's stays 3.7e-16.
        n = 2400
        g = TestScaledStationaryWitness.draw(model, n)
        marked = np.array(next(ecs[0].vertices for w in range(n) if (ecs := find_2ec(g, w))))
        perm = np.random.default_rng(derive_seed(8, n)).permutation(n)
        edges = np.array(list(g.edges()))
        relabelled = Graph(n, perm[edges])
        union = Graph(2 * n, np.concatenate((edges, perm[edges] + n)))
        base = probability_trace(g, marked, 2000)
        for graph, marks in ((relabelled, perm[marked]), (union, np.concatenate((marked, perm[marked] + n)))):
            assert np.max(np.abs(probability_trace(graph, marks, 2000) - base) / base) <= 1e-12

    @pytest.mark.parametrize("model", ["er", "ws", "ba"])
    def test_enumerators_commute_with_relabelling_at_scale(self, model):
        # the draw and permutation of the walk test above, at n = 800: at every vertex, the
        # 2ECs and 3ECs of the relabelled graph at the vertex's image are the images of its own
        n = 800
        g = TestScaledStationaryWitness.draw(model, n)
        perm = np.random.default_rng(derive_seed(8, n)).permutation(n).tolist()
        relabelled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        for find in (find_2ec, find_3ec):
            for v in range(n):
                moved = {(tuple(sorted(perm[u] for u in ec.vertices)), ec.kind) for ec in find(g, v)}
                assert moved == {(ec.vertices, ec.kind) for ec in find(relabelled, perm[v])}, (find.__name__, v)
