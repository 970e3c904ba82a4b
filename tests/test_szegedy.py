import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import (
    arc_trace,
    complete,
    cycle,
    dense_initial,
    dense_marked_mass,
    dense_reflection,
    dense_search_step,
    dense_swap,
    dense_trace,
    dense_uniform_chain,
    exceptional_by_definition,
    index_of,
    max_marked_first_mass,
    plus_one_eigenspace,
    star,
    stationary_witness,
)
from qwattack.exceptional import find_2ec, find_ec_within_distance
from qwattack.graphs import Graph, ModelParams, generate_graph, gen_watts_strogatz
from qwattack.graphs import derive_seed, is_connected
from qwattack.szegedy import (
    NumericalStabilityError,
    PairSpace,
    WalkOperator,
    WalkState,
    initial_state,
    probability_trace,
    success_probability,
    uniform_stochastic,
)


def random_unit_state(space, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=space.size)
    return WalkState(space, amps / np.linalg.norm(amps))


def column(P, v):
    """Support and weights of column v of a chain."""
    lo, hi = P.indptr[v], P.indptr[v + 1]
    return P.second[lo:hi], P.weights[lo:hi]


class TestStochasticMatrix:
    def test_uniform_on_k3(self):
        P = uniform_stochastic(complete(3))
        for v in range(3):
            idx, wts = column(P, v)
            assert list(idx) == sorted(set(range(3)) - {v})
            assert np.allclose(wts, 0.5)

    def test_uniform_on_c4_columns_sum_to_one(self):
        P = uniform_stochastic(cycle(4))
        for v in range(4):
            _, wts = column(P, v)
            assert wts.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(wts, 0.5)

    def test_uniform_on_star(self):
        P = uniform_stochastic(star(4))
        idx, wts = column(P, 0)
        assert list(idx) == [1, 2, 3, 4]
        assert np.allclose(wts, 0.25)
        for leaf in range(1, 5):
            idx, wts = column(P, leaf)
            assert list(idx) == [0]
            assert wts[0] == 1.0

    def test_chain_shares_the_graph_arrays_read_only(self):
        g = star(4)
        P = uniform_stochastic(g)
        assert P.n == g.n and P.indptr is g.indptr and P.second is g.indices
        assert not P.weights.flags.writeable
        assert np.array_equal(P.weights, np.repeat(1.0 / g.degrees, g.degrees))
        assert P == PairSpace.from_graph(g)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(ValueError, match="isolated"):
            uniform_stochastic(Graph(3, [(0, 1)]))
        with pytest.raises(ValueError, match="isolated"):
            PairSpace.from_graph(Graph(3, [(0, 1)]))

    def test_the_chain_is_the_walk_space(self):
        chain = uniform_stochastic(cycle(6))
        assert WalkOperator(chain, [0]).space is chain
        assert initial_state(chain).space is chain


class TestInitialState:
    def test_c4_closed_form(self):
        # each of the 8 directed-edge pairs carries sqrt(1/2)/2
        g = cycle(4)
        s = initial_state(uniform_stochastic(g))
        nonzero = s.amps[s.amps != 0]
        assert nonzero.size == 8
        assert np.allclose(nonzero, math.sqrt(0.5) / 2)
        assert s.norm() == pytest.approx(1.0, abs=1e-12)

    def test_k2_closed_form(self):
        s = initial_state(uniform_stochastic(complete(2)))
        space = s.space
        amp = {(int(f), int(sec)): a for f, sec, a in zip(space.first, space.second, s.amps)}
        assert amp[(0, 1)] == pytest.approx(1 / math.sqrt(2))
        assert amp[(1, 0)] == pytest.approx(1 / math.sqrt(2))
        assert space.size == 2

    @pytest.mark.parametrize("name_seed", [("er", 3), ("ws", 5), ("ba", 7)])
    def test_first_register_marginal_is_uniform(self, name_seed):
        model, seed = name_seed
        g = generate_graph(ModelParams(model=model), 30, seed=seed)
        chain = uniform_stochastic(g)
        s = initial_state(chain)
        for v in (0, 7, 29):
            assert success_probability(s, [v]) == pytest.approx(1 / 30, abs=1e-12)


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
    def test_model_samples_n12(self, model, seed, corpus):
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
        chain = uniform_stochastic(g)
        space = PairSpace.from_graph(g)
        op = WalkOperator(chain, marked, space=space)
        state = WalkState(space, initial_state(chain).amps)

        P = dense_uniform_chain(g)
        W = dense_search_step(P, marked)
        vec = dense_initial(P)
        for _ in range(12):
            state = op.apply(state)
            vec = W @ vec
            lifted = np.zeros(g.n * g.n)
            lifted[space.first * g.n + space.second] = state.amps
            assert np.max(np.abs(lifted - vec)) < 1e-10

    @pytest.mark.slow
    @pytest.mark.parametrize("model,n", [("er", 300), ("ws", 300), ("ba", 300)])
    def test_matches_per_arc_oracle_100_steps(self, model, n):
        # the literal dict-state walk at sizes the dense oracle cannot reach,
        # marking one vertex and then a 2EC that suppresses the search
        g = next(
            c for a in range(50)
            if is_connected(c := generate_graph(ModelParams(model=model), n, seed=derive_seed(11, n, a)))
        )
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
        g = next(
            c for a in range(50)
            if is_connected(c := generate_graph(ModelParams(model=model), n, seed=derive_seed(13, n, a)))
        )
        ec = next(ecs[0] for w in range(n) if (ecs := find_2ec(g, w)))
        space = uniform_stochastic(g)
        profile = np.sqrt(space.weights)
        swapped_profile = np.sqrt(1.0 / np.diff(space.indptr))[space.second]
        for marked in ([ec.anchor], list(ec.vertices)):
            op = WalkOperator(space, marked)
            leaving = np.isin(space.first, marked)
            entering = np.isin(space.second, marked)
            state = initial_state(space)
            for _ in range(200):
                amps = state.amps
                r1 = literal_reflection(amps, space.first, profile, n)
                r2 = literal_reflection(amps, space.second, swapped_profile, n)
                assert np.array_equal(op.reflect_first(state).amps, r1)
                assert np.array_equal(op.reflect_second(state).amps, r2)
                step = literal_reflection(np.where(leaving, -amps, amps), space.first, profile, n)
                step = literal_reflection(np.where(entering, -step, step), space.second, swapped_profile, n)
                state = op.apply(state)
                assert np.array_equal(state.amps, step)


PAW = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


class TestAllMarkedFixedPoint:
    @pytest.mark.parametrize("graph", [complete(3), cycle(4), star(3), complete(6), PAW])
    def test_absorbed_superposition_is_fixed(self, graph):
        # S = V: Q1 and Q2 negate every arc, so the step is R2 R1, which fixes
        # the uniform arc state 1/sqrt(2m): it lies in the span of both profiles
        chain = uniform_stochastic(graph)
        space = PairSpace.from_graph(graph)
        op = WalkOperator(chain, range(graph.n), space=space)
        s = WalkState(space, np.full(space.size, 1 / math.sqrt(2 * graph.num_edges)))
        out = op.apply(s)
        assert np.linalg.norm(out.amps - s.amps) <= 1e-10

    def test_start_state_is_not_fixed_off_regular_graphs(self):
        # on the paw the degrees differ, so sqrt(P(w, v)) / sqrt(n) is not uniform on arcs
        chain = uniform_stochastic(PAW)
        s = initial_state(chain)
        out = WalkOperator(chain, range(PAW.n)).apply(s)
        assert np.linalg.norm(out.amps - s.amps) > 0.1


class TestUnitarityAndInvolutions:
    @pytest.mark.parametrize("seed", range(6))
    def test_walk_preserves_norm(self, seed):
        g = generate_graph(ModelParams(model="er", er_p=0.2), 40, seed=seed)
        if any(g.degree(v) == 0 for v in range(g.n)):
            pytest.skip("isolated vertex in sample")
        chain = uniform_stochastic(g)
        space = PairSpace.from_graph(g)
        op = WalkOperator(chain, [0, 3], space=space)
        s = random_unit_state(space, seed)
        out = op.apply(s)
        assert abs(out.norm() - s.norm()) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_reflections_are_involutions(self, seed):
        g = gen_watts_strogatz(30, 4, 0.5, seed=seed)
        chain = uniform_stochastic(g)
        space = PairSpace.from_graph(g)
        op = WalkOperator(chain, [1], space=space)
        s = random_unit_state(space, 100 + seed)
        twice1 = op.reflect_first(op.reflect_first(s))
        twice2 = op.reflect_second(op.reflect_second(s))
        assert np.max(np.abs(twice1.amps - s.amps)) < 1e-10
        assert np.max(np.abs(twice2.amps - s.amps)) < 1e-10

    def test_reflection_matches_dense(self):
        g = cycle(6)
        chain = uniform_stochastic(g)
        space = PairSpace.from_graph(g)
        op = WalkOperator(chain, [0], space=space)
        s = random_unit_state(space, 9)
        R1 = dense_reflection(dense_uniform_chain(g))
        lifted = np.zeros(g.n * g.n)
        lifted[space.first * g.n + space.second] = s.amps
        expected = R1 @ lifted
        got = op.reflect_first(s)
        lifted_got = np.zeros(g.n * g.n)
        lifted_got[space.first * g.n + space.second] = got.amps
        assert np.max(np.abs(lifted_got - expected)) < 1e-10

    @pytest.mark.slow
    def test_norm_drift_over_1000_steps(self):
        g = gen_watts_strogatz(100, default_k := 10, 0.5, seed=3)
        chain = uniform_stochastic(g)
        space = PairSpace.from_graph(g)
        op = WalkOperator(chain, [0], space=space)
        s = WalkState(space, initial_state(chain).amps)
        for _ in range(1000):
            s = op.apply(s)
        assert abs(s.norm() - 1.0) < 1e-8

    def test_norm_guard_raises_on_broken_operator(self):
        g = cycle(6)
        chain = uniform_stochastic(g)
        space = PairSpace.from_graph(g)
        op = WalkOperator(chain, [0], space=space)
        op._profile = op._profile * 1.5  # corrupt the reflection profile
        s = WalkState(space, initial_state(chain).amps)
        with pytest.raises(NumericalStabilityError):
            op.apply(s)

    def test_stepped_state_carries_its_norm_and_is_frozen(self):
        g = gen_watts_strogatz(30, 4, 0.5, seed=2)
        chain = uniform_stochastic(g)
        space = PairSpace.from_graph(g)
        op = WalkOperator(chain, [0, 1], space=space)
        s = WalkState(space, initial_state(chain).amps)
        for _ in range(5):
            s = op.apply(s)
            assert s.norm() == float(np.linalg.norm(s.amps))
            assert not s.amps.flags.writeable
        with pytest.raises(ValueError):
            s.amps[0] = 1.0
        with pytest.raises(AttributeError):
            s.amps = np.zeros(space.size)
        twin = WalkState(space, s.amps.copy())
        assert twin.amps.flags.writeable and twin.norm() == s.norm()

    def test_user_state_norm_is_computed_on_demand(self):
        space = PairSpace.from_graph(cycle(5))
        s = WalkState(space, np.zeros(space.size))
        assert s.norm() == 0.0
        s.amps[3] = 2.0
        assert s.norm() == 2.0

    def test_norm_guard_raises_after_a_good_step(self):
        # the second step's input norm is the carried one; the check still fires
        g = cycle(6)
        chain = uniform_stochastic(g)
        space = PairSpace.from_graph(g)
        op = WalkOperator(chain, [0], space=space)
        s = op.apply(WalkState(space, initial_state(chain).amps))
        op._swapped_profile = op._swapped_profile * 1.5
        with pytest.raises(NumericalStabilityError, match="changed the state norm from"):
            op.apply(s)

    def test_space_mismatch_rejected(self):
        g1, g2 = cycle(4), cycle(5)
        op = WalkOperator(uniform_stochastic(g1), [0])
        s = initial_state(uniform_stochastic(g2))
        with pytest.raises(ValueError, match="pair space"):
            op.apply(s)

    def test_equal_space_different_object_accepted(self):
        g = cycle(6)
        chain = uniform_stochastic(g)
        op = WalkOperator(chain, [0], space=PairSpace.from_graph(g))
        s = WalkState(PairSpace.from_graph(g), initial_state(chain).amps)
        out = op.apply(s)
        assert abs(out.norm() - 1.0) < 1e-12

    def test_other_space_of_a_freed_equal_space_rejected(self):
        # C6 and two triangles both have 12 arcs. Stepping a state on an
        # equal copy of C6's space, then freeing that copy, must not let a
        # triangles space that CPython allocates at the copy's address (and
        # so under its id) through the space check.
        g = cycle(6)
        chain = uniform_stochastic(g)
        op = WalkOperator(chain, [0], space=PairSpace.from_graph(g))
        triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        for _ in range(20):
            op.apply(WalkState(PairSpace.from_graph(g), initial_state(chain).amps))
            other = PairSpace.from_graph(triangles)
            assert other.size == op.space.size
            with pytest.raises(ValueError, match="pair space"):
                op.apply(WalkState(other, np.zeros(other.size)))
            del other

    def test_operator_rejects_another_graphs_arc_space(self):
        # same order and degrees, other arcs: C6 against two triangles
        triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        chain = uniform_stochastic(cycle(6))
        with pytest.raises(ValueError, match="not the arc space"):
            WalkOperator(chain, [0], space=PairSpace.from_graph(triangles))

    def test_arc_space_is_the_graph_csr(self):
        space = PairSpace.from_graph(PAW)
        assert space.size == 2 * PAW.num_edges
        assert space.second is PAW.indices and space.indptr is PAW.indptr
        assert space.first.tolist() == [0, 0, 1, 1, 2, 2, 2, 3]
        assert index_of(space, [2, 3, 0], [3, 2, 2]).tolist() == [6, 7, 1]
        for f, s in ((0, 3), (1, 1), (4, 0), (-1, 0)):
            with pytest.raises(KeyError, match="not in pair space"):
                index_of(space, f, s)


class TestSuccessProbability:
    def test_initial_single_marked(self):
        g = cycle(8)
        s = initial_state(uniform_stochastic(g))
        assert success_probability(s, [0]) == pytest.approx(1 / 8, abs=1e-12)

    def test_initial_k_marked(self):
        g = complete(6)
        s = initial_state(uniform_stochastic(g))
        assert success_probability(s, [0, 2, 4]) == pytest.approx(3 / 6, abs=1e-12)

    @pytest.mark.parametrize("vertex", [-1, 8])
    def test_out_of_range_vertex_rejected(self, vertex):
        s = initial_state(uniform_stochastic(cycle(8)))
        with pytest.raises(ValueError, match=rf"marked set \[{vertex}\] out of range for n=8"):
            success_probability(s, [vertex])
        with pytest.raises(ValueError, match=rf"marked set \[{vertex}\] out of range for n=8"):
            WalkOperator(s.space, [vertex])


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
        from qwattack.graphs import default_er_p, gen_erdos_renyi, is_connected

        n = 200
        seed = 0
        while True:
            g = gen_erdos_renyi(n, default_er_p(n), seed)
            if is_connected(g):
                break
            seed += 1
        t_max = math.ceil(4 * math.sqrt(n) * math.log(n))
        trace = probability_trace(g, [17], t_max)
        assert trace.max() >= 10 / n

    def test_negative_t_max_rejected(self):
        with pytest.raises(ValueError):
            probability_trace(cycle(4), [0], -1)

    def test_empty_marked_rejected(self):
        with pytest.raises(ValueError):
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
        chain = uniform_stochastic(g)
        space = PairSpace.from_graph(g)
        op = WalkOperator(chain, marked, space=space)
        amps = np.zeros(space.size)
        for k in range(space.size):
            f, s = int(space.first[k]), int(space.second[k])
            amps[k] = -1.0 if {f, s} == {0, 1} else 1.0
        amps /= np.linalg.norm(amps)
        out = op.apply(WalkState(space, amps.copy()))
        assert np.max(np.abs(out.amps - amps)) < 1e-12


# a consistent witness system solves to ~1e-13; an inconsistent one misses by >= 1/3
WITNESS_TOL = 1e-9


def assert_step_fixes(g, marked, space, amps):
    amps = amps / np.linalg.norm(amps)
    out = WalkOperator(uniform_stochastic(g), marked, space=space).apply(WalkState(space, amps.copy()))
    assert np.max(np.abs(out.amps - amps)) <= 1e-12


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
        for attempt in range(50):
            g = generate_graph(ModelParams(model=model), n, seed=derive_seed(7, n, attempt))
            if is_connected(g):
                return g
        raise RuntimeError(f"no connected {model} draw of order {n}")

    @pytest.mark.parametrize("model", ["er", "ws", "ba"])
    @pytest.mark.parametrize("n", [800, 2400])
    def test_search_step_fixes_witness(self, model, n):
        g = self.draw(model, n)
        u, v = next(ecs[0].vertices for w in range(n) if (ecs := find_2ec(g, w)))
        d = g.degree(u)
        chain = uniform_stochastic(g)
        space = PairSpace.from_graph(g)
        amps = np.ones(space.size)
        amps[index_of(space, [u, v], [v, u])] = -(d - 1.0)
        amps /= np.linalg.norm(amps)
        out = WalkOperator(chain, [u, v], space=space).apply(WalkState(space, amps.copy()))
        assert np.max(np.abs(out.amps - amps)) <= 1e-12

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
        space = PairSpace.from_graph(g)
        amps, residual = stationary_witness(g, ec.vertices, space)
        assert residual <= WITNESS_TOL
        assert_step_fixes(g, ec.vertices, space, amps)


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
        space = PairSpace.from_graph(g)
        amps, residual = stationary_witness(g, H, space)
        consistent = residual <= WITNESS_TOL
        assert exceptional_by_definition(g, H) == consistent
        if size <= 3:  # the enumerators list H from each member exactly when it is exceptional
            for v in H:
                listed = {ec.vertices for ec in find_ec_within_distance(g, v, orders=(size,))}
                assert (tuple(sorted(H)) in listed) == consistent
        if consistent:
            assert_step_fixes(g, H, space, amps)


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
