import math

import numpy as np
import pytest

from _oracles import (
    complete,
    cycle,
    dense_absorb,
    dense_initial,
    dense_marked_mass,
    dense_reflection,
    dense_search_step,
    dense_swap,
    dense_trace,
    dense_uniform_chain,
    max_marked_first_mass,
    plus_one_eigenspace,
    star,
)
from qwattack.exceptional import find_2ec
from qwattack.graphs import Graph, ModelParams, generate_graph, gen_watts_strogatz
from qwattack.graphs import derive_seed, is_connected
from qwattack.szegedy import (
    NumericalStabilityError,
    PairSpace,
    StochasticMatrix,
    WalkOperator,
    WalkState,
    absorb_marked,
    apply_walk,
    initial_state,
    probability_trace,
    success_probability,
    uniform_stochastic,
)


def random_unit_state(space, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=space.size)
    return WalkState(space, amps / np.linalg.norm(amps))


class TestStochasticMatrix:
    def test_uniform_on_k3(self):
        P = uniform_stochastic(complete(3))
        for v in range(3):
            idx, wts = P.column(v)
            assert list(idx) == sorted(set(range(3)) - {v})
            assert np.allclose(wts, 0.5)

    def test_uniform_on_c4_columns_sum_to_one(self):
        P = uniform_stochastic(cycle(4))
        for v in range(4):
            _, wts = P.column(v)
            assert wts.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(wts, 0.5)

    def test_uniform_on_star(self):
        P = uniform_stochastic(star(4))
        idx, wts = P.column(0)
        assert list(idx) == [1, 2, 3, 4]
        assert np.allclose(wts, 0.25)
        for leaf in range(1, 5):
            idx, wts = P.column(leaf)
            assert list(idx) == [0]
            assert wts[0] == 1.0

    def test_isolated_vertex_rejected(self):
        with pytest.raises(ValueError, match="isolated"):
            uniform_stochastic(Graph(3, [(0, 1)]))

    def test_entry_lookup(self):
        P = uniform_stochastic(star(4))
        assert P.entry(0, 1) == 1.0
        assert P.entry(1, 0) == 0.25
        assert P.entry(2, 1) == 0.0

    def test_column_sum_validation(self):
        with pytest.raises(ValueError, match="sums to"):
            StochasticMatrix(2, [(np.array([1]), np.array([0.5])), (np.array([0]), np.array([1.0]))])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            StochasticMatrix(
                2,
                [
                    (np.array([0, 1]), np.array([1.5, -0.5])),
                    (np.array([0]), np.array([1.0])),
                ],
            )


class TestAbsorbMarked:
    def test_marked_column_becomes_self(self):
        P = uniform_stochastic(complete(3))
        A = absorb_marked(P, {0})
        idx, wts = A.column(0)
        assert list(idx) == [0] and wts[0] == 1.0
        for v in (1, 2):
            assert np.array_equal(A.column(v)[0], P.column(v)[0])
            assert np.array_equal(A.column(v)[1], P.column(v)[1])

    def test_all_marked_gives_identity_columns(self):
        P = uniform_stochastic(complete(4))
        A = absorb_marked(P, range(4))
        assert np.array_equal(A.to_dense(), np.eye(4))

    def test_idempotent(self):
        P = uniform_stochastic(cycle(5))
        once = absorb_marked(P, {0, 2})
        assert absorb_marked(once, {0, 2}) == once

    def test_empty_marked_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            absorb_marked(uniform_stochastic(complete(3)), set())

    def test_dense_agrees_with_oracle(self):
        g = cycle(6)
        A = absorb_marked(uniform_stochastic(g), {1, 4})
        expected = dense_absorb(dense_uniform_chain(g), {1, 4})
        assert np.allclose(A.to_dense(), expected, atol=0)


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
        assert amp[(0, 0)] == 0.0 and amp[(1, 1)] == 0.0

    @pytest.mark.parametrize("name_seed", [("er", 3), ("ws", 5), ("ba", 7)])
    def test_first_register_marginal_is_uniform(self, name_seed):
        model, seed = name_seed
        g = generate_graph(ModelParams(model=model), 30, seed=seed)
        chain = uniform_stochastic(g)
        s = initial_state(chain)
        for v in (0, 7, 29):
            assert success_probability(s, [v]) == pytest.approx(1 / 30, abs=1e-12)

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="vertices"):
            initial_state(uniform_stochastic(cycle(4)), n=5)


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
        state = initial_state(chain, space=space)

        P = dense_uniform_chain(g)
        W = dense_search_step(P, marked)
        vec = dense_initial(P)
        for _ in range(12):
            state = op.apply(state)
            vec = W @ vec
            lifted = np.zeros(g.n * g.n)
            lifted[space.first * g.n + space.second] = state.amps
            assert np.max(np.abs(lifted - vec)) < 1e-10

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


class TestAllMarkedFixedPoint:
    @pytest.mark.parametrize("graph", [complete(3), cycle(4), star(3), complete(6)])
    def test_absorbed_superposition_is_fixed(self, graph):
        # S = V: the state built from the absorbed chain is a fixed point
        chain = uniform_stochastic(graph)
        absorbed = absorb_marked(chain, range(graph.n))
        space = PairSpace.from_graph(graph)
        op = WalkOperator(chain, range(graph.n), space=space)
        s = initial_state(absorbed, space=space)
        out = op.apply(s)
        assert np.linalg.norm(out.amps - s.amps) <= 1e-10


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
        s = initial_state(chain, space=space)
        for _ in range(1000):
            s = op.apply(s)
        assert abs(s.norm() - 1.0) < 1e-8

    def test_norm_guard_raises_on_broken_operator(self):
        g = cycle(6)
        chain = uniform_stochastic(g)
        space = PairSpace.from_graph(g)
        op = WalkOperator(chain, [0], space=space)
        op._profile = op._profile * 1.5  # corrupt the reflection profile
        s = initial_state(chain, space=space)
        with pytest.raises(NumericalStabilityError):
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
        s = initial_state(chain, space=PairSpace.from_graph(g))
        out = apply_walk(op, s)
        assert abs(out.norm() - 1.0) < 1e-12

    def test_pair_space_must_be_swap_closed(self):
        with pytest.raises(ValueError, match="swap"):
            PairSpace(3, np.array([0 * 3 + 1]))  # (0,1) without (1,0)


class TestSuccessProbability:
    def test_initial_single_marked(self):
        g = cycle(8)
        s = initial_state(uniform_stochastic(g))
        assert success_probability(s, [0]) == pytest.approx(1 / 8, abs=1e-12)

    def test_initial_k_marked(self):
        g = complete(6)
        s = initial_state(uniform_stochastic(g))
        assert success_probability(s, [0, 2, 4]) == pytest.approx(3 / 6, abs=1e-12)


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
            if f == s:
                continue
            amps[k] = -1.0 if {f, s} == {0, 1} else 1.0
        amps /= np.linalg.norm(amps)
        out = op.apply(WalkState(space, amps.copy()))
        assert np.max(np.abs(out.amps - amps)) < 1e-12


class TestScaledStationaryWitness:
    """The degree-sum stationary state of a marked 2EC, checked on the sparse engine.

    For an adjacent pair {u, v} of equal degree d, the vector that is 1 on
    every arc, -(d - 1) on the arcs (u, v) and (v, u), and 0 on self-pairs
    is a +1 eigenvector of the search step with S = {u, v} (Prusis, Vihrovs
    and Wong, PRA 94, 032334, 2016).
    """

    @pytest.mark.parametrize("model", ["er", "ws", "ba"])
    @pytest.mark.parametrize("n", [800, 2400])
    def test_search_step_fixes_witness(self, model, n):
        for attempt in range(50):
            g = generate_graph(ModelParams(model=model), n, seed=derive_seed(7, n, attempt))
            if is_connected(g):
                break
        u, v = next(ecs[0].vertices for w in range(n) if (ecs := find_2ec(g, w)))
        d = g.degree(u)
        chain = uniform_stochastic(g)
        space = PairSpace.from_graph(g)
        amps = np.where(space.first == space.second, 0.0, 1.0)
        amps[space.index_of([u, v], [v, u])] = -(d - 1.0)
        amps /= np.linalg.norm(amps)
        out = WalkOperator(chain, [u, v], space=space).apply(WalkState(space, amps.copy()))
        assert np.max(np.abs(out.amps - amps)) <= 1e-12
