import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    brute_force_ecs,
    complete,
    cycle,
    exceptional_by_definition,
    find_3ec_reference,
    path_middle,
    star,
)
from qwattack.exceptional import (
    ECKind,
    ExceptionalConfiguration,
    find_2ec,
    find_3ec,
    find_ec_within_distance,
)
from qwattack.experiments import ec_formation_probability, wilson_interval
from qwattack.graphs import Graph, ModelParams, gen_erdos_renyi, generate_graph


def middle_degree_example_graph():
    """Edges {a-b, b-c, b-d, b-e, a-d, c-e} with a..e = 0..4."""
    return Graph(5, [(0, 1), (1, 2), (1, 3), (1, 4), (0, 3), (2, 4)])


class TestFind2EC:
    def test_cycle_returns_both_neighbors(self):
        g = cycle(8)
        found = find_2ec(g, 3)
        assert [ec.vertices for ec in found] == [(2, 3), (3, 4)]
        assert all(ec.kind is ECKind.EC2_PATH and ec.anchor == 3 for ec in found)

    def test_star_center_has_none(self):
        assert find_2ec(star(4), 0) == []

    def test_order_is_ascending_in_partner(self):
        g = complete(5)
        found = find_2ec(g, 2)
        partners = [sorted(set(ec.vertices) - {2})[0] for ec in found]
        assert partners == sorted(partners)

    @pytest.mark.slow
    def test_ws_formation_level_matches_regenerated_fig(self):
        # regenerated level ~0.79 at n=1000 (measured across seeds 0..3:
        # 0.75..0.82); asserted within the +-0.15 stability band
        est = ec_formation_probability(
            ModelParams(model="ws"), 1000, orders=(2,), samples=100, seed=0
        )
        assert abs(est.probability - 0.79) <= 0.15


class TestFind3EC:
    def test_triangle_found(self):
        g = complete(3)
        found = find_3ec(g, 1)
        assert len(found) == 1
        assert found[0].kind is ECKind.EC3_TRIANGLE
        assert found[0].vertices == (0, 1, 2)

    def test_middle_degree_example_paths_and_triangles(self):
        g = middle_degree_example_graph()
        found = find_3ec(g, 1)
        kinds = {(ec.vertices, ec.kind) for ec in found}
        assert ((0, 1, 2), ECKind.EC3_PATH) in kinds  # deg 4 = 2 + 2
        assert ((0, 1, 3), ECKind.EC3_TRIANGLE) in kinds
        assert ((1, 2, 4), ECKind.EC3_TRIANGLE) in kinds

    def test_adjacent_ends_reported_as_triangle_not_path(self):
        g = complete(3)
        found = find_3ec(g, 0)
        assert all(ec.kind is ECKind.EC3_TRIANGLE for ec in found)

    def test_end_vertex_perspective(self):
        # star with two leaves: 1-0-2 has middle degree 2 = 1 + 1
        g = star(2)
        found = find_3ec(g, 1)
        assert [(ec.vertices, ec.kind) for ec in found] == [((0, 1, 2), ECKind.EC3_PATH)]

    @pytest.mark.slow
    def test_dense_er_has_no_path_3ec(self):
        # at p = 10 ln(n)/n degrees concentrate, so deg(b) = deg(a) + deg(c)
        # is unsatisfiable; measured frequency 0.0 over 50 graphs
        n = 500
        p = 10 * math.log(n) / n
        hits = 0
        for s in range(50):
            g = gen_erdos_renyi(n, p, seed=s)
            rng = np.random.default_rng(s)
            v = int(rng.integers(n))
            if any(ec.kind is ECKind.EC3_PATH for ec in find_3ec(g, v)):
                hits += 1
        assert hits / 50 < 0.05


class TestFind3ECAgainstReference:
    """The array form of find_3ec against the pair-by-pair loop in _oracles, list for list."""

    @pytest.mark.parametrize("model", ["er", "ws", "ba"])
    def test_every_vertex_of_model_draws(self, model):
        for seed in range(3):
            g = generate_graph(ModelParams(model), 200, seed)
            for v in range(g.n):
                assert find_3ec(g, v) == find_3ec_reference(g, v), (model, seed, v)

    def test_small_graphs(self):
        # an isolated vertex, K5 (triangles only), and a triangle whose ends' degrees sum
        # to the middle's, which is a triangle and not a path
        for g in (Graph(4, [(0, 1), (1, 2)]), complete(5), middle_degree_example_graph(), star(3)):
            for v in range(g.n):
                assert find_3ec(g, v) == find_3ec_reference(g, v), (g, v)
        assert find_3ec(Graph(4, [(0, 1), (1, 2)]), 3) == []
        assert len(find_3ec(complete(5), 2)) == 6


class TestBruteForceEquivalence:
    def test_enumerators_match_exhaustive_search(self, corpus):
        for name, g in corpus.items():
            if g.n > 8:
                continue
            for v in range(g.n):
                expected = brute_force_ecs(g, v)
                got = {
                    (ec.vertices, ec.kind.value)
                    for ec in find_2ec(g, v) + find_3ec(g, v)
                }
                assert got == expected, f"mismatch on {name} at vertex {v}"

    def test_all_graphs_on_four_vertices(self):
        import itertools

        pairs = list(itertools.combinations(range(4), 2))
        for mask in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            g = Graph(4, edges)
            for v in range(4):
                expected = brute_force_ecs(g, v)
                got = {
                    (ec.vertices, ec.kind.value)
                    for ec in find_2ec(g, v) + find_3ec(g, v)
                }
                assert got == expected

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=30, deadline=None)
    def test_every_enumerated_config_is_exceptional(self, seed):
        g = gen_erdos_renyi(10, 0.35, seed=seed)
        rng = np.random.default_rng(seed)
        v = int(rng.integers(10))
        for ec in find_2ec(g, v) + find_3ec(g, v):
            assert exceptional_by_definition(g, ec.vertices)
            assert v in ec.vertices

    def test_path_kind_matches_induced_shape(self, corpus):
        for g in corpus.values():
            if g.n > 8:
                continue
            for v in range(g.n):
                for ec in find_3ec(g, v):
                    if ec.kind is ECKind.EC3_PATH:
                        m = path_middle(g, ec.vertices)
                        others = [u for u in ec.vertices if u != m]
                        assert g.degree(m) == sum(g.degree(u) for u in others)


class TestDistanceRestriction:
    def test_cycle_local_pairs(self):
        found = find_ec_within_distance(cycle(8), 0, d=1, orders=(2,))
        assert [ec.vertices for ec in found] == [(0, 1), (0, 7)]

    def test_distance_two_is_superset_of_distance_one(self, corpus):
        for g in corpus.values():
            for v in range(min(g.n, 4)):
                d1 = set(
                    (ec.vertices, ec.kind) for ec in find_ec_within_distance(g, v, 1)
                )
                d2 = set(
                    (ec.vertices, ec.kind) for ec in find_ec_within_distance(g, v, 2)
                )
                assert d1 <= d2

    def test_unrestricted_equals_distance_two(self, corpus):
        # every order-2/3 configuration lies inside the 2-neighborhood
        for g in corpus.values():
            for v in range(min(g.n, 4)):
                free = find_ec_within_distance(g, v, None)
                d2 = find_ec_within_distance(g, v, 2)
                assert free == d2

    def test_local_path_requires_middle_anchor(self):
        # anchored at an end, the far vertex is at distance 2
        g = star(2)
        assert find_ec_within_distance(g, 1, d=1, orders=(3,)) == []
        assert len(find_ec_within_distance(g, 0, d=1, orders=(3,))) == 1

    @pytest.mark.parametrize("v", [-1, 8])
    @pytest.mark.parametrize("find", [
        find_2ec,
        find_3ec,
        lambda g, v: find_ec_within_distance(g, v, 1),
    ], ids=["find_2ec", "find_3ec", "within_distance_1"])
    def test_anchor_out_of_range_rejected(self, find, v):
        with pytest.raises(ValueError, match=f"vertex {v} out of range for n=8"):
            find(cycle(8), v)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            find_ec_within_distance(cycle(4), 0, d=3)
        with pytest.raises(ValueError):
            find_ec_within_distance(cycle(4), 0, orders=(4,))

    @pytest.mark.slow
    def test_ba_global_beats_local(self):
        # measured at n=1000: d=2 ~0.79 vs d=1 ~0.52
        params = ModelParams(model="ba")
        d1 = ec_formation_probability(params, 1000, orders=(2, 3), d=1, samples=100, seed=0)
        d2 = ec_formation_probability(params, 1000, orders=(2, 3), d=2, samples=100, seed=0)
        assert d2.probability > d1.probability


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi
        assert 0.0 <= lo <= hi <= 1.0

    def test_boundary_cases(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == pytest.approx(0.0, abs=1e-12) and hi < 0.15
        lo, hi = wilson_interval(50, 50)
        assert lo > 0.85 and hi == pytest.approx(1.0, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)


class TestFormationProbability:
    def test_complete_graph_always_has_2ec(self):
        est = ec_formation_probability(
            ModelParams(model="er", er_p=1.0), 20, orders=(2,), samples=20, seed=1
        )
        assert est.probability == 1.0

    def test_order_inclusion_monotonicity(self):
        params = ModelParams(model="er")
        only2 = ec_formation_probability(params, 100, orders=(2,), samples=40, seed=5)
        both = ec_formation_probability(params, 100, orders=(2, 3), samples=40, seed=5)
        assert both.probability >= only2.probability

    @pytest.mark.slow
    def test_ws_almost_surely_has_order3(self):
        est = ec_formation_probability(
            ModelParams(model="ws"), 1000, orders=(2, 3), samples=100, seed=0
        )
        assert est.probability >= 0.95

    def test_deterministic_for_fixed_seed(self):
        params = ModelParams(model="ba")
        a = ec_formation_probability(params, 60, samples=15, seed=9)
        b = ec_formation_probability(params, 60, samples=15, seed=9)
        assert a == b


class TestConfigurationType:
    def test_anchor_must_be_member(self):
        with pytest.raises(ValueError, match="anchor"):
            ExceptionalConfiguration((1, 2), ECKind.EC2_PATH, 5)

    def test_vertices_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            ExceptionalConfiguration((2, 1), ECKind.EC2_PATH, 1)

    def test_size_must_match_kind(self):
        with pytest.raises(ValueError):
            ExceptionalConfiguration((1, 2), ECKind.EC3_TRIANGLE, 1)

    def test_added_vertices(self):
        # the vertices other than the anchor, ascending, wherever the anchor sits
        assert ExceptionalConfiguration((3, 5, 7), ECKind.EC3_PATH, 5).added == (3, 7)
        assert ExceptionalConfiguration((3, 5, 7), ECKind.EC3_PATH, 7).added == (3, 5)
        assert ExceptionalConfiguration((2, 9), ECKind.EC2_PATH, 2).added == (9,)
        assert ExceptionalConfiguration((3, 5, 7), ECKind.EC3_PATH, 5).order == 3
