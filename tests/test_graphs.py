import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import connected_by_bfs, connected_by_union_find, cycle, reference_rows, star, ws_reference
from qwattack.graphs import (
    _RAW_CHUNK,
    EdgeListParseError,
    Graph,
    ModelParams,
    _pcg64_replay,
    default_er_p,
    default_ws_k,
    derive_seed,
    gen_barabasi_albert,
    gen_erdos_renyi,
    gen_watts_strogatz,
    generate_graph,
    is_connected,
    read_edge_list,
    write_edge_list,
)


def revalidate(graph):
    """Rebuild from the edge list; the constructor re-checks all invariants."""
    rebuilt = Graph(graph.n, list(graph.edges()))
    assert rebuilt == graph
    for v in range(graph.n):
        nbrs = graph.neighbors(v)
        assert np.all(np.diff(nbrs) > 0)
        assert np.all((0 <= nbrs) & (nbrs < graph.n))
        for w in nbrs:
            assert graph.has_edge(int(w), v)


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 5)])

    def test_uint64_endpoint_reported_unwrapped(self):
        with pytest.raises(ValueError, match=re.escape(f"edge (0, {2**63}) out of range for n=3")):
            Graph(3, np.array([[0, 2**63]], dtype=np.uint64))

    @pytest.mark.parametrize("edges, shown", [
        ([(0, 1.5)], "(0, 1.5)"), (np.array([[0, 2.7]]), "(0.0, 2.7)"),
    ], ids=["list", "float-array"])
    def test_rejects_non_integer_endpoint(self, edges, shown):
        with pytest.raises(ValueError, match=re.escape(f"edge {shown} has a non-integer endpoint")):
            Graph(3, edges)

    def test_adjacency_is_symmetric_and_sorted(self):
        g = Graph(4, [(2, 0), (3, 1), (0, 1)])
        revalidate(g)
        assert list(g.neighbors(0)) == [1, 2]
        assert g.degree(3) == 1
        assert g.num_edges == 3

    def test_edges_canonical_order(self):
        g = Graph(4, [(3, 2), (1, 0)])
        assert list(g.edges()) == [(0, 1), (2, 3)]


class TestErdosRenyi:
    def test_probability_one_gives_complete_graph(self):
        g = gen_erdos_renyi(4, 1.0, seed=0)
        assert g.num_edges == 6
        assert all(g.degree(v) == 3 for v in range(4))

    def test_probability_zero_gives_empty_graph(self):
        assert gen_erdos_renyi(10, 0.0, seed=3).num_edges == 0

    def test_default_probability_rule(self):
        # 2*ln(100)/100
        assert default_er_p(100) == pytest.approx(0.0921034037197618)

    def test_deterministic_for_fixed_seed(self):
        a = gen_erdos_renyi(60, 0.1, seed=42)
        b = gen_erdos_renyi(60, 0.1, seed=42)
        assert a == b
        assert a != gen_erdos_renyi(60, 0.1, seed=43)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gen_erdos_renyi(1, 0.5, seed=0)
        with pytest.raises(ValueError):
            gen_erdos_renyi(10, 1.5, seed=0)

    @pytest.mark.slow
    def test_mean_edge_count_matches_binomial(self):
        # 200 samples at n=1000; the sample mean must sit within 3 sigma of
        # the binomial expectation N*p with sigma scaled for the mean.
        n = 1000
        p = default_er_p(n)
        pairs = n * (n - 1) // 2
        counts = [gen_erdos_renyi(n, p, seed=s).num_edges for s in range(200)]
        sigma_mean = math.sqrt(pairs * p * (1 - p) / len(counts))
        assert abs(np.mean(counts) - pairs * p) < 3 * sigma_mean


class TestWattsStrogatz:
    def test_zero_rewiring_is_ring_lattice(self):
        g = gen_watts_strogatz(8, 2, 0.0, seed=0)
        assert g == cycle(8)

    def test_default_degree_rule(self):
        # ceil(2*ln 100) = 10, already even
        assert default_ws_k(100) == 10
        # ceil(2*ln 150) = 11, rounded up to even
        assert default_ws_k(150) == 12

    def test_edge_count_preserved_by_rewiring(self):
        for beta in (0.0, 0.3, 0.5, 1.0):
            g = gen_watts_strogatz(50, 4, beta, seed=7)
            assert g.num_edges == 50 * 4 // 2
            assert sum(g.degree(v) for v in range(50)) == 2 * g.num_edges
            revalidate(g)

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError, match="even"):
            gen_watts_strogatz(10, 3, 0.5, seed=0)

    def test_degree_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gen_watts_strogatz(10, 10, 0.5, seed=0)

    def test_deterministic_for_fixed_seed(self):
        assert gen_watts_strogatz(40, 6, 0.5, seed=9) == gen_watts_strogatz(40, 6, 0.5, seed=9)


class TestWattsStrogatzAgainstReference:
    """The generator against the set-based rewiring in _oracles: same stream, same edges."""

    @given(st.integers(3, 60), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_every_even_degree(self, n, beta, seed):
        for k in range(2, n, 2):
            for b in (0.0, 1.0, beta):
                assert gen_watts_strogatz(n, k, b, seed) == ws_reference(n, k, b, seed), (n, k, b, seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [1000, 2400, 4000])
    def test_experiment_sizes(self, n):
        for beta, seed in ((0.5, derive_seed(n, 0)), (1.0, derive_seed(n, 1))):
            k = default_ws_k(n)
            assert gen_watts_strogatz(n, k, beta, seed) == ws_reference(n, k, beta, seed), (n, k, beta, seed)


# 1 draws nothing; Lemire's method rejects about half the draws at 2**31 + 1, a quarter
# at 3 * 2**30 + 5 and almost none at 2**32 - 1
BOUNDS = (1, 2, 7, 2**31 + 1, 3 * 2**30 + 5, 2**32 - 1)


def replay_matches_numpy(seed, order, draws, p_double):
    """Drive _pcg64_replay and a real Generator through one interleaving of random()
    and integers(m), draws calls in all; return a lower bound on the 64-bit words used."""
    rng = np.random.default_rng(seed)
    double, bounded = _pcg64_replay(seed)
    doubles = halves = 0
    for i in range(draws):
        if order.random() < p_double:
            assert double() == rng.random(), (seed, i)
            doubles += 1
        else:
            m = order.choice(BOUNDS) if order.random() < 0.5 else order.randint(2, 5000)
            assert bounded(m) == rng.integers(m), (seed, i, m)
            halves += m > 1
    return doubles + halves // 2


class TestPcg64Replay:
    """_pcg64_replay against np.random.default_rng, call for call."""

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1), st.floats(0.25, 0.75))
    @settings(max_examples=30, deadline=None)
    def test_interleaved_draws(self, seed, order_seed, p_double):
        words = replay_matches_numpy(seed, random.Random(order_seed), 6 * _RAW_CHUNK, p_double)
        assert words > 2 * _RAW_CHUNK  # the replay refilled its chunk at least twice

    @pytest.mark.parametrize("m", [0, -1, 2**32, 2**40])
    def test_bound_out_of_range(self, m):
        _, integers = _pcg64_replay(0)
        with pytest.raises(ValueError, match="bound"):
            integers(m)

    @pytest.mark.slow
    def test_million_draws(self):
        assert replay_matches_numpy(derive_seed(5), random.Random(5), 10**6, 0.5) > 10**5


class TestBarabasiAlbert:
    def test_no_growth_steps_gives_seed_clique(self):
        g = gen_barabasi_albert(4, 3, seed=0)
        assert g.num_edges == 6

    def test_closed_form_edge_count(self):
        g = gen_barabasi_albert(200, 3, seed=5)
        assert g.num_edges == 6 + 3 * (200 - 4) == 594
        assert sum(g.degree(v) for v in range(200)) == 2 * 594
        revalidate(g)

    def test_minimum_degree_is_m0(self):
        g = gen_barabasi_albert(100, 3, seed=1)
        assert int(g.degrees.min()) >= 3

    def test_invalid_m0(self):
        with pytest.raises(ValueError):
            gen_barabasi_albert(5, 0, seed=0)
        with pytest.raises(ValueError):
            gen_barabasi_albert(5, 5, seed=0)

    @pytest.mark.slow
    def test_degree_tail_heavier_than_ws(self):
        # Scale-free comparison: tail weight relative to the bulk. Raw 95th
        # percentiles cannot be compared since the WS default degree (~16)
        # exceeds the BA mean degree (~6).
        n = 2000
        ratios = {"ba": [], "ws": []}
        for s in range(20):
            for model in ("ba", "ws"):
                g = generate_graph(ModelParams(model=model), n, seed=s)
                degs = np.sort(g.degrees)
                ratios[model].append(np.quantile(degs, 0.95) / np.median(degs))
        assert np.mean(ratios["ba"]) > np.mean(ratios["ws"])


class TestConnectivity:
    def test_cycle_is_connected(self):
        assert is_connected(cycle(8))

    def test_disjoint_triangles_are_not(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_connected(g)

    def test_single_vertex_is_connected(self):
        assert is_connected(Graph(1))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_union_find_oracle(self, seed):
        g = gen_erdos_renyi(12, 0.18, seed=seed)
        assert is_connected(g) == connected_by_union_find(g)

    @pytest.mark.slow
    def test_er_above_threshold_is_usually_connected(self):
        # p = 2 ln(n)/n sits above the ln(n)/n connectivity threshold
        n = 500
        ok = sum(is_connected(gen_erdos_renyi(n, default_er_p(n), seed=s)) for s in range(100))
        assert ok / 100 >= 0.99


@st.composite
def edge_lists(draw, max_n=24):
    """(n, edges): a simple graph's edges in random order and orientation.

    Sparse draws are often disconnected; n = 1 has no edges at all.
    """
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, [(v, u) if f else (u, v) for (u, v), f in zip(chosen, flips)]


@st.composite
def bad_edge_lists(draw):
    """(n, edges) with at least one out-of-range, self-loop or repeated edge."""
    n, edges = draw(edge_lists(max_n=12))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("range", "loop", "repeat") if edges else ("range", "loop")))
        if kind == "range":
            far = st.one_of(st.integers(-3, -1), st.integers(n, n + 3), st.just(2**70))
            bad = (draw(far), draw(st.integers(0, n - 1)))
            bad = bad[::-1] if draw(st.booleans()) else bad
        elif kind == "loop":
            v = draw(st.integers(0, n - 1))
            bad = (v, v)
        else:
            u, v = draw(st.sampled_from(edges))
            bad = (v, u) if draw(st.booleans()) else (u, v)
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges


class TestCsrAgainstReference:
    """The CSR Graph and the frontier BFS against set- and queue-based oracles."""

    @given(edge_lists())
    @settings(max_examples=150, deadline=None)
    def test_rows_degrees_and_edges(self, case):
        n, edges = case
        g = Graph(n, edges)
        rows = reference_rows(n, edges)
        assert [g.neighbors(v).tolist() for v in range(n)] == rows
        assert g.degrees.tolist() == [len(r) for r in rows]
        assert g.indptr.tolist() == np.cumsum([0] + [len(r) for r in rows]).tolist()
        assert list(g.edges()) == sorted((min(e), max(e)) for e in edges)
        assert g.num_edges == len(edges)
        for a in (g.indptr, g.indices, g.degrees, g.neighbors(0)):
            assert not a.flags.writeable
        assert Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2)) == g

    @given(edge_lists())
    @settings(max_examples=150, deadline=None)
    def test_is_connected_matches_bfs(self, case):
        n, edges = case
        assert is_connected(Graph(n, edges)) == connected_by_bfs(reference_rows(n, edges))

    @given(bad_edge_lists())
    @settings(max_examples=200, deadline=None)
    def test_first_bad_edge_message(self, case):
        n, edges = case
        with pytest.raises(ValueError) as expected:
            reference_rows(n, edges)
        with pytest.raises(ValueError) as got:
            Graph(n, edges)
        assert str(got.value) == str(expected.value)

    @given(bad_edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_edge_list_file_names_first_bad_line(self, tmp_path_factory, case):
        n, edges = case
        path = tmp_path_factory.mktemp("io") / "bad.edges"
        path.write_text(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges) + "0 1 2\n")
        with pytest.raises(ValueError) as expected:
            for k in range(len(edges)):
                reference_rows(n, edges[: k + 1])
        with pytest.raises(EdgeListParseError) as got:
            read_edge_list(path)
        assert str(got.value) == f"line {k + 2}: {expected.value}"

    def test_single_vertex(self):
        g = Graph(1)
        assert g.indptr.tolist() == [0, 0] and g.indices.size == 0
        assert g.neighbors(0).size == 0 and list(g.edges()) == []
        assert is_connected(g)

    def test_rejects_edges_that_are_not_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            Graph(4, [(0, 1, 2)])


class TestEdgeListIO:
    def test_round_trip_identity(self, tmp_path):
        g = gen_erdos_renyi(20, 0.3, seed=11)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_header_format(self, tmp_path):
        g = star(4)
        path = tmp_path / "s.edges"
        write_edge_list(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n 5"
        assert lines[1:] == ["0 1", "0 2", "0 3", "0 4"]

    def test_self_loop_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("n 5\n0 1\n3 3\n")
        with pytest.raises(EdgeListParseError, match="line 3.*self-loop"):
            read_edge_list(path)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("n 5\n0 7\n")
        with pytest.raises(EdgeListParseError, match="line 2.*out of range"):
            read_edge_list(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("n 5\n0 1\n1 0\n")
        with pytest.raises(EdgeListParseError, match="line 3.*duplicate"):
            read_edge_list(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("n 5\n0 1 2\n")
        with pytest.raises(EdgeListParseError, match="line 2"):
            read_edge_list(path)

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("n 5\n0 1\n0 1 2\n3 3\n")
        with pytest.raises(EdgeListParseError, match="line 3: expected 'u v'"):
            read_edge_list(path)
        path.write_text("n 5\n0 1\n3 3\n0 x\n")
        with pytest.raises(EdgeListParseError, match="line 3: self-loop"):
            read_edge_list(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n")
        with pytest.raises(EdgeListParseError, match="line 1"):
            read_edge_list(path)

    @given(n=st.integers(2, 12), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random_graphs(self, tmp_path_factory, n, seed):
        g = gen_erdos_renyi(n, 0.4, seed=seed)
        path = tmp_path_factory.mktemp("io") / "g.edges"
        write_edge_list(g, path)
        assert read_edge_list(path) == g


class TestModelDispatch:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            ModelParams(model="grid")

    @pytest.mark.parametrize("model", ["er", "ws"])
    def test_default_rules_reject_orders_below_two(self, model):
        with pytest.raises(ValueError, match="need at least 2 vertices, got 0"):
            ModelParams(model).check(0)

    @given(
        st.sampled_from(["er", "ws", "ba"]),
        st.integers(10, 40),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_generated_graphs_satisfy_invariants(self, model, n, seed):
        g = generate_graph(ModelParams(model=model), n, seed=seed)
        assert g.n == n
        revalidate(g)


class TestSeeding:
    def test_derive_seed_is_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
