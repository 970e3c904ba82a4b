import math
import random
import re
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    ba_reference,
    connected_by_bfs,
    connected_by_union_find,
    cycle,
    er_order2_share,
    er_reference,
    order2_indicator,
    path,
    reference_rows,
    star,
    ws_reference,
)
from qwattack import graphs
from qwattack.graphs import (
    _FIRST_CHUNKS,
    _RAW_CHUNK,
    _UNIT,
    EdgeListParseError,
    Graph,
    ModelParams,
    _choice_pass,
    _pcg64_replay,
    _word_threshold,
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

    def test_rejects_no_vertices(self):
        with pytest.raises(ValueError, match="vertex count must be positive, got 0"):
            Graph(0)

    def test_vertex_out_of_range_rejected(self):
        g = path(4)  # a negative vertex must not wrap round to the last row
        for v in (-2, -1, 4):
            for ask in (g.neighbors, g.degree, lambda u: g.has_edge(u, 0)):
                with pytest.raises(ValueError, match=re.escape(f"vertex {v} out of range for n=4")):
                    ask(v)

    def test_equality_and_repr(self):
        assert (Graph(2) == 5) is False
        assert repr(Graph(3, [(0, 1)])) == "Graph(n=3, edges=1)"


class TestErdosRenyi:
    def test_probability_one_gives_complete_graph(self):
        g = gen_erdos_renyi(4, 1.0, seed=0)
        assert g.num_edges == 6
        assert all(g.degree(v) == 3 for v in range(4))

    def test_probability_zero_gives_empty_graph(self):
        assert gen_erdos_renyi(10, 0.0, seed=3).num_edges == 0

    @pytest.mark.parametrize("n", [2, 5, 60, 400])  # 400 has 79,800 pairs: two blocks of words
    def test_matches_generator_random(self, n):
        for p in (0.0, default_er_p(n), 0.5, 1.0):
            for seed in (0, derive_seed(n), 2**64 - 1):
                assert gen_erdos_renyi(n, p, seed) == er_reference(n, p, seed), (n, p, seed)

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

    @pytest.mark.parametrize("n, draws", [(800, 30), (4000, 10)])
    def test_order2_share_matches_the_independent_degree_law(self, n, draws):
        """The mean order-2 share over seeded draws against er_order2_share, within 4 SE.

        The law treats neighbour degrees as independent; measured z is 0.17 at
        n = 800 and -0.04 at n = 4,000. A generator with p scaled by 1.05 reads
        z = 2.3 and 3.7 here, so that mutant is left to the slow
        test_mean_edge_count_matches_binomial.
        """
        p = default_er_p(n)
        shares = [order2_indicator(gen_erdos_renyi(n, p, derive_seed(15, n, g))).mean() for g in range(draws)]
        z = (np.mean(shares) - er_order2_share(n, p)) / (np.std(shares, ddof=1) / math.sqrt(draws))
        assert abs(z) <= 4, z

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
    @example(6, 0.123, 0)  # k = 4 leaves one non-neighbor: integers(1), which draws nothing
    @example(5, 0.5, 0)  # k = 4 fills every row: a rewired slot draws no target
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
    and integers(m), draws calls in all; return a lower bound on the 64-bit words used.
    A double is built here from one whole word of the replay's stream."""
    rng = np.random.default_rng(seed)
    words, bounded = _pcg64_replay(seed)
    doubles = halves = 0
    for i in range(draws):
        if order.random() < p_double:
            assert (next(words) >> 11) * 2.0**-53 == rng.random(), (seed, i)
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
        assert words > sum(_FIRST_CHUNKS) + 2 * _RAW_CHUNK  # past the first chunks and two _RAW_CHUNK reads

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_words_are_random_raw_across_chunk_boundaries(self, seed):
        assert sum(_FIRST_CHUNKS) + 2 * _RAW_CHUNK < 3_000  # every chunk size is read, and refilled
        got = list(islice(graphs._pcg64_words(seed), 3_000))
        assert got == np.random.PCG64(seed).random_raw(3_000).tolist()

    @pytest.mark.parametrize("p", [0.0, 2.0**-53, 0.1, 0.5, 1 - 2.0**-53, 1.0])
    def test_word_threshold_is_random_below_p(self, p):
        edge = math.ceil(p * 2.0**53)  # the first top-53-bit value whose double is not below p
        tops = [k for k in (edge - 1, edge) if 0 <= k < 2**53]
        for word in (k << 11 | low for k in tops for low in (0, 0x7FF)):
            assert (word < _word_threshold(p)) == ((word >> 11) * 2.0**-53 < p), (p, word)

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


class TestBarabasiAlbertAgainstReference:
    """The generator against numpy's float-CDF passes in _oracles: same stream, same edges."""

    @pytest.mark.parametrize("m0", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [6, 50, 200, 600, 1000])
    def test_grid(self, n, m0):
        for seed in (0, 1, derive_seed(n, m0)):
            assert gen_barabasi_albert(n, m0, seed) == ba_reference(n, m0, seed), (n, m0, seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [2400, 4000])
    def test_experiment_sizes(self, n):
        for m0, seed in ((3, derive_seed(n, 0)), (1, derive_seed(n, 1)), (5, derive_seed(n, 2))):
            assert gen_barabasi_albert(n, m0, seed) == ba_reference(n, m0, seed), (n, m0, seed)

    def test_float_pass_alone_gives_the_reference(self, monkeypatch):
        monkeypatch.setattr(graphs, "_BAND", _UNIT)  # a band wider than the unit: no draw is trusted
        for n, m0, seed in ((7, 5, 3), (60, 1, 0), (300, 3, 4), (600, 5, 9)):
            assert gen_barabasi_albert(n, m0, seed) == ba_reference(n, m0, seed), (n, m0, seed)

    @staticmethod
    def crafted(monkeypatch, n, m0, ks):
        """gen_barabasi_albert(n, m0) reading the draws k / 2**53 in ks as its words:
        (the graph, the draws of each float pass it ran)."""
        passes = []

        def spy(degrees, total, found, pass_ks):
            passes.append(pass_ks)
            return _choice_pass(degrees, total, found, pass_ks)

        monkeypatch.setattr(graphs, "_choice_pass", spy)
        monkeypatch.setattr(graphs, "_pcg64_words", lambda seed: iter([k << 11 for k in ks]))
        return gen_barabasi_albert(n, m0, seed=0), passes

    def test_units_only_clear_of_every_step(self, monkeypatch):
        # n = 3, m0 = 1: vertex 2 picks from degrees [1, 1], live = 2, so a draw k / 2**53 lies
        # 2 * (k mod 2**52) units of 2**-53 past a step; the band is 4 * (2 + 2) * 2 = 32
        for k, pick in ((17, 0), (2**52 - 17, 0), (2**52 + 17, 1), (2**53 - 17, 1)):
            g, passes = self.crafted(monkeypatch, 3, 1, [k])
            assert passes == [], k
            assert list(g.edges()) == sorted([(0, 1), (pick, 2)]), k
        for k in (0, 16, 2**52 - 16, 2**52, 2**52 + 16, 2**53 - 16):
            g, passes = self.crafted(monkeypatch, 3, 1, [k])
            assert passes == [[k]], k
            pick = _choice_pass([1, 1], 2, [], [k])[0]
            assert list(g.edges()) == sorted([(0, 1), (pick, 2)]), k

    def test_draw_on_a_cdf_step_takes_the_float_pass(self, monkeypatch):
        # n = 3, m0 = 1: vertex 2 picks from degrees [1, 1], and x = 1/2 is the step between them
        g, passes = self.crafted(monkeypatch, 3, 1, [_UNIT // 2])
        assert passes == [[_UNIT // 2]]
        assert list(g.edges()) == [(0, 1), (1, 2)]  # searchsorted(side="right") puts 1/2 in vertex 1

    def test_band_draw_drops_the_picks_read_before_it(self, monkeypatch):
        # n = 4, m0 = 2: vertex 3 picks twice from degrees [2, 2, 2], live = 6, band 120.
        # 100 is clear of every step and reads vertex 0; the second draw is fl(2/3), on the
        # step between vertices 1 and 2. The float pass over both draws picks 0, then 2;
        # with 0 kept and zeroed, it would pick 1 and 2 as well.
        second = 2 * _UNIT // 3
        g, passes = self.crafted(monkeypatch, 4, 2, [100, second])
        assert passes == [[100, second]]
        assert list(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]


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

    def test_many_levels_match_bfs(self):
        # frontiers of one or two vertices (a path, a beta = 0 ring lattice, two rings joined
        # far from vertex 0) are narrower than n/64 and deduped by sorting; a broom's last
        # frontier, 99 leaves of n = 200, is at least n/64 wide and takes the arc mask
        ring = list(gen_watts_strogatz(2000, 4, 0.0, seed=0).edges())
        rings = [(i, (i + 1) % 600) for i in range(600)] + [(i, 600 + (i + 1) % 600) for i in range(600, 1200)]
        broom = list(path(101).edges()) + [(100, leaf) for leaf in range(101, 200)]
        cases = [(3000, list(path(3000).edges())), (2000, ring), (1200, rings + [(300, 900)]),
                 (1200, rings), (200, broom), (201, broom)]
        for n, edges in cases:
            assert is_connected(Graph(n, edges)) == connected_by_bfs(reference_rows(n, edges)), n

    @pytest.mark.parametrize("n, sizes", [
        (128, [1, 1, 2, 40, 84]),  # 2 is exactly n/64, so wide, and finds 40 new vertices
        (192, [1, 2, 3, 60, 126]),  # 2 is just below n/64, so narrow; 3 is exactly at it
        (192, [1, 2, 3, 60, 100]),  # the same levels, 26 vertices unreached
        (1000, [1, 15, 16, 400, 568]),  # n/64 = 15.625 lies between 15 and 16
    ])
    def test_narrow_and_wide_frontiers_match_bfs(self, monkeypatch, n, sizes):
        edges = levelled(n, sizes, random.Random(n))
        narrow = []  # the sizes of the frontiers whose rows the narrow branch concatenated
        concat = Graph.concat_neighbors
        monkeypatch.setattr(Graph, "concat_neighbors", lambda g, vs: narrow.append(vs.size) or concat(g, vs))
        expected = connected_by_bfs(reference_rows(n, edges))
        assert is_connected(Graph(n, edges)) == expected == (sum(sizes) == n)
        assert narrow == [size for size in sizes if size * 64 < n]

    @pytest.mark.slow
    def test_er_above_threshold_is_usually_connected(self):
        # p = 2 ln(n)/n sits above the ln(n)/n connectivity threshold
        n = 500
        ok = sum(is_connected(gen_erdos_renyi(n, default_er_p(n), seed=s)) for s in range(100))
        assert ok / 100 >= 0.99


def levelled(n, sizes, rng):
    """Edges, shuffled and in random orientation, whose BFS levels from vertex 0 have the
    given sizes; the vertices past them form a path of their own. Each vertex joins a
    random vertex of the level before, every other one a second, and every third one a
    vertex of its own level, so a level's neighbors repeat and include seen vertices."""
    edges, prev, start = set(), [], 0
    for size in sizes:
        level = list(range(start, start + size))
        for i, w in enumerate(level):
            ends = {rng.choice(prev) for _ in range(1 + i % 2)} if prev else set()
            ends |= {level[i - 1]} if i % 3 == 2 else set()
            edges |= {(u, w) for u in ends}
        prev, start = level, start + size
    edges |= {(v, v + 1) for v in range(start, n - 1)}
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in sorted(edges)]
    rng.shuffle(edges)
    return edges


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
        assert g.tails.tolist() == [v for v in range(n) for _ in rows[v]]
        some = np.array([v for v in range(n) for _ in range(v % 3)][::-1], dtype=np.int64)  # repeats, any order
        assert g.concat_neighbors(some).tolist() == [w for v in some for w in rows[v]]
        assert list(g.edges()) == sorted((min(e), max(e)) for e in edges)
        assert g.num_edges == len(edges)
        for a in (g.indptr, g.indices, g.tails, g.degrees, g.neighbors(0)):
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

    @pytest.mark.parametrize("n", [46_340, 46_341])  # the largest order with int32 arc keys, and the next
    def test_both_key_widths(self, n):
        rng = random.Random(n)
        order = list(range(n))
        rng.shuffle(order)
        # a shuffled path, random chords, and the edge with the largest arc key, n*n - 2
        pairs = set(zip(order, order[1:])) | {(n - 1, n - 2)}
        pairs |= {(rng.randrange(n), rng.randrange(n)) for _ in range(n)}
        unique = {(min(e), max(e)) for e in pairs if e[0] != e[1]}
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in sorted(unique)]
        rng.shuffle(edges)
        g = Graph(n, edges)
        rows = reference_rows(n, edges)
        assert [g.neighbors(v).tolist() for v in range(n)] == rows
        assert g.degrees.tolist() == [len(r) for r in rows]
        for a in (g.indptr, g.indices, g.tails, g.degrees):  # int32 would be converted in every walk step
            assert a.dtype == np.int64 and not a.flags.writeable
        u, v = edges[rng.randrange(len(edges))]
        edges.insert(rng.randrange(len(edges) + 1), (v, u))
        with pytest.raises(ValueError) as expected:
            reference_rows(n, edges)
        with pytest.raises(ValueError, match="duplicate edge") as got:
            Graph(n, edges)
        assert str(got.value) == str(expected.value)

    def test_single_vertex(self):
        g = Graph(1)
        assert g.indptr.tolist() == [0, 0] and g.indices.size == 0
        assert g.neighbors(0).size == 0 and list(g.edges()) == []
        assert is_connected(g)

    def test_rejects_edges_that_are_not_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            Graph(4, [(0, 1, 2)])


class TestOrderCeiling:
    """Arc keys u*n + v are int64, so no order above isqrt(2**63 - 1) is accepted.

    Each check must run before anything of size n is allocated: the edge parser is
    replaced by one that fails, so a missing check fails here instead of allocating.
    """

    @pytest.fixture(autouse=True)
    def no_edges_parsed(self, monkeypatch):
        def refuse(edges):
            raise AssertionError("edges parsed above the order ceiling")

        monkeypatch.setattr(graphs, "_edge_pairs", refuse)

    def test_check_order(self):
        graphs._check_order(3_037_000_499)
        with pytest.raises(ValueError, match="need at most 3037000499 vertices, got 3037000500"):
            graphs._check_order(3_037_000_500)

    def test_graph(self):
        with pytest.raises(ValueError, match="above the maximum order 3037000499"):
            Graph(3_037_000_500, [(0, 1)])

    def test_edge_list_header(self, tmp_path):
        path = tmp_path / "huge.edges"
        path.write_text("n 10000000000\n0 1\n")
        with pytest.raises(EdgeListParseError, match="line 1: .*above the maximum order 3037000499"):
            read_edge_list(path)

    @pytest.mark.parametrize("draw", [
        lambda n: graphs.gen_barabasi_albert(n, 3, seed=0),
        lambda n: graphs.gen_watts_strogatz(n, 4, 0.5, seed=0),
        lambda n: ModelParams("ba").check(n),
    ], ids=["ba", "ws-k4", "ba-params"])
    def test_generators_with_explicit_parameters(self, monkeypatch, draw):
        # no default parameter is derived from n here, so only the model's own check can refuse
        monkeypatch.setattr(graphs, "MAX_ORDER", 50)
        with pytest.raises(ValueError, match="need at most 50 vertices, got 51"):
            draw(51)


class TestEdgeListIO:
    def test_round_trip_identity(self, tmp_path):
        g = gen_erdos_renyi(20, 0.3, seed=11)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_header_format(self, tmp_path, monkeypatch):
        # lines end in "\n" on every OS: here open, like Windows', writes "\r\n" unless told otherwise
        def crlf_open(file, mode="r", *args, newline="\r\n", **kwargs):
            return open(file, mode, *args, newline=newline, **kwargs)

        monkeypatch.setattr(graphs, "open", crlf_open, raising=False)
        path = tmp_path / "s.edges"
        write_edge_list(star(4), path)
        assert path.read_bytes() == b"n 5\n0 1\n0 2\n0 3\n0 4\n"

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

    @pytest.mark.parametrize("text,message", [
        ("", "line 1: empty file, expected header 'n <count>'"),
        ("n x\n", "line 1: vertex count 'x' is not an integer"),
        ("n 0\n", "line 1: vertex count must be positive, got 0"),
    ], ids=["empty", "count-not-integer", "count-zero"])
    def test_bad_header_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(EdgeListParseError, match=f"^{re.escape(message)}$"):
            read_edge_list(path)

    def test_blank_line_is_skipped(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("n 4\n0 1\n\n2 3\n")
        assert read_edge_list(path) == Graph(4, [(0, 1), (2, 3)])
        path.write_text("n 4\n0 1\n\n2 2\n")  # the self-loop's line is counted past the blank one
        with pytest.raises(EdgeListParseError, match="line 4: self-loop"):
            read_edge_list(path)

    def test_valid_file_is_checked_once(self, tmp_path, monkeypatch):
        g = gen_barabasi_albert(60, 3, seed=2)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        calls = []
        check = graphs._first_bad_edge
        monkeypatch.setattr(graphs, "_first_bad_edge", lambda n, pairs: calls.append(n) or check(n, pairs))
        assert read_edge_list(path) == g
        assert calls == []  # the message finder runs only for a bad edge

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
