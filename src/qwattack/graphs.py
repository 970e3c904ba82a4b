"""Simple undirected graphs: representation, random models, edge-list files.

Vertices are integers 0..n-1. All generators are pure functions of their
parameters and seed; identical inputs yield identical graphs.
"""

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional

import numpy as np

MODELS = ("er", "ws", "ba")


class EdgeListParseError(ValueError):
    """Raised when an edge-list file violates the format contract."""


def _edge_pairs(edges) -> np.ndarray:
    """Edges as an (m, 2) array: int64, or Python ints if one does not fit (it is out of range).
    Raises ValueError for an endpoint that is not an integer."""
    edges = edges if isinstance(edges, np.ndarray) else list(edges)
    pairs = np.asarray(edges)
    if pairs.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must be (u, v) pairs, got an array of shape {pairs.shape}")
    if np.can_cast(pairs.dtype, np.int64):
        return pairs.astype(np.int64, copy=False)
    # numpy infers uint64, float64 or object for an int beyond int64, so recheck each endpoint
    pairs = np.array(edges, dtype=object)
    for u, v in pairs:
        if not (isinstance(u, (int, np.integer)) and isinstance(v, (int, np.integer))):
            raise ValueError(f"edge ({u!r}, {v!r}) has a non-integer endpoint")
    try:
        return pairs.astype(np.int64)
    except OverflowError:
        return pairs


def _first_bad_edge(n: int, pairs: np.ndarray) -> Optional[tuple[int, str]]:
    """(position, message) of the first edge, in input order, that is out of range,
    a self-loop, or a repeat of an earlier edge in either orientation."""
    u, v = pairs.T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = lo * n + hi  # an out-of-range key may collide, but that edge is reported first
    order = np.argsort(keys, kind="stable")
    bad = (lo < 0) | (hi >= n) | (u == v)
    bad[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True  # every later copy
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    a, b = int(u[i]), int(v[i])
    if not (0 <= a < n and 0 <= b < n):
        return i, f"edge ({a}, {b}) out of range for n={n}"
    return i, f"self-loop at vertex {a}" if a == b else f"duplicate edge ({a}, {b})"


class Graph:
    """Immutable simple undirected graph in CSR form.

    Vertex v's neighbors are indices[indptr[v]:indptr[v + 1]], ascending;
    indptr, indices and degrees are read-only int64 arrays. Construction
    validates simplicity (no self-loops, no duplicate edges in either
    orientation) and that every endpoint lies in [0, n), reporting the
    first bad edge in input order.
    """

    __slots__ = ("_n", "indptr", "indices", "_degrees", "_starts")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        pairs = _edge_pairs(edges)
        bad = _first_bad_edge(n, pairs)
        if bad:
            raise ValueError(bad[1])
        u, v = pairs.T
        arcs = np.sort(np.concatenate((u * n + v, v * n + u)))
        self._degrees = np.bincount(arcs // n, minlength=n)
        self.indptr = np.concatenate(([0], np.cumsum(self._degrees)))
        self.indices = arcs % n
        for a in (self._degrees, self.indptr, self.indices):
            a.flags.writeable = False
        self._starts = self.indptr.tolist()  # list indexing is cheaper than indptr's
        self._n = n

    @property
    def n(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    @property
    def degrees(self) -> np.ndarray:
        """Read-only array of vertex degrees."""
        return self._degrees

    def degree(self, v: int) -> int:
        return int(self._degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted read-only view of the neighbors of v."""
        return self.indices[self._starts[v] : self._starts[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = int(row.searchsorted(v))
        return i < row.size and row[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in ascending order."""
        firsts = np.repeat(np.arange(self._n), self._degrees)
        upper = firsts < self.indices
        return zip(firsts[upper].tolist(), self.indices[upper].tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        same = self._n == other._n and np.array_equal(self.indptr, other.indptr)
        return same and np.array_equal(self.indices, other.indices)

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, edges={self.num_edges})"


def _check_order(n: int) -> None:
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")


def default_er_p(n: int) -> float:
    """Edge probability 2*ln(n)/n used for the Erdos-Renyi experiments."""
    _check_order(n)
    return 2.0 * math.log(n) / n


def default_ws_k(n: int) -> int:
    """Initial Watts-Strogatz degree ceil(2*ln(n)), rounded up to even."""
    _check_order(n)
    k = math.ceil(2.0 * math.log(n))
    return k if k % 2 == 0 else k + 1


def _check_er(n: int, p: float) -> None:
    _check_order(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")


def _check_ws(n: int, k: int, beta: float) -> None:
    if k % 2 != 0:
        raise ValueError(f"initial degree must be even, got {k}")
    if not 2 <= k < n:
        raise ValueError(f"initial degree must satisfy 2 <= k < n, got k={k}, n={n}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"rewiring probability must be in [0, 1], got {beta}")


def _check_ba(n: int, m0: int) -> None:
    if not 1 <= m0 < n:
        raise ValueError(f"attachment count must satisfy 1 <= m0 < n, got m0={m0}, n={n}")


def gen_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each of the n(n-1)/2 edges present independently with probability p.

    One double per pair in row order (0, 1), ..., (0, n-1), (1, 2), ..., drawn
    in blocks of 2**16, which take the same numbers from the stream as one
    draw per row would."""
    _check_er(n, p)
    rng = np.random.default_rng(seed)
    rows = np.arange(n - 1)
    row_start = rows * (n - 1) - rows * (rows - 1) // 2  # flat index of pair (u, u+1)
    total, block = n * (n - 1) // 2, 1 << 16
    flat = np.concatenate([np.flatnonzero(rng.random(min(block, total - lo)) < p) + lo
                           for lo in range(0, total, block)])
    u = np.searchsorted(row_start, flat, side="right") - 1
    return Graph(n, np.column_stack((u, flat - row_start[u] + u + 1)))


_RAW_CHUNK = 1024  # words per random_raw call: bounded, so a draw's memory does not grow with n


def _pcg64_replay(seed: int):
    """(random, integers): np.random.default_rng(seed)'s random() and integers(m),
    replayed in plain Python from its PCG64 bit generator's random_raw words.

    Each call returns what the same sequence of calls on the Generator would,
    at a fraction of numpy's per-call cost. It replays numpy 2.4.6:
    - a double is (word >> 11) * 2**-53;
    - next_uint32 hands out a word's low 32 bits first and caches the high 32
      bits for the next 32-bit draw; doubles never touch that cache;
    - integers(m) for 2 <= m < 2**32 is Lemire's bounded draw: prod = r * m
      for a 32-bit r, accepted when prod & 0xFFFFFFFF >= m or, failing that,
      when it is >= 2**32 % m, and the result is prod >> 32;
    - integers(1) returns 0 and draws nothing.
    tests/test_graphs.py checks this against the Generator call for call.
    """
    bits = np.random.default_rng(seed).bit_generator
    words = chain.from_iterable(iter(lambda: bits.random_raw(_RAW_CHUNK).tolist(), None))
    high = None  # the cached high half of the last word next_uint32 split

    def random() -> float:
        return (next(words) >> 11) * 2.0**-53

    def integers(m: int) -> int:
        nonlocal high
        if not 1 <= m <= 0xFFFFFFFF:
            raise ValueError(f"bound must be in [1, 2**32 - 1], got {m}")
        if m == 1:
            return 0
        while True:
            if high is None:
                word = next(words)
                r, high = word & 0xFFFFFFFF, word >> 32
            else:
                r, high = high, None
            prod = r * m
            low = prod & 0xFFFFFFFF
            if low >= m or low >= (1 << 32) % m:
                return prod >> 32

    return random, integers


def gen_watts_strogatz(n: int, k: int, beta: float, seed: int) -> Graph:
    """Watts-Strogatz ring lattice with independent edge rewiring.

    Starts from a ring where each vertex connects to k/2 nearest neighbors
    on each side; each lattice edge is rewired with probability beta, moving
    its far endpoint to a uniformly random non-neighbor. The edge count is
    exactly n*k/2 for every beta.
    """
    _check_ws(n, k, beta)
    random, integers = _pcg64_replay(seed)
    half = k // 2
    # sorted closed neighborhoods, cut from a doubled ring: row u is what u may not pick
    ring = list(range(n - half, n)) + list(range(n)) + list(range(half))
    closed = [sorted(ring[u : u + k + 1]) for u in range(n)]
    # far end of the lattice edge (u, u + off), at [(off - 1) * n + u]; rewiring moves it
    far = [(u + off) % n for off in range(1, half + 1) for u in range(n)]
    for slot in range(half * n):
        u = slot % n
        row = closed[u]
        if random() >= beta or len(row) >= n:
            continue  # kept, or neighborhood full: nothing to rewire to
        # the w-th vertex outside row: row[i] - i non-members lie below row[i], a count
        # that never decreases in i, so it is w + i for the first i with row[i] - i > w
        w = integers(n - len(row))
        i = bisect_right(row, w)
        while i < len(row) and row[i] <= w + i:
            i += 1
        w += i
        v, far[slot] = far[slot], w
        row.remove(v)  # u trades v for w
        insort(row, w)
        closed[v].remove(u)
        insort(closed[w], u)
    return Graph(n, np.column_stack((np.tile(np.arange(n), half), far)))


def gen_barabasi_albert(n: int, m0: int, seed: int) -> Graph:
    """Preferential attachment starting from a complete graph on m0+1 vertices.

    Each new vertex attaches m0 edges to distinct existing vertices, sampled
    without replacement with probability proportional to current degree, as
    numpy 2's Generator.choice(v, m0, replace=False, p=...) samples: draw the
    missing picks, zero the found ones' weight, search the renormalised
    cumulative weights, keep first occurrences in draw order, repeat."""
    _check_ba(n, m0)
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(m0 + 1) for j in range(i + 1, m0 + 1)]
    degrees = np.zeros(n, dtype=np.float64)
    degrees[: m0 + 1] = m0
    for v in range(m0 + 1, n):
        # the degrees are integers, so every partial sum is exact: this is degrees[:v].sum()
        p = degrees[:v] / (2 * len(edges))
        found: list[int] = []
        while len(found) < m0:
            x = rng.random(m0 - len(found))
            if found:
                p[found] = 0.0
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            for t in cdf.searchsorted(x, side="right").tolist():
                if t not in found:
                    found.append(t)
        for t in found:
            edges.append((t, v))
            degrees[t] += 1
        degrees[v] = m0
    return Graph(n, edges)


@dataclass(frozen=True)
class ModelParams:
    """Random-model choice plus its parameters; None fields fall back to the
    per-model default rules (er_p=2ln(n)/n, ws_k=even ceil(2ln n))."""

    model: str
    er_p: Optional[float] = None
    ws_k: Optional[int] = None
    ws_beta: float = 0.5
    ba_m0: int = 3

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}, expected one of {MODELS}")

    def _resolved(self, n: int) -> tuple:
        """The model's generator parameters at order n, None fields by the default
        rules: (p,) for er, (k, beta) for ws, (m0,) for ba."""
        if self.model == "er":
            return (default_er_p(n) if self.er_p is None else self.er_p,)
        if self.model == "ws":
            return default_ws_k(n) if self.ws_k is None else self.ws_k, self.ws_beta
        return (self.ba_m0,)

    def check(self, n: int) -> None:
        """Raise the ValueError a draw of order n would raise for these parameters."""
        _CHECKS[self.model](n, *self._resolved(n))


_CHECKS = {"er": _check_er, "ws": _check_ws, "ba": _check_ba}
_GENERATORS = {"er": gen_erdos_renyi, "ws": gen_watts_strogatz, "ba": gen_barabasi_albert}


def generate_graph(params: ModelParams, n: int, seed: int) -> Graph:
    """Draw one graph of order n from the parametrized random model."""
    return _GENERATORS[params.model](n, *params._resolved(n), seed)


def is_connected(graph: Graph) -> bool:
    """True iff the graph has a single connected component (level-by-level BFS)."""
    indptr, indices, degrees = graph.indptr, graph.indices, graph.degrees
    seen = np.zeros(graph.n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        # positions of the frontier's rows in indices, concatenated
        lengths = degrees[frontier]
        offsets = np.cumsum(lengths) - lengths
        pos = np.arange(int(lengths.sum())) + np.repeat(indptr[frontier] - offsets, lengths)
        nbrs = indices[pos]
        frontier = np.unique(nbrs[~seen[nbrs]])
        seen[frontier] = True
    return bool(seen.all())


def derive_seed(*parts: int) -> int:
    """Collapse an integer tuple into a stable 64-bit seed.

    Uses numpy's SeedSequence hashing, which is platform-independent, so
    per-sample seeds derived from a root seed are reproducible everywhere.
    """
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def write_edge_list(graph: Graph, path) -> None:
    """Write the graph as a header line 'n <count>' plus one 'u v' pair per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n {graph.n}\n")
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")


def read_edge_list(path) -> Graph:
    """Parse an edge-list file written by write_edge_list.

    Raises EdgeListParseError with the offending line number for malformed
    lines, out-of-range ids, self-loops, and duplicate edges.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise EdgeListParseError("line 1: empty file, expected header 'n <count>'")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "n":
        raise EdgeListParseError(f"line 1: expected header 'n <count>', got {lines[0]!r}")
    try:
        n = int(header[1])
    except ValueError:
        raise EdgeListParseError(f"line 1: vertex count {header[1]!r} is not an integer") from None
    if n < 1:
        raise EdgeListParseError(f"line 1: vertex count must be positive, got {n}")
    edges, linenos, malformed = [], [], None
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            malformed = f"line {lineno}: expected 'u v', got {line!r}"
            break
        try:
            edges.append((int(tokens[0]), int(tokens[1])))
        except ValueError:
            malformed = f"line {lineno}: non-integer vertex id in {line!r}"
            break
        linenos.append(lineno)
    bad = _first_bad_edge(n, _edge_pairs(edges))  # a bad edge above the malformed line is first
    if bad:
        raise EdgeListParseError(f"line {linenos[bad[0]]}: {bad[1]}")
    if malformed:
        raise EdgeListParseError(malformed)
    return Graph(n, edges)
