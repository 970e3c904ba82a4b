"""Simple undirected graphs: representation, random models, edge-list files.

Vertices are integers 0..n-1. All generators are pure functions of their
parameters and seed; identical inputs yield identical graphs.
"""

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Optional

import numpy as np

MODELS = ("er", "ws", "ba")

# the largest order whose arc keys u*n + v (< n*n) fit in int64
MAX_ORDER = math.isqrt(2**63 - 1)  # 3,037,000,499


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


def _first_bad_edge(n: int, pairs: np.ndarray) -> tuple[int, str]:
    """(position, message) of the first edge, in input order, that is out of range,
    a self-loop, or a repeat of an earlier edge in either orientation. Graph and
    read_edge_list run it only once Graph's own check has failed, to word the error."""
    u, v = pairs.T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = lo * n + hi  # an out-of-range key may collide, but that edge is reported first
    order = np.argsort(keys, kind="stable")
    bad = (lo < 0) | (hi >= n) | (u == v)
    bad[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True  # every later copy
    i = int(np.argmax(bad))
    a, b = int(u[i]), int(v[i])
    if not (0 <= a < n and 0 <= b < n):
        return i, f"edge ({a}, {b}) out of range for n={n}"
    return i, f"self-loop at vertex {a}" if a == b else f"duplicate edge ({a}, {b})"


class Graph:
    """Immutable simple undirected graph in CSR form.

    Arc k runs from tails[k] to indices[k]; vertex v's arcs are k in
    [indptr[v], indptr[v + 1]), its neighbors ascending. indptr, indices,
    tails and degrees are read-only int64 arrays. Construction validates
    simplicity (no self-loops, no duplicate edges in either orientation) and
    that every endpoint lies in [0, n), reporting the first bad edge in input
    order. The check reads the one sort that builds the rows: with every
    endpoint in range, a self-loop or a repeat in either orientation puts
    some arc key u*n + v in the sorted keys twice. The keys are int32 while
    n*n < 2**31 and int64 beyond; degrees count the endpoints, the tails
    repeat each vertex by its degree, and a head is its key minus tail*n, so
    no division runs.
    """

    __slots__ = ("n", "indptr", "indices", "tails", "degrees")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        if n > MAX_ORDER:
            raise ValueError(f"vertex count {n} is above the maximum order {MAX_ORDER}")
        pairs = _edge_pairs(edges)
        # an object array holds an endpoint beyond int64, so it is out of range
        if pairs.dtype == object or (pairs.size and (pairs.min() < 0 or pairs.max() >= n)):
            raise ValueError(_first_bad_edge(n, pairs)[1])
        u, v = pairs.T.astype(np.int32) if n * n < 1 << 31 else pairs.T  # every key u * n + v < n * n
        arcs = np.sort(np.concatenate((u * n + v, v * n + u)))
        if np.any(arcs[1:] == arcs[:-1]):
            raise ValueError(_first_bad_edge(n, pairs)[1])
        self.n = n
        self.degrees = np.bincount(pairs.ravel(), minlength=n)
        self.indptr = np.concatenate(([0], np.cumsum(self.degrees)))
        tails = np.repeat(np.arange(n, dtype=arcs.dtype), self.degrees)
        self.indices = (arcs - tails * n).astype(np.int64, copy=False)
        self.tails = tails.astype(np.int64, copy=False)
        for a in (self.degrees, self.indptr, self.indices, self.tails):
            a.flags.writeable = False

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted read-only view of the neighbors of v; raises ValueError unless 0 <= v < n."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return self.neighbors(v).size

    def concat_neighbors(self, vertices: np.ndarray) -> np.ndarray:
        """The neighbor rows of `vertices`, an int64 array, concatenated in order."""
        lengths = self.degrees[vertices]
        offsets = np.cumsum(lengths) - lengths
        return self.indices[np.arange(int(lengths.sum())) + np.repeat(self.indptr[vertices] - offsets, lengths)]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = int(row.searchsorted(v))
        return i < row.size and row[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in ascending order."""
        upper = self.tails < self.indices
        return zip(self.tails[upper].tolist(), self.indices[upper].tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        same = self.n == other.n and np.array_equal(self.indptr, other.indptr)
        return same and np.array_equal(self.indices, other.indices)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"


def _check_order(n: int) -> None:
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    if n > MAX_ORDER:
        raise ValueError(f"need at most {MAX_ORDER} vertices, got {n}")


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
    _check_order(n)
    if k % 2 != 0:
        raise ValueError(f"initial degree must be even, got {k}")
    if not 2 <= k < n:
        raise ValueError(f"initial degree must satisfy 2 <= k < n, got k={k}, n={n}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"rewiring probability must be in [0, 1], got {beta}")


def _check_ba(n: int, m0: int) -> None:
    _check_order(n)
    if not 1 <= m0 < n:
        raise ValueError(f"attachment count must satisfy 1 <= m0 < n, got m0={m0}, n={n}")


def gen_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each of the n(n-1)/2 edges present independently with probability p.

    One raw PCG64 word per pair in row order (0, 1), ..., (0, n-1), (1, 2), ...,
    read in blocks of 2**16 and compared with _word_threshold(p): the edges
    numpy 2.4.6's Generator.random() < p would give, one double per pair."""
    _check_er(n, p)
    bits, threshold = np.random.PCG64(seed), _word_threshold(p)
    rows = np.arange(n - 1)
    row_start = rows * (n - 1) - rows * (rows - 1) // 2  # flat index of pair (u, u+1)
    total, block = n * (n - 1) // 2, 1 << 16
    flat = np.concatenate([np.flatnonzero(bits.random_raw(min(block, total - lo)) < threshold) + lo
                           for lo in range(0, total, block)])
    u = np.searchsorted(row_start, flat, side="right") - 1
    return Graph(n, np.column_stack((u, flat - row_start[u] + u + 1)))


_RAW_CHUNK = 1024  # words per random_raw call: bounded, so a draw's memory does not grow with n
_FIRST_CHUNKS = (16, 64, 256)  # read before the first _RAW_CHUNK: one draw converts 16 words


def _pcg64_words(seed: int) -> Iterator[int]:
    """np.random.PCG64(seed)'s random_raw words, one at a time, as Python ints."""
    bits = np.random.PCG64(seed)
    sizes = chain(_FIRST_CHUNKS, repeat(_RAW_CHUNK))
    return chain.from_iterable(bits.random_raw(size).tolist() for size in sizes)


def _pcg64_replay(seed: int):
    """(words, integers): np.random.PCG64(seed)'s random_raw words, and
    np.random.default_rng(seed).integers(m) replayed in plain Python from them.

    The two share one iterator, so a word taken from `words` is gone for
    `integers` too, as a Generator.random() call would take it. Each call
    returns what the same sequence of calls on the Generator would, at a
    fraction of numpy's per-call cost. It replays numpy 2.4.6:
    - a double is (word >> 11) * 2**-53, and takes a whole word;
    - next_uint32 hands out a word's low 32 bits first and caches the high 32
      bits for the next 32-bit draw; doubles never touch that cache;
    - integers(m) for 2 <= m < 2**32 is Lemire's bounded draw: prod = r * m
      for a 32-bit r, accepted when prod & 0xFFFFFFFF >= m or, failing that,
      when it is >= 2**32 % m, and the result is prod >> 32;
    - integers(1) returns 0 and draws nothing.
    tests/test_graphs.py checks this against the Generator call for call.
    """
    words = _pcg64_words(seed)
    high = None  # the cached high half of the last word next_uint32 split

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

    return words, integers


def _word_threshold(p: float) -> int:
    """The raw word below which numpy's random() < p holds: a word's double is
    (word >> 11) * 2**-53, and for an integer k, k < p * 2**53 exactly when
    k < ceil(p * 2**53). Scaling by 2**53 is exact, and p = 1 gives 2**64."""
    return math.ceil(p * 2.0**53) << 11


def gen_watts_strogatz(n: int, k: int, beta: float, seed: int) -> Graph:
    """Watts-Strogatz ring lattice with independent edge rewiring.

    Starts from a ring where each vertex connects to k/2 nearest neighbors
    on each side; each lattice edge is rewired with probability beta, moving
    its far endpoint to a uniformly random non-neighbor. The edge count is
    exactly n*k/2 for every beta.

    The draws are numpy 2.4.6's Generator.random() and integers(m) in slot
    order, read from the replayed stream: each slot's coin is one raw word,
    compared with _word_threshold(beta), and a rewired slot whose vertex has
    a non-neighbor then draws its target with the replay's integers.
    """
    _check_ws(n, k, beta)
    words, integers = _pcg64_replay(seed)
    threshold = _word_threshold(beta)
    half = k // 2
    # sorted closed neighborhoods, cut from a doubled ring: row u is what u may not pick,
    # and only the k rows that wrap around the ring's ends need a sort
    ring = list(range(n - half, n)) + list(range(n)) + list(range(half))
    closed = [ring[u : u + k + 1] for u in range(n)]
    for u in chain(range(half), range(n - half, n)):
        closed[u].sort()
    # far[off - 1][u] is the far end of the lattice edge (u, u + off); rewiring moves it
    far = [ring[half + off : half + off + n] for off in range(1, half + 1)]
    for ends in far:
        for u, word in zip(range(n), words):
            if word >= threshold:
                continue  # kept
            row = closed[u]
            if len(row) >= n:
                continue  # neighborhood full: nothing to rewire to
            # the w-th vertex outside row: row[i] - i non-members lie below row[i], a count
            # that never decreases in i, so it is w + i for the first i with row[i] - i > w
            w = integers(n - len(row))
            i = bisect_right(row, w)
            while i < len(row) and row[i] <= w + i:
                i += 1
            w += i
            v, ends[u] = ends[u], w
            row.remove(v)  # u trades v for w
            insort(row, w)
            closed[v].remove(u)
            insort(closed[w], u)
    return Graph(n, np.column_stack((np.tile(np.arange(n), half), np.ravel(far))))


_UNIT = 1 << 53  # a double draw is k / 2**53, k the top 53 bits of a word
# a draw within _BAND * (v + 2) * 2**-53 of a step of the exact CDF over v vertices is
# left to numpy's float pass: twice the most by which its float CDF strays from the exact one
_BAND = 4


def _choice_pass(degrees: list[int], total: int, found: list[int], ks: list[int]) -> list[int]:
    """One pass of numpy 2's Generator.choice(v, replace=False, p=degrees / total) for
    the draws k / 2**53, with the found picks' weight zeroed: the picks, in draw order."""
    p = np.array(degrees, dtype=np.float64) / total
    if found:
        p[found] = 0.0
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.searchsorted(np.array(ks, dtype=np.float64) * 2.0**-53, side="right").tolist()


def gen_barabasi_albert(n: int, m0: int, seed: int) -> Graph:
    """Preferential attachment starting from a complete graph on m0+1 vertices.

    Each new vertex attaches m0 edges to distinct existing vertices, sampled
    without replacement with probability proportional to current degree, as
    numpy 2's Generator.choice(v, m0, replace=False, p=...) samples: draw the
    missing picks, zero the found ones' weight, search the renormalised
    cumulative weights, keep first occurrences in draw order, repeat.

    The draws are read as raw PCG64 words and picked from integer degrees. A
    word's double is x = k / 2**53, k its top 53 bits. With `live` the degree
    total left after zeroing the found picks, the exact CDF steps at D / live
    for integers D, so x falls in unit (k * live) >> 53 of the live vertices'
    degree units. numpy's float CDF strays from the exact one by at most
    (2v + 4) * 2**-53 (the bound for recursive summation of positive terms,
    Higham 2002, ch. 4), so the integer pick is numpy's whenever x lies more
    than twice that from every step. Each draw is checked and its pick kept
    as it is read; a draw any closer drops the pass's picks and runs numpy's
    float pass on all of the pass's draws instead.
    """
    _check_ba(n, m0)
    words = _pcg64_words(seed)
    degrees = [m0] * (m0 + 1)
    ends = [t for t in range(m0 + 1) for _ in range(m0)]  # vertex t, degrees[t] times, ascending
    heads: list[int] = []  # each new vertex's picks, in pick order
    for v in range(m0 + 1, n):
        total = live = len(ends)
        found: list[int] = []
        skips: list[tuple[int, int]] = []  # (start in ends, length) of each zeroed run
        while len(found) < m0:
            kept = len(found)
            if found:
                live = total - sum(degrees[t] for t in found)
                skips = sorted((bisect_left(ends, t), degrees[t]) for t in found)
            margin = _BAND * (v + 2) * live
            ks = [word >> 11 for word in islice(words, m0 - kept)]
            for k in ks:
                x = k * live
                if not margin < x & (_UNIT - 1) < _UNIT - margin:
                    del found[kept:]  # too near a step: the whole pass is numpy's float pass
                    for t in _choice_pass(degrees, total, found, ks):
                        if t not in found:
                            found.append(t)
                    break
                i = x >> 53  # the draw's unit among the live degree units
                for start, run in skips:  # step over the zeroed runs
                    if i < start:
                        break
                    i += run
                if ends[i] not in found:
                    found.append(ends[i])
        for t in found:
            degrees[t] += 1
            insort(ends, t)
        heads += found
        degrees.append(m0)
        ends += [v] * m0
    clique = np.array([(i, j) for i in range(m0 + 1) for j in range(i + 1, m0 + 1)])
    grown = np.column_stack((np.array(heads, dtype=np.int64), np.repeat(np.arange(m0 + 1, n), m0)))
    return Graph(n, np.concatenate((clique, grown)))


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
    """True iff the graph has a single connected component (level-by-level BFS).

    The next frontier is a level's unseen neighbors, ascending and without
    repeats. A frontier of fewer than n/64 vertices is narrow: its neighbor
    rows are concatenated, sorted and deduped (np.sort, not np.unique, whose
    first call maps about 1 MB more). A wider one marks its vertices in an
    n-length bool mask, repeats that mask by degree into an arc mask, and
    marks the arcs' heads: O(|E| + n) a level, at most 64 times, since the
    frontiers are disjoint. A path's thousands of one-vertex levels stay narrow.
    """
    n = graph.n
    degrees, indices = graph.degrees, graph.indices
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        if frontier.size << 6 < n:
            cand = graph.concat_neighbors(frontier)
            frontier = np.sort(cand[~seen[cand]])
            first = np.ones(frontier.size, dtype=bool)
            first[1:] = frontier[1:] != frontier[:-1]
            frontier = frontier[first]
        else:
            level = np.zeros(n, dtype=bool)
            level[frontier] = True
            level[indices[level.repeat(degrees)]] = True
            level &= ~seen
            frontier = np.flatnonzero(level)
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
    with open(path, "w", encoding="ascii", newline="\n") as fh:
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
    if n > MAX_ORDER:
        raise EdgeListParseError(f"line 1: vertex count {n} is above the maximum order {MAX_ORDER}")
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
    pairs = _edge_pairs(edges)
    try:
        graph = Graph(n, pairs)
    except ValueError:  # name the line: a bad edge above the malformed line is reported first
        bad = _first_bad_edge(n, pairs)
        raise EdgeListParseError(f"line {linenos[bad[0]]}: {bad[1]}") from None
    if malformed:
        raise EdgeListParseError(malformed)
    return graph
