"""Szegedy search walk on the ordered-pair space of a graph.

The walk state lives on ordered vertex pairs (v, w) and all amplitudes are
real. One search step applies the two reflections of the quantized chain,
each composed with a phase oracle that negates marked components:

    step = R2 Q2 R1 Q1

where R1 = 2 sum_v |v, phi_v><v, phi_v| - I with phi_v(w) = sqrt(P(w, v))
built from the UNMODIFIED chain P, R2 = Swap R1 Swap, Q1 negates pairs whose
first register is marked, and Q2 = Swap Q1 Swap. Restricted to first-register
blocks this is the Grover diffusion coin at unmarked vertices and its
negation at marked ones, the walk for which marked subgraphs with the
degree-sum property admit stationary states that suppress the search. With
an empty marked set the step reduces to the plain quantized walk R2 R1.
"""

import math
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .graphs import Graph

COLUMN_SUM_TOL = 1e-12
NORM_DRIFT_LIMIT = 1e-8


class NumericalStabilityError(ArithmeticError):
    """Norm drift exceeded the stability budget during evolution."""


class StochasticMatrix:
    """Column-stochastic matrix in compressed sparse column (CSR-by-column) form.

    Column v's support is indices[indptr[v]:indptr[v + 1]], sorted, unique
    and in [0, n); its weights are the same slice of weights, nonnegative and
    summing to 1 within COLUMN_SUM_TOL. The three arrays are read-only
    copies, validated once on construction.
    """

    __slots__ = ("_n", "indptr", "indices", "weights")

    def __init__(self, n: int, columns: Sequence[tuple[np.ndarray, np.ndarray]]):
        """Build from per-column (support, weights) pairs."""
        if len(columns) != n:
            raise ValueError(f"expected {n} columns, got {len(columns)}")
        # an empty leading entry keeps the concatenations typed for n = 0
        # and makes the running sizes start indptr at 0
        supports = [np.empty(0, dtype=np.int64)]
        weights = [np.empty(0)]
        for v, (idx, wts) in enumerate(columns):
            idx = np.asarray(idx, dtype=np.int64)
            wts = np.asarray(wts, dtype=np.float64)
            if idx.shape != wts.shape or idx.ndim != 1:
                raise ValueError(f"column {v}: support and weights must be 1-d and equal length")
            supports.append(idx)
            weights.append(wts)
        indptr = np.cumsum([idx.size for idx in supports])
        self._set_columns(n, indptr, np.concatenate(supports), np.concatenate(weights))

    @classmethod
    def from_csr(cls, n: int, indptr, indices, weights) -> "StochasticMatrix":
        """Build from compressed columns (copied and validated)."""
        matrix = cls.__new__(cls)
        matrix._set_columns(n, indptr, indices, weights)
        return matrix

    def _set_columns(self, n: int, indptr, indices, weights) -> None:
        indptr = np.array(indptr, dtype=np.int64)
        indices = np.array(indices, dtype=np.int64)
        weights = np.array(weights, dtype=np.float64)
        sizes = np.diff(indptr)
        if (
            indptr.shape != (n + 1,)
            or indptr[0] != 0
            or np.any(sizes < 0)
            or indices.ndim != 1
            or indices.shape != weights.shape
            or indptr[-1] != indices.size
        ):
            raise ValueError("indptr must rise from 0 to the entry count over n + 1 entries")
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            raise ValueError(f"column {empty[0]} is empty; a stochastic column must sum to 1")
        cols = np.repeat(np.arange(n, dtype=np.int64), sizes)
        # within a column each support index must exceed its predecessor;
        # the differences taken across a column boundary do not count
        unordered = (indices < 0) | (indices >= n)
        rises = np.diff(indices) > 0
        rises[indptr[1:-1] - 1] = True
        unordered[1:] |= ~rises
        for bad, what in (
            (unordered, f"support must be sorted, unique, and in [0, {n})"),
            (weights < 0, "negative weight"),
        ):
            if bad.any():
                raise ValueError(f"column {cols[bad.argmax()]}: {what}")
        totals = np.bincount(cols, weights=weights, minlength=n)
        off = np.flatnonzero(~(np.abs(totals - 1.0) <= COLUMN_SUM_TOL))
        if off.size:
            v = off[0]
            raise ValueError(f"column {v} sums to {totals[v]}, not 1 within {COLUMN_SUM_TOL}")
        for a in (indptr, indices, weights):
            a.flags.writeable = False
        self._n = n
        self.indptr = indptr
        self.indices = indices
        self.weights = weights

    @property
    def n(self) -> int:
        return self._n

    def column(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Support indices and weights of column v (read-only views)."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def entry_columns(self) -> np.ndarray:
        """Column of every stored entry, aligned with indices and weights."""
        return np.repeat(np.arange(self._n, dtype=np.int64), np.diff(self.indptr))

    def entry(self, w: int, v: int) -> float:
        """Matrix entry P(w, v): the weight of w in column v (0 off support)."""
        idx, wts = self.column(v)
        i = int(np.searchsorted(idx, w))
        if i < idx.size and idx[i] == w:
            return float(wts[i])
        return 0.0

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self._n, self._n))
        out[self.indices, self.entry_columns()] = self.weights
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, StochasticMatrix):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        return f"StochasticMatrix(n={self._n}, nnz={self.indices.size})"


def _adjacency(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices) of the graph's sorted neighbor rows."""
    indptr = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(graph.degrees, out=indptr[1:])
    return indptr, np.concatenate([graph.neighbors(v) for v in range(graph.n)])


def uniform_stochastic(graph: Graph) -> StochasticMatrix:
    """Uniform walk chain: column v puts weight 1/deg(v) on each neighbor of v."""
    degrees = graph.degrees
    isolated = np.flatnonzero(degrees == 0)
    if isolated.size:
        raise ValueError(f"vertex {isolated[0]} is isolated; the uniform chain is undefined")
    indptr, indices = _adjacency(graph)
    return StochasticMatrix.from_csr(graph.n, indptr, indices, np.repeat(1.0 / degrees, degrees))


def absorb_marked(chain: StochasticMatrix, marked: Iterable[int]) -> StochasticMatrix:
    """Replace each marked column by the unit self-column; others unchanged."""
    marked = {int(v) for v in marked}
    if not marked:
        raise ValueError("marked set must be nonempty")
    if not all(0 <= v < chain.n for v in marked):
        raise ValueError(f"marked set {sorted(marked)} out of range for n={chain.n}")
    cols = []
    for v in range(chain.n):
        if v in marked:
            cols.append((np.array([v], dtype=np.int64), np.array([1.0])))
        else:
            cols.append(chain.column(v))
    return StochasticMatrix(chain.n, cols)


class PairSpace:
    """Sparse basis of ordered pairs (v, w), closed under register swap.

    Pairs are kept sorted by flat key v*n + w; `first` and `second` give the
    registers of each basis element and `swap_index` the position of the
    transposed pair.
    """

    __slots__ = ("n", "first", "second", "swap_index", "_keys")

    def __init__(self, n: int, keys: np.ndarray):
        keys = np.sort(np.asarray(keys, dtype=np.int64))
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if keys.size else keys
        first = keys // n
        second = keys % n
        # the keys are distinct, so closure under swap means the transposed
        # keys sort back into the keys; their sort order then inverts to the
        # position of each pair's transpose
        swapped = second * n + first
        order = np.argsort(swapped)
        if not np.array_equal(swapped[order], keys):
            raise ValueError("pair support is not closed under swap")
        pos = np.empty_like(order)
        pos[order] = np.arange(keys.size)
        self.n = n
        self._keys = keys
        self.first = first
        self.second = second
        self.swap_index = pos
        for a in (self._keys, self.first, self.second, self.swap_index):
            a.flags.writeable = False

    @classmethod
    def from_graph(cls, graph: Graph) -> "PairSpace":
        """Directed edge pairs of the graph plus every self-pair (v, v)."""
        n = graph.n
        _, seconds = _adjacency(graph)
        firsts = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
        selfs = np.arange(n, dtype=np.int64) * (n + 1)
        return cls(n, np.concatenate([firsts * n + seconds, selfs]))

    @classmethod
    def from_stochastic(cls, chain: StochasticMatrix) -> "PairSpace":
        """Support pairs of the chain, their transposes, and all self-pairs."""
        n = chain.n
        cols, rows = chain.entry_columns(), chain.indices
        selfs = np.arange(n, dtype=np.int64) * (n + 1)
        return cls(n, np.concatenate([selfs, cols * n + rows, rows * n + cols]))

    @property
    def size(self) -> int:
        return self._keys.size

    def index_of(self, first, second) -> np.ndarray:
        """Positions of the pairs (first, second); raises if any is absent."""
        q = np.asarray(first, dtype=np.int64) * self.n + np.asarray(second, dtype=np.int64)
        pos = np.searchsorted(self._keys, q)
        bad = (pos >= self._keys.size) | (self._keys[np.minimum(pos, self._keys.size - 1)] != q)
        if np.any(bad):
            missing = np.atleast_1d(q)[np.atleast_1d(bad)][0]
            raise KeyError(f"pair ({missing // self.n}, {missing % self.n}) not in pair space")
        return pos

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairSpace):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._keys, other._keys)

    def __repr__(self) -> str:
        return f"PairSpace(n={self.n}, size={self.size})"


class WalkState:
    """Real amplitude vector over a PairSpace."""

    __slots__ = ("space", "amps")

    def __init__(self, space: PairSpace, amps: np.ndarray):
        amps = np.asarray(amps, dtype=np.float64)
        if amps.shape != (space.size,):
            raise ValueError(f"amplitude vector has shape {amps.shape}, expected ({space.size},)")
        self.space = space
        self.amps = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def copy(self) -> "WalkState":
        return WalkState(self.space, self.amps.copy())

    def __repr__(self) -> str:
        return f"WalkState(n={self.space.n}, size={self.space.size}, norm={self.norm():.6f})"


def _scatter_sqrt_columns(space: PairSpace, chain: StochasticMatrix) -> np.ndarray:
    """Vector a with a[(v, w)] = sqrt(chain(w, v)) over the pair space."""
    out = np.zeros(space.size)
    out[space.index_of(chain.entry_columns(), chain.indices)] = np.sqrt(chain.weights)
    return out


def _marked_pairs(space: PairSpace, marked: Iterable[int]) -> np.ndarray:
    """Positions of the pairs whose first register is marked, ascending."""
    flags = np.zeros(space.n, dtype=bool)
    flags[[int(v) for v in marked]] = True
    return np.flatnonzero(flags[space.first])


def _probability(amps: np.ndarray, marked_pairs: np.ndarray) -> float:
    """Squared norm on the marked pairs, clamped to 1.0 against float dust."""
    sel = amps[marked_pairs]
    return min(float(np.dot(sel, sel)), 1.0)


class WalkOperator:
    """One search-walk step: chain reflections composed with marked-phase oracles.

    Holds the quantized chain P and the marked set S. reflect_first and
    reflect_second expose the bare reflections R1 and R2 = Swap R1 Swap
    (each an involution); apply performs R2 Q2 R1 Q1, the search step whose
    marked-block action is the negated Grover coin.

    R2 Q2 = Swap R1 Q1 Swap is applied without permuting the state: R2
    reflects over second-register blocks with the profile read through the
    swap, and Q2 negates the pairs whose second register is marked. Pairs
    are sorted by (first, second), so a second-register block lists its
    pairs in the order of their transposes' first-register block, and each
    block sum adds the same terms in the same order as the permuted form.
    An operator steps through two scratch vectors of its own, so one
    operator must not step states from two threads at once.
    """

    def __init__(
        self,
        chain: StochasticMatrix,
        marked: Iterable[int] = (),
        space: Optional[PairSpace] = None,
    ):
        if space is None:
            space = PairSpace.from_stochastic(chain)
        elif space.n != chain.n:
            raise ValueError(f"pair space is on {space.n} vertices, chain on {chain.n}")
        marked = {int(v) for v in marked}
        if not all(0 <= v < chain.n for v in marked):
            raise ValueError(f"marked set {sorted(marked)} out of range for n={chain.n}")
        self.chain = chain
        self.marked = frozenset(marked)
        self.space = space
        self._profile = _scatter_sqrt_columns(space, chain)  # raises if space lacks support
        self._marked_pairs = _marked_pairs(space, marked)
        self._swapped_profile = self._profile[space.swap_index]
        self._swapped_marked_pairs = space.swap_index[self._marked_pairs]
        self._after_q1 = np.empty(space.size)
        self._after_r1 = np.empty(space.size)
        self._compatible_ids = {id(space)}

    def _check_space(self, state: WalkState) -> None:
        if id(state.space) in self._compatible_ids:
            return
        if state.space == self.space:
            self._compatible_ids.add(id(state.space))
            return
        raise ValueError("state pair space does not match the operator pair space")

    def _reflect(
        self, amps: np.ndarray, blocks: np.ndarray, profile: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Write 2 |profile><profile| - I on each block of pairs sharing a `blocks` value.

        `out` receives the result and must not alias `amps`.
        """
        np.multiply(profile, amps, out=out)
        overlap = np.bincount(blocks, weights=out, minlength=self.space.n)
        overlap *= 2.0
        # the indices are in range; mode="clip" only skips take's buffered copy
        np.take(overlap, blocks, out=out, mode="clip")
        out *= profile
        out -= amps
        return out

    def reflect_first(self, state: WalkState) -> WalkState:
        """Apply the bare reflection R1 only (exposed for involution checks)."""
        self._check_space(state)
        out = np.empty(self.space.size)
        return WalkState(
            self.space, self._reflect(state.amps, self.space.first, self._profile, out)
        )

    def reflect_second(self, state: WalkState) -> WalkState:
        """Apply the bare reflection R2 = Swap R1 Swap only."""
        self._check_space(state)
        out = np.empty(self.space.size)
        return WalkState(
            self.space, self._reflect(state.amps, self.space.second, self._swapped_profile, out)
        )

    def apply(self, state: WalkState) -> WalkState:
        """One full search step R2 Q2 R1 Q1; raises on norm drift beyond 1e-8."""
        self._check_space(state)
        q1 = self._after_q1
        np.copyto(q1, state.amps)
        q1[self._marked_pairs] *= -1.0
        r1 = self._reflect(q1, self.space.first, self._profile, self._after_r1)
        r1[self._swapped_marked_pairs] *= -1.0  # Q2, read through the swap
        out = np.empty(self.space.size)
        amps = self._reflect(r1, self.space.second, self._swapped_profile, out)
        norm_in = float(np.linalg.norm(state.amps))
        norm_out = float(np.linalg.norm(amps))
        if abs(norm_out - norm_in) > NORM_DRIFT_LIMIT * max(1.0, norm_in):
            raise NumericalStabilityError(
                f"walk step changed the state norm from {norm_in} to {norm_out}"
            )
        return WalkState(self.space, amps)

    def probabilities(self, state: WalkState) -> Iterator[float]:
        """Success probabilities p(0), p(1), ... of the marked set, walking from state.

        Steps run lazily: taking p(t) applies the t-th step, so a caller
        that stops after p(t) has walked exactly t steps.
        """
        while True:
            yield _probability(state.amps, self._marked_pairs)
            state = self.apply(state)


def apply_walk(operator: WalkOperator, state: WalkState) -> WalkState:
    """Functional alias for one walk step."""
    return operator.apply(state)


def initial_state(
    chain: StochasticMatrix, n: Optional[int] = None, space: Optional[PairSpace] = None
) -> WalkState:
    """Uniform superposition of column profiles: amp(v, w) = sqrt(P(w, v)) / sqrt(n).

    The first-register marginal is exactly uniform, so any marked set S
    starts at success probability |S|/n.
    """
    if n is not None and n != chain.n:
        raise ValueError(f"chain is on {chain.n} vertices, expected {n}")
    if space is None:
        space = PairSpace.from_stochastic(chain)
    return WalkState(space, _scatter_sqrt_columns(space, chain) / math.sqrt(chain.n))


def success_probability(state: WalkState, marked: Iterable[int]) -> float:
    """Probability that measuring the first register lands in the marked set.

    Clamped to 1.0: a unit state's marked mass can overshoot by float dust.
    """
    return _probability(state.amps, _marked_pairs(state.space, marked))


class SearchStart(NamedTuple):
    """What every search walk on one graph shares, whatever the marked set."""

    chain: StochasticMatrix
    space: PairSpace
    state: WalkState


def search_start(graph: Graph, chain: Optional[StochasticMatrix] = None) -> SearchStart:
    """The chain (uniform by default), the graph's pair space and the start state.

    Build it once per graph and pass it to a WalkOperator per marked set.
    """
    if chain is None:
        chain = uniform_stochastic(graph)
    elif chain.n != graph.n:
        raise ValueError(f"chain is on {chain.n} vertices, graph on {graph.n}")
    space = PairSpace.from_graph(graph)
    return SearchStart(chain, space, initial_state(chain, space=space))


def probability_trace(
    graph: Graph,
    marked: Iterable[int],
    t_max: int,
    chain: Optional[StochasticMatrix] = None,
) -> np.ndarray:
    """Success probabilities p(0..t_max) of the search walk for the marked set.

    Builds the search step from the chain (uniform by default) with the
    marked-set oracles and starts from the uniform column superposition,
    so p(0) = |S|/n.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    marked = sorted({int(v) for v in marked})
    if not marked:
        raise ValueError("marked set must be nonempty")
    start = search_start(graph, chain)
    probs = WalkOperator(start.chain, marked, space=start.space).probabilities(start.state)
    return np.fromiter(islice(probs, t_max + 1), dtype=np.float64, count=t_max + 1)
