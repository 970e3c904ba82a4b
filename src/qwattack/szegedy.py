"""Szegedy search walk on the ordered-pair space of a graph.

The walk state lives on ordered vertex pairs (v, w) and all amplitudes are
real. One search step applies the two reflections of the quantized uniform
chain P(w, v) = 1/deg(v), each composed with a phase oracle that negates
marked components:

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
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .graphs import Graph

NORM_DRIFT_LIMIT = 1e-8


class NumericalStabilityError(ArithmeticError):
    """Norm drift exceeded the stability budget during evolution."""


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Uniform walk chain of a graph in compressed columns, built by uniform_stochastic.

    Column v puts weight weights[k] = 1/deg(v) on each neighbor indices[k],
    k in [indptr[v], indptr[v + 1]); indptr and indices are the graph's own
    read-only arrays, and weights is read-only too.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray


def uniform_stochastic(graph: Graph) -> StochasticMatrix:
    """Uniform walk chain: column v puts weight 1/deg(v) on each neighbor of v."""
    isolated = np.flatnonzero(graph.degrees == 0)
    if isolated.size:
        raise ValueError(f"vertex {isolated[0]} is isolated; the uniform chain is undefined")
    weights = np.repeat(1.0 / graph.degrees, graph.degrees)
    weights.flags.writeable = False
    return StochasticMatrix(graph.n, graph.indptr, graph.indices, weights)


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
        return _arc_space(graph.n, graph.indptr, graph.indices)

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
    """Real amplitude vector over a PairSpace.

    A state that WalkOperator.apply returns carries the norm its drift check
    computed, and its amplitudes are read-only so that norm cannot go stale.
    Any other state computes its norm on demand.
    """

    __slots__ = ("space", "_amps", "_norm")

    def __init__(self, space: PairSpace, amps: np.ndarray):
        amps = np.asarray(amps, dtype=np.float64)
        if amps.shape != (space.size,):
            raise ValueError(f"amplitude vector has shape {amps.shape}, expected ({space.size},)")
        self.space = space
        self._amps = amps
        self._norm: Optional[float] = None

    @classmethod
    def _stepped(cls, space: PairSpace, amps: np.ndarray, norm: float) -> "WalkState":
        """A step's output: its amplitudes, frozen, with their known norm."""
        amps.flags.writeable = False
        state = cls(space, amps)
        state._norm = norm
        return state

    @property
    def amps(self) -> np.ndarray:
        return self._amps

    def norm(self) -> float:
        return float(np.linalg.norm(self._amps)) if self._norm is None else self._norm

    def copy(self) -> "WalkState":
        return WalkState(self.space, self.amps.copy())

    def __repr__(self) -> str:
        return f"WalkState(n={self.space.n}, size={self.space.size}, norm={self.norm():.6f})"


def _arc_space(n: int, indptr: np.ndarray, indices: np.ndarray) -> PairSpace:
    """The arcs (v, w) of the CSR neighbor rows plus every self-pair (v, v)."""
    firsts = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    selfs = np.arange(n, dtype=np.int64) * (n + 1)
    return PairSpace(n, np.concatenate([firsts * n + indices, selfs]))


def _scatter_sqrt_columns(space: PairSpace, chain: StochasticMatrix) -> np.ndarray:
    """Vector a with a[(v, w)] = sqrt(chain(w, v)) over the pair space."""
    cols = np.repeat(np.arange(chain.n, dtype=np.int64), np.diff(chain.indptr))
    out = np.zeros(space.size)
    out[space.index_of(cols, chain.indices)] = np.sqrt(chain.weights)
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
        self, chain: StochasticMatrix, marked: Iterable[int] = (), space: Optional[PairSpace] = None
    ):
        if space is None:
            space = _arc_space(chain.n, chain.indptr, chain.indices)
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

    def _check_space(self, state: WalkState) -> None:
        if state.space is not self.space and state.space != self.space:
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
        return self._reflected(state, self.space.first, self._profile)

    def reflect_second(self, state: WalkState) -> WalkState:
        """Apply the bare reflection R2 = Swap R1 Swap only."""
        return self._reflected(state, self.space.second, self._swapped_profile)

    def _reflected(self, state: WalkState, blocks: np.ndarray, profile: np.ndarray) -> WalkState:
        self._check_space(state)
        out = np.empty(self.space.size)
        return WalkState(self.space, self._reflect(state.amps, blocks, profile, out))

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
        norm_in = state.norm()
        norm_out = float(np.linalg.norm(amps))
        if abs(norm_out - norm_in) > NORM_DRIFT_LIMIT * max(1.0, norm_in):
            raise NumericalStabilityError(
                f"walk step changed the state norm from {norm_in} to {norm_out}"
            )
        return WalkState._stepped(self.space, amps, norm_out)

    def probabilities(self, state: WalkState) -> Iterator[float]:
        """Success probabilities p(0), p(1), ... of the marked set, walking from state.

        Steps run lazily: taking p(t) applies the t-th step, so a caller
        that stops after p(t) has walked exactly t steps.
        """
        while True:
            yield _probability(state.amps, self._marked_pairs)
            state = self.apply(state)


def initial_state(chain: StochasticMatrix, space: Optional[PairSpace] = None) -> WalkState:
    """Uniform superposition of column profiles: amp(v, w) = sqrt(P(w, v)) / sqrt(n).

    The first-register marginal is exactly uniform, so any marked set S
    starts at success probability |S|/n.
    """
    if space is None:
        space = _arc_space(chain.n, chain.indptr, chain.indices)
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


def search_start(graph: Graph) -> SearchStart:
    """The graph's uniform chain, its pair space and the start state.

    Every search walk here runs on its graph's uniform chain. Build this once
    per graph and pass it to a WalkOperator per marked set.
    """
    chain = uniform_stochastic(graph)
    space = PairSpace.from_graph(graph)
    return SearchStart(chain, space, initial_state(chain, space=space))


def probability_trace(graph: Graph, marked: Iterable[int], t_max: int) -> np.ndarray:
    """Success probabilities p(0..t_max) of the search walk for the marked set.

    Builds the search step from the graph's uniform chain with the
    marked-set oracles and starts from the uniform column superposition,
    so p(0) = |S|/n.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    marked = sorted({int(v) for v in marked})
    if not marked:
        raise ValueError("marked set must be nonempty")
    start = search_start(graph)
    probs = WalkOperator(start.chain, marked, space=start.space).probabilities(start.state)
    return np.fromiter(islice(probs, t_max + 1), dtype=np.float64, count=t_max + 1)
