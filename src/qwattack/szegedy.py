"""Szegedy search walk on the arcs of a graph.

Under the uniform chain P(w, v) = 1/deg(v) only the arcs (v, w), w ~ v, of
the ordered-pair space carry amplitude, so the real walk state lives on the
graph's 2|E| CSR arcs. PairSpace is both that arc space and the chain: arc
(v, w) carries the weight P(w, v). One search step applies the two
reflections of the quantized chain, each composed with a phase oracle that
negates marked arcs:

    step = R2 Q2 R1 Q1

where R1 = 2 sum_v |v, phi_v><v, phi_v| - I with phi_v(w) = sqrt(P(w, v))
built from the UNMODIFIED chain P, R2 = Swap R1 Swap, Q1 negates the arcs
leaving a marked vertex, and Q2 = Swap Q1 Swap. On the arcs leaving one
vertex this is the Grover diffusion coin at unmarked vertices and its
negation at marked ones, the walk for which marked subgraphs with the
degree-sum property admit stationary states that suppress the search. With
an empty marked set the step reduces to the plain quantized walk R2 R1.
"""

import math
from itertools import islice
from typing import Iterable, Iterator, Optional

import numpy as np

from .graphs import Graph

NORM_DRIFT_LIMIT = 1e-8


class NumericalStabilityError(ArithmeticError):
    """Norm drift exceeded the stability budget during evolution."""


class PairSpace:
    """The uniform chain of a graph, held on its arcs: a read-only view of its CSR rows.

    Arc k runs from first[k] to second[k], the graph's indices array, and
    carries the chain weight weights[k] = P(second[k], first[k]) = 1/deg(first[k]).
    Vertex v's arcs are k in [indptr[v], indptr[v + 1]), sorted by (first, second).
    """

    __slots__ = ("n", "indptr", "first", "second", "weights")

    def __init__(self, graph: Graph):
        isolated = np.flatnonzero(graph.degrees == 0)
        if isolated.size:
            raise ValueError(f"vertex {isolated[0]} is isolated; the uniform chain is undefined")
        self.n = graph.n
        self.indptr = graph.indptr
        self.first = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
        self.first.flags.writeable = False
        self.second = graph.indices
        self.weights = np.repeat(1.0 / graph.degrees, graph.degrees)
        self.weights.flags.writeable = False

    @classmethod
    def from_graph(cls, graph: Graph) -> "PairSpace":
        """The graph's arcs, both orientations of every edge, with their chain weights."""
        return cls(graph)

    @property
    def size(self) -> int:
        return self.second.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairSpace):
            return NotImplemented
        same = self.n == other.n and np.array_equal(self.indptr, other.indptr)
        return same and np.array_equal(self.second, other.second)

    def __repr__(self) -> str:
        return f"PairSpace(n={self.n}, size={self.size})"


def uniform_stochastic(graph: Graph) -> PairSpace:
    """Uniform walk chain P(w, v) = 1/deg(v), held on the graph's arcs."""
    return PairSpace.from_graph(graph)


class WalkState:
    """Real amplitude vector over a PairSpace."""

    __slots__ = ("space", "_amps")

    def __init__(self, space: PairSpace, amps: np.ndarray):
        amps = np.asarray(amps, dtype=np.float64)
        if amps.shape != (space.size,):
            raise ValueError(f"amplitude vector has shape {amps.shape}, expected ({space.size},)")
        self.space = space
        self._amps = amps

    @property
    def amps(self) -> np.ndarray:
        return self._amps

    def norm(self) -> float:
        return math.sqrt(self._amps.dot(self._amps))

    def __repr__(self) -> str:
        return f"WalkState(n={self.space.n}, size={self.space.size}, norm={self.norm():.6f})"


def _probability(amps: np.ndarray, marked_arcs: np.ndarray) -> float:
    """Squared norm on the marked arcs, clamped to 1.0 against float dust.

    A pairwise add.reduce, not a BLAS dot, whose kernel OpenBLAS picks for the CPU.
    """
    sel = amps[marked_arcs]
    return min(float(np.add.reduce(sel * sel)), 1.0)


class WalkOperator:
    """One search-walk step: chain reflections composed with marked-phase oracles.

    Holds the chain P, which is also the arc space, and the arcs of the marked set S.
    reflect_first and reflect_second expose the bare reflections R1 and
    R2 = Swap R1 Swap (each an involution); apply performs the search step
    R2 Q2 R1 Q1, and probabilities walks it on raw arrays.

    R2 Q2 = Swap R1 Q1 Swap is applied without permuting the state: R2 reflects
    the arcs entering each vertex w about sqrt(1/deg w), and Q2 negates the arcs
    entering a marked vertex. The arcs are sorted by (first, second), so each of
    those block sums adds the same terms in the same order as the permuted form.
    Both scale a block's overlap by the one factor 2 sqrt(1/deg) of its vertex,
    exactly (see _reflect). Q1 is -I or I on each block R1 reflects, and
    rounding is symmetric under negation, so R1 Q1 = Q1 R1 bit for bit (up to
    the sign of an exact zero), and Q2 Q1 is one sign flip of the arcs with
    exactly one marked end.
    """

    def __init__(
        self, chain: PairSpace, marked: Iterable[int] = (), space: Optional[PairSpace] = None
    ):
        if space is not None and space != chain:
            raise ValueError(f"{space} is not the arc space of the chain on {chain.n} vertices")
        self.space = space = chain if space is None else space
        marked = [int(v) for v in marked]
        if not all(0 <= v < space.n for v in marked):
            raise ValueError(f"marked set {sorted(set(marked))} out of range for n={space.n}")
        mask = np.zeros(space.n, dtype=bool)
        mask[marked] = True
        leaving = mask[space.first]
        self._marked_arcs = np.flatnonzero(leaving)
        self._flipped_arcs = np.flatnonzero(leaving != mask[space.second])
        self._degrees = np.diff(space.indptr)
        vertex_profile = np.sqrt(1.0 / self._degrees)
        self._twice_vertex_profile = 2.0 * vertex_profile
        self._profile = vertex_profile.repeat(self._degrees)
        self._swapped_profile = vertex_profile[space.second]

    def _check_space(self, state: WalkState) -> None:
        if state.space is not self.space and state.space != self.space:
            raise ValueError("state pair space does not match the operator pair space")

    def _reflect(self, amps: np.ndarray, leaving: bool) -> np.ndarray:
        """A new array: 2 |profile><profile| - I on the arcs leaving (else entering) each vertex.

        Scaling v's overlap once by 2 sqrt(1/deg v) rounds the same product as scaling by 2
        (exact) and then by each profile entry of v's block, bitwise sqrt(1/deg v).
        """
        blocks = self.space.first if leaving else self.space.second
        profile = self._profile if leaving else self._swapped_profile
        overlap = np.bincount(blocks, weights=profile * amps, minlength=self.space.n)
        overlap *= self._twice_vertex_profile
        out = overlap.repeat(self._degrees) if leaving else overlap[blocks]
        out -= amps
        return out

    def reflect_first(self, state: WalkState) -> WalkState:
        """Apply the bare reflection R1 only (exposed for involution checks)."""
        self._check_space(state)
        return WalkState(self.space, self._reflect(state.amps, leaving=True))

    def reflect_second(self, state: WalkState) -> WalkState:
        """Apply the bare reflection R2 = Swap R1 Swap only."""
        self._check_space(state)
        return WalkState(self.space, self._reflect(state.amps, leaving=False))

    def _step(self, amps: np.ndarray, norm_in: float) -> tuple[np.ndarray, float]:
        """R2 Q2 R1 Q1 on raw amplitudes: a new array and its norm; raises on norm drift."""
        r1 = self._reflect(amps, leaving=True)
        r1[self._flipped_arcs] *= -1.0  # Q2 Q1, with Q1 moved past R1 (see the class docstring)
        out = self._reflect(r1, leaving=False)
        norm_out = math.sqrt(out.dot(out))
        if abs(norm_out - norm_in) > NORM_DRIFT_LIMIT * max(1.0, norm_in):
            raise NumericalStabilityError(
                f"walk step changed the state norm from {norm_in} to {norm_out}"
            )
        return out, norm_out

    def apply(self, state: WalkState) -> WalkState:
        """One full search step R2 Q2 R1 Q1; raises on norm drift beyond 1e-8."""
        self._check_space(state)
        return WalkState(self.space, self._step(state.amps, state.norm())[0])

    def probabilities(self, state: WalkState) -> Iterator[float]:
        """Success probabilities p(0), p(1), ... of the marked set, walking from state.

        Steps run lazily: taking p(t) applies the t-th step, so a caller
        that stops after p(t) has walked exactly t steps. Each step runs the
        drift check of apply, on raw arrays.
        """
        self._check_space(state)
        amps, norm = state.amps, state.norm()
        while True:
            yield _probability(amps, self._marked_arcs)
            amps, norm = self._step(amps, norm)


def initial_state(chain: PairSpace) -> WalkState:
    """Uniform superposition of column profiles: amp(v, w) = sqrt(P(w, v)) / sqrt(n).

    The first-vertex marginal is exactly uniform, so any marked set S
    starts at success probability |S|/n.
    """
    return WalkState(chain, np.sqrt(chain.weights) / math.sqrt(chain.n))


def success_probability(state: WalkState, marked: Iterable[int]) -> float:
    """Probability that measuring the first vertex of the arc lands in the marked set.

    Clamped to 1.0: a unit state's marked mass can overshoot by float dust.
    """
    return _probability(state.amps, WalkOperator(state.space, marked)._marked_arcs)


def probability_trace(graph: Graph, marked: Iterable[int], t_max: int) -> np.ndarray:
    """Success probabilities p(0..t_max) of the search walk for the marked set.

    The walk starts from the uniform column superposition, so p(0) = |S|/n.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    marked = sorted({int(v) for v in marked})
    if not marked:
        raise ValueError("marked set must be nonempty")
    start = initial_state(uniform_stochastic(graph))
    probs = WalkOperator(start.space, marked).probabilities(start)
    return np.fromiter(islice(probs, t_max + 1), dtype=np.float64, count=t_max + 1)
