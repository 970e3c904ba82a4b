"""Szegedy search walk on the arcs of a graph.

Under the uniform chain P(w, v) = 1/deg(v) only the arcs (v, w), w ~ v, of
the ordered-pair space carry amplitude, so the real walk state lives on the
graph's 2|E| CSR arcs. One search step applies the two reflections of the
quantized chain, each composed with a phase oracle that negates marked arcs:

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
from typing import Iterable, Iterator

import numpy as np

from .graphs import Graph

NORM_DRIFT_LIMIT = 1e-8


class NumericalStabilityError(ArithmeticError):
    """Norm drift exceeded the stability budget during evolution."""


def _probability(amps: np.ndarray, marked_arcs: np.ndarray) -> float:
    """Squared norm on the marked arcs, clamped to 1.0 against float dust.

    A pairwise add.reduce, not a BLAS dot, whose kernel OpenBLAS picks for the CPU.
    """
    sel = amps[marked_arcs]
    return min(float(np.add.reduce(sel * sel)), 1.0)


class WalkOperator:
    """The search walk of a graph's uniform chain with the marked set S: arcs, start and step.

    Arc k runs from first[k] to second[k], the graph's read-only tails and
    indices. Vertex v's arcs are k in the graph's [indptr[v], indptr[v + 1]),
    sorted by (first, second). reflect is the bare reflection R1 or R2 = Swap
    R1 Swap (each an involution), apply performs the search step R2 Q2 R1 Q1
    on an arc array, and probabilities walks it from start().

    R2 Q2 = Swap R1 Q1 Swap is applied without permuting the state: R2 reflects
    the arcs entering each vertex w about sqrt(1/deg w), and Q2 negates the arcs
    entering a marked vertex. The arcs are sorted by (first, second), so each of
    those block sums adds the same terms in the same order as the permuted form.
    Both scale a block's overlap by the one factor 2 sqrt(1/deg) of its vertex,
    exactly (see reflect). Q1 is -I or I on each block R1 reflects, and
    rounding is symmetric under negation, so R1 Q1 = Q1 R1 bit for bit (up to
    the sign of an exact zero), and Q2 Q1 is one sign flip of the arcs with
    exactly one marked end.
    """

    def __init__(self, graph: Graph, marked: Iterable[int] = ()):
        degrees = graph.degrees
        isolated = np.flatnonzero(degrees == 0)
        if isolated.size:
            raise ValueError(f"vertex {isolated[0]} is isolated; the uniform chain is undefined")
        self.n = n = graph.n
        self.first = graph.tails
        self.second = graph.indices
        marked = [int(v) for v in marked]
        if not all(0 <= v < n for v in marked):
            raise ValueError(f"marked set {sorted(set(marked))} out of range for n={n}")
        mask = np.zeros(n, dtype=bool)
        mask[marked] = True
        leaving = mask[self.first]
        self._marked_arcs = np.flatnonzero(leaving)
        self._flipped_arcs = np.flatnonzero(leaving != mask[self.second])
        self._degrees = degrees
        vertex_profile = np.sqrt(1.0 / degrees)
        self._twice_vertex_profile = 2.0 * vertex_profile
        self._profile = vertex_profile.repeat(degrees)
        self._swapped_profile = vertex_profile[self.second]

    def reflect(self, amps: np.ndarray, leaving: bool) -> np.ndarray:
        """A new array: 2 |profile><profile| - I on the arcs leaving (else entering) each vertex.

        leaving=True is R1, leaving=False is R2. Scaling v's overlap once by
        2 sqrt(1/deg v) rounds the same product as scaling by 2 (exact) and
        then by each profile entry of v's block, bitwise sqrt(1/deg v).
        """
        blocks = self.first if leaving else self.second
        profile = self._profile if leaving else self._swapped_profile
        overlap = np.bincount(blocks, weights=profile * amps, minlength=self.n)
        overlap *= self._twice_vertex_profile
        out = overlap.repeat(self._degrees) if leaving else overlap[blocks]
        out -= amps
        return out

    def _step(self, amps: np.ndarray, norm_in: float) -> tuple[np.ndarray, float]:
        """R2 Q2 R1 Q1 on raw amplitudes: a new array and its norm; raises on norm drift."""
        r1 = self.reflect(amps, leaving=True)
        r1[self._flipped_arcs] *= -1.0  # Q2 Q1, with Q1 moved past R1 (see the class docstring)
        out = self.reflect(r1, leaving=False)
        norm_out = math.sqrt(out.dot(out))
        if abs(norm_out - norm_in) > NORM_DRIFT_LIMIT * max(1.0, norm_in):
            raise NumericalStabilityError(f"walk step changed the state norm from {norm_in} to {norm_out}")
        return out, norm_out

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """One full search step R2 Q2 R1 Q1 of an arc array; raises on norm drift beyond 1e-8."""
        amps = np.asarray(amps, dtype=np.float64)
        return self._step(amps, math.sqrt(amps.dot(amps)))[0]

    def start(self) -> np.ndarray:
        """Uniform superposition of column profiles: amp(v, w) = sqrt(P(w, v)) / sqrt(n).

        The first-vertex marginal is exactly uniform, so any marked set S
        starts at success probability |S|/n.
        """
        return self._profile / math.sqrt(self.n)

    def probabilities(self) -> Iterator[float]:
        """Success probabilities p(0), p(1), ... of the marked set, walking from start().

        Steps run lazily: taking p(t) applies the t-th step, so a caller
        that stops after p(t) has walked exactly t steps. Each step runs the
        drift check of apply, on raw arrays.
        """
        amps = self.start()
        norm = math.sqrt(amps.dot(amps))
        while True:
            yield _probability(amps, self._marked_arcs)
            amps, norm = self._step(amps, norm)


def probability_trace(graph: Graph, marked: Iterable[int], t_max: int) -> np.ndarray:
    """Success probabilities p(0..t_max) of the search walk for the marked set.

    The walk starts from the uniform column superposition, so p(0) = |S|/n.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    marked = sorted({int(v) for v in marked})
    if not marked:
        raise ValueError("marked set must be nonempty")
    probs = WalkOperator(graph, marked).probabilities()
    return np.fromiter(islice(probs, t_max + 1), dtype=np.float64, count=t_max + 1)
