"""Exceptional-configuration enumeration.

A connected marked subgraph H of G is exceptional when it admits a
stationary state of the search walk: H is non-bipartite, or H is bipartite
and the two parts have equal degree sums measured in the FULL graph G.
Order-2 and order-3 configurations are enumerated explicitly: an adjacent
pair with equal degrees, a triangle, or a 3-vertex path whose middle degree
equals the sum of the end degrees.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

import numpy as np

from .graphs import Graph


class ECKind(str, Enum):
    EC2_PATH = "2ec_path"
    EC3_TRIANGLE = "3ec_triangle"
    EC3_PATH = "3ec_path"


_KIND_SIZE = {ECKind.EC2_PATH: 2, ECKind.EC3_TRIANGLE: 3, ECKind.EC3_PATH: 3}
_KIND_RANK = {ECKind.EC2_PATH: 0, ECKind.EC3_TRIANGLE: 1, ECKind.EC3_PATH: 2}


@dataclass(frozen=True)
class ExceptionalConfiguration:
    """An exceptional marked-vertex set, tagged with its shape."""

    vertices: tuple[int, ...]
    kind: ECKind
    anchor: int

    def __post_init__(self):
        if tuple(sorted(self.vertices)) != self.vertices:
            raise ValueError(f"vertices must be a sorted tuple, got {self.vertices}")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError(f"duplicate vertices in {self.vertices}")
        if len(self.vertices) != _KIND_SIZE[self.kind]:
            raise ValueError(f"{self.kind.value} needs {_KIND_SIZE[self.kind]} vertices, got {self.vertices}")
        if self.anchor not in self.vertices:
            raise ValueError(f"anchor {self.anchor} not in {self.vertices}")

    @property
    def added(self) -> tuple[int, ...]:
        """The vertices other than the anchor, ascending: what an attack marks."""
        return tuple(v for v in self.vertices if v != self.anchor)


def find_2ec(graph: Graph, v: int) -> list[ExceptionalConfiguration]:
    """All order-2 configurations at v: neighbors w with deg(w) = deg(v), ascending."""
    dv = graph.degree(v)
    return [
        ExceptionalConfiguration(tuple(sorted((v, int(w)))), ECKind.EC2_PATH, v)
        for w in graph.neighbors(v)
        if graph.degree(int(w)) == dv
    ]


def find_3ec(graph: Graph, v: int) -> list[ExceptionalConfiguration]:
    """All order-3 configurations containing v: triangles, then qualifying paths.

    A path a-b-c qualifies when a and c are non-adjacent (so the induced
    subgraph is a path, not a triangle) and deg(b) = deg(a) + deg(c) in the
    full graph. Output is ordered triangles first, each group ascending by
    vertex tuple.

    The rows of v's neighbors are read as one concatenated array: an entry
    (a, c) is a triangle when c is a neighbor of v above a, and the end of a
    path v-a-c when c lies outside v's closed neighborhood. The paths a-v-c
    are the neighbor pairs with matching degrees that are not triangles.
    """
    degrees = graph.degrees
    nbrs = graph.neighbors(v)
    dv = graph.degree(v)
    lengths = degrees[nbrs]
    # the neighbors' rows, concatenated: entry j is the arc owner[j]-far[j]
    owner, far = np.repeat(nbrs, lengths), graph.concat_neighbors(nbrs)
    near = np.zeros(graph.n, dtype=bool)
    near[nbrs] = True
    tri = near[far] & (far > owner)  # each triangle once, from its lower end's row
    # v-a-c: entries outside v's closed neighborhood with deg a = deg v + deg c
    near[v] = True
    beyond = ~near[far] & (np.repeat(lengths, lengths) == dv + degrees[far])
    # a-v-c: neighbor pairs i < j with deg a + deg c = deg v, less the triangles
    pair = np.add.outer(lengths, lengths) == dv
    if pair.any():
        pair[np.searchsorted(nbrs, owner[tri]), np.searchsorted(nbrs, far[tri])] = False
    i, j = np.nonzero(pair)
    upper = i < j
    i, j = i[upper], j[upper]

    def configs(kind, firsts, seconds):
        return [ExceptionalConfiguration(tuple(sorted((v, a, c))), kind, v)
                for a, c in zip(firsts.tolist(), seconds.tolist())]

    found = (configs(ECKind.EC3_TRIANGLE, owner[tri], far[tri])
             + configs(ECKind.EC3_PATH, nbrs[i], nbrs[j])
             + configs(ECKind.EC3_PATH, owner[beyond], far[beyond]))
    found.sort(key=lambda ec: (_KIND_RANK[ec.kind], ec.vertices))
    return found


def find_ec_within_distance(
    graph: Graph,
    v: int,
    d: Optional[int] = None,
    orders: Iterable[int] = (2, 3),
) -> list[ExceptionalConfiguration]:
    """Configurations at v whose other vertices all lie within hop distance d.

    d=None means unrestricted, which for orders {2, 3} coincides with d=2
    since every enumerated configuration sits inside v's 2-neighborhood.
    Output is order-2 configurations, then triangles, then paths, each group
    ascending by vertex tuple, as find_2ec and find_3ec list them.
    """
    orders = checked_orders(orders, d)
    found: list[ExceptionalConfiguration] = []
    if 2 in orders:
        found.extend(find_2ec(graph, v))
    if 3 in orders:
        found.extend(find_3ec(graph, v))
    return within_one_hop(graph, v, found) if d == 1 else found


def checked_orders(orders: Iterable[int], d: Optional[int]) -> frozenset[int]:
    """A find_ec_within_distance query's orders as a set; raises unless they are
    a nonempty subset of {2, 3} and the hop distance d is 1, 2 or None."""
    orders = frozenset(int(o) for o in orders)
    if not orders or not orders <= {2, 3}:
        raise ValueError(f"orders must be a nonempty subset of {{2, 3}}, got {sorted(orders)}")
    if d is not None and d not in (1, 2):
        raise ValueError(f"hop distance must be 1, 2, or None, got {d}")
    return orders


def within_one_hop(
    graph: Graph, v: int, found: Iterable[ExceptionalConfiguration]
) -> list[ExceptionalConfiguration]:
    """The configurations among `found` whose vertices all lie in {v} and v's neighbors."""
    near = {v, *graph.neighbors(v).tolist()}
    return [ec for ec in found if near.issuperset(ec.vertices)]
