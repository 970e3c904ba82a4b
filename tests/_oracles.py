"""Independent reference implementations used as test oracles.

Everything here is built directly from definitions (dense matrices, subset
enumeration, union-find) and deliberately avoids the package's sparse code
paths so the two sides stay independent.
"""

import itertools

import numpy as np

from qwattack.exceptional import ECKind, ExceptionalConfiguration
from qwattack.graphs import Graph


# ---------------------------------------------------------------- dense walk

def dense_uniform_chain(graph: Graph) -> np.ndarray:
    n = graph.n
    P = np.zeros((n, n))
    for v in range(n):
        deg = graph.degree(v)
        for w in graph.neighbors(v):
            P[int(w), v] = 1.0 / deg
    return P


def dense_absorb(P: np.ndarray, marked) -> np.ndarray:
    P = P.copy()
    for v in marked:
        P[:, v] = 0.0
        P[v, v] = 1.0
    return P


def dense_reflection(P: np.ndarray) -> np.ndarray:
    """R1 = 2 sum_v |v, phi_v><v, phi_v| - I with phi_v(w) = sqrt(P[w, v])."""
    n = P.shape[0]
    d = n * n
    Pi = np.zeros((d, d))
    for v in range(n):
        psi = np.zeros(d)
        psi[v * n : (v + 1) * n] = np.sqrt(P[:, v])
        Pi += np.outer(psi, psi)
    return 2.0 * Pi - np.eye(d)


def dense_swap(n: int) -> np.ndarray:
    S = np.zeros((n * n, n * n))
    for v in range(n):
        for w in range(n):
            S[v * n + w, w * n + v] = 1.0
    return S


def dense_oracle_sign(n: int, marked) -> np.ndarray:
    q = np.ones(n * n)
    for v in marked:
        q[v * n : (v + 1) * n] = -1.0
    return q


def dense_search_step(P: np.ndarray, marked) -> np.ndarray:
    """The full search step R2 Q2 R1 Q1 as an n^2 x n^2 matrix."""
    n = P.shape[0]
    R1 = dense_reflection(P)
    S = dense_swap(n)
    R2 = S @ R1 @ S
    Q1 = np.diag(dense_oracle_sign(n, marked))
    Q2 = S @ Q1 @ S
    return R2 @ Q2 @ R1 @ Q1


def dense_initial(P: np.ndarray) -> np.ndarray:
    n = P.shape[0]
    vec = np.zeros(n * n)
    for v in range(n):
        vec[v * n : (v + 1) * n] = np.sqrt(P[:, v])
    return vec / np.sqrt(n)


def dense_marked_mass(vec: np.ndarray, marked, n: int) -> float:
    return sum(float(vec[v * n : (v + 1) * n] @ vec[v * n : (v + 1) * n]) for v in marked)


def dense_trace(graph: Graph, marked, t_max: int) -> np.ndarray:
    P = dense_uniform_chain(graph)
    W = dense_search_step(P, marked)
    s = dense_initial(P)
    out = np.empty(t_max + 1)
    for t in range(t_max + 1):
        if t:
            s = W @ s
        out[t] = dense_marked_mass(s, marked, graph.n)
    return out


# ------------------------------------------------------------ per-arc walk

def arc_trace(graph: Graph, marked, steps: int) -> np.ndarray:
    """p(0..steps) of the search walk R2 Q2 R1 Q1, stepped arc by arc on a dict state.

    The state maps each arc (v, w) to its amplitude. phi_v(w) = sqrt(P(w, v))
    = sqrt(1/deg v) is the column profile of the uniform chain, R1 reflects
    each first-vertex block about phi_v, Q1 negates arcs leaving a marked
    vertex, and R2 = Swap R1 Swap, Q2 = Swap Q1 Swap. Pure Python, so it
    scales to a few hundred vertices where the dense oracle cannot.
    """
    n = graph.n
    marked = {int(v) for v in marked}
    nbrs = {v: [int(w) for w in graph.neighbors(v)] for v in range(n)}
    phi = {(v, w): (1.0 / len(nbrs[v])) ** 0.5 for v in range(n) for w in nbrs[v]}

    def swap(state):
        return {(w, v): a for (v, w), a in state.items()}

    def q1(state):
        return {(v, w): -a if v in marked else a for (v, w), a in state.items()}

    def r1(state):
        out = {}
        for v in range(n):
            overlap = sum(phi[v, w] * state[v, w] for w in nbrs[v])
            for w in nbrs[v]:
                out[v, w] = 2.0 * overlap * phi[v, w] - state[v, w]
        return out

    def r2(state):
        return swap(r1(swap(state)))

    def q2(state):
        return swap(q1(swap(state)))

    state = {arc: p / n**0.5 for arc, p in phi.items()}
    out = np.empty(steps + 1)
    for t in range(steps + 1):
        if t:
            state = r2(q2(r1(q1(state))))
        out[t] = sum(a * a for (v, _), a in state.items() if v in marked)
    return out


def plus_one_eigenspace(W: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of ker(W - I) via SVD (columns span the eigenspace)."""
    u, s, vt = np.linalg.svd(W - np.eye(W.shape[0]))
    return vt[s < tol].T


def max_marked_first_mass(basis: np.ndarray, marked, n: int) -> float:
    """Largest marked-first-register mass attainable inside the spanned space."""
    rows = [v * n + w for v in marked for w in range(n)]
    if basis.size == 0:
        return 0.0
    sv = np.linalg.svd(basis[rows, :], compute_uv=False)
    return float(sv[0] ** 2) if sv.size else 0.0


# ----------------------------------------------------------- graph building

def reference_rows(n: int, edges) -> list[list[int]]:
    """Sorted neighbor rows built edge by edge with Python sets.

    Raises ValueError at the first bad edge in input order, with the
    message Graph gives: range first, then self-loop, then a repeat of an
    earlier edge in either orientation.
    """
    rows = [set() for _ in range(n)]
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if v in rows[u]:
            raise ValueError(f"duplicate edge ({u}, {v})")
        rows[u].add(v)
        rows[v].add(u)
    return [sorted(r) for r in rows]


def er_reference(n: int, p: float, seed: int) -> Graph:
    """G(n, p) through Generator.random(), one call per row of pairs (u, u+1), ..., (u, n-1).

    The generator's row-by-row form, kept as the oracle for its stream: same
    parameters and seed, so the edge list must match gen_erdos_renyi's.
    """
    rng = np.random.default_rng(seed)
    rows = [np.flatnonzero(rng.random(n - 1 - u) < p) + u + 1 for u in range(n - 1)]
    return Graph(n, [(u, int(v)) for u, row in enumerate(rows) for v in row])


def ws_reference(n: int, k: int, beta: float, seed: int) -> Graph:
    """Watts-Strogatz rewiring with Python sets, walking sorted(closed[u]) for each pick.

    The generator's first form, kept as the oracle for its stream: same
    parameters and seed, so the edge list must match gen_watts_strogatz's.
    """
    rng = np.random.default_rng(seed)
    random, integers = rng.random, rng.integers
    half = k // 2
    # closed neighborhoods: u's own entry makes sorted(closed[u]) what u may not pick
    closed = [{(u + off) % n for off in range(-half, half + 1)} for u in range(n)]
    # far end of the lattice edge (u, u + off), at [(off - 1) * n + u]; rewiring moves it
    far = [(u + off) % n for off in range(1, half + 1) for u in range(n)]
    for slot in range(half * n):
        u = slot % n
        if random() >= beta or len(closed[u]) >= n:
            continue  # kept, or neighborhood full: nothing to rewire to
        # the w-th vertex outside closed[u]: step w past each member at or below it
        w = int(integers(n - len(closed[u])))
        for x in sorted(closed[u]):
            if x > w:
                break
            w += 1
        v, far[slot] = far[slot], w
        closed[u] ^= {v, w}  # u trades v for w
        closed[v].remove(u)
        closed[w].add(u)
    return Graph(n, np.column_stack((np.tile(np.arange(n), half), far)))


def ba_reference(n: int, m0: int, seed: int) -> Graph:
    """Preferential attachment through numpy's float CDF, one cumsum per pass.

    The generator's first form, kept as the oracle for its stream: same
    parameters and seed, so the edge list must match gen_barabasi_albert's.
    """
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


# ----------------------------------------------------------- connectivity

def connected_by_bfs(rows: list[list[int]]) -> bool:
    """Vertex-at-a-time BFS over neighbor rows from vertex 0."""
    seen = {0}
    queue = [0]
    for u in queue:
        for w in rows[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(rows)


def connected_by_union_find(graph: Graph) -> bool:
    parent = list(range(graph.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in graph.edges():
        parent[find(u)] = find(v)
    return len({find(v) for v in range(graph.n)}) == 1


# --------------------------------------------------------------- EC oracles

def two_coloring(adjacency: dict) -> tuple[bool, dict]:
    """Independent BFS 2-coloring of an adjacency dict; (bipartite?, colors)."""
    colors: dict = {}
    for start in adjacency:
        if start in colors:
            continue
        colors[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adjacency[u]:
                if w not in colors:
                    colors[w] = colors[u] ^ 1
                    queue.append(w)
                elif colors[w] == colors[u]:
                    return False, colors
    return True, colors


def induced_adjacency(graph: Graph, verts) -> dict:
    vset = set(verts)
    return {v: [int(w) for w in graph.neighbors(v) if int(w) in vset] for v in vset}


def subset_is_connected(graph: Graph, verts) -> bool:
    adj = induced_adjacency(graph, verts)
    verts = list(adj)
    seen = {verts[0]}
    queue = [verts[0]]
    while queue:
        u = queue.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(verts)


def exceptional_by_definition(graph: Graph, verts) -> bool:
    """Straight re-derivation: non-bipartite, or equal full-graph degree sums."""
    adj = induced_adjacency(graph, verts)
    bipartite, colors = two_coloring(adj)
    if not bipartite:
        return True
    sums = [0, 0]
    for v, c in colors.items():
        sums[c] += graph.degree(v)
    return sums[0] == sums[1]


def classify_triple(graph: Graph, triple) -> str:
    """'triangle', 'path', or 'other' for the induced subgraph on 3 vertices."""
    a, b, c = sorted(triple)
    edges = sum((graph.has_edge(a, b), graph.has_edge(a, c), graph.has_edge(b, c)))
    if edges == 3:
        return "triangle"
    if edges == 2:
        return "path"
    return "other"


def path_middle(graph: Graph, triple) -> int:
    """The degree-2 vertex of an induced 3-path."""
    for v in triple:
        others = [u for u in triple if u != v]
        if graph.has_edge(v, others[0]) and graph.has_edge(v, others[1]):
            return v
    raise ValueError(f"{triple} is not an induced path")


def find_3ec_reference(graph: Graph, v: int) -> list[ExceptionalConfiguration]:
    """find_3ec's first form, pair by pair over v's neighbors with has_edge and
    Python sets: triangles, then the paths a-v-c, then v-b-c, sorted by kind
    (triangles first) and vertex tuple. The array form must list the same."""
    deg = graph.degree
    found: list[ExceptionalConfiguration] = []
    nbrs = [int(w) for w in graph.neighbors(v)]
    for i, a in enumerate(nbrs):
        for c in nbrs[i + 1 :]:
            if graph.has_edge(a, c):
                found.append(ExceptionalConfiguration(tuple(sorted((v, a, c))), ECKind.EC3_TRIANGLE, v))
            elif deg(a) + deg(c) == deg(v):
                # v is the middle of the induced path a-v-c
                found.append(ExceptionalConfiguration(tuple(sorted((v, a, c))), ECKind.EC3_PATH, v))
    near = {v, *nbrs}
    for b in nbrs:
        for c in graph.neighbors(b).tolist():
            if c not in near and deg(b) == deg(v) + deg(c):
                found.append(ExceptionalConfiguration(tuple(sorted((v, b, c))), ECKind.EC3_PATH, v))
    found.sort(key=lambda ec: (ec.kind != ECKind.EC3_TRIANGLE, ec.vertices))
    return found


def brute_force_ecs(graph: Graph, v: int) -> set:
    """All exceptional 2- and 3-subsets containing v, found by enumeration.

    Returns {(vertices tuple, kind string)} with the same kind labels the
    enumerators use.
    """
    out = set()
    others = [u for u in range(graph.n) if u != v]
    for u in others:
        verts = (min(u, v), max(u, v))
        if graph.has_edge(u, v) and exceptional_by_definition(graph, verts):
            out.add((verts, "2ec_path"))
    for pair in itertools.combinations(others, 2):
        verts = tuple(sorted((v,) + pair))
        if not subset_is_connected(graph, verts):
            continue
        if not exceptional_by_definition(graph, verts):
            continue
        shape = classify_triple(graph, verts)
        if shape == "triangle":
            out.add((verts, "3ec_triangle"))
        elif shape == "path":
            out.add((verts, "3ec_path"))
    return out


# ------------------------------------------------- stationary-state witness


def index_of(space, first, second) -> np.ndarray:
    """Positions of the arcs (first, second) in `space`; raises KeyError if any is absent."""
    pos = np.empty(np.broadcast(first, second).shape, dtype=np.int64)
    for i, (v, w) in enumerate(np.broadcast(first, second)):
        lo, hi = (space.indptr[v], space.indptr[v + 1]) if 0 <= v < space.n else (0, 0)
        k = lo + int(space.second[lo:hi].searchsorted(w))
        if k == hi or space.second[k] != w:
            raise KeyError(f"arc ({v}, {w}) not in pair space")
        pos.flat[i] = k
    return pos


def stationary_witness(graph: Graph, H, space) -> tuple[np.ndarray, float]:
    """Candidate +1 eigenvector of the search step marking H, and its residual.

    On `space`'s arcs, x is 1 on every arc not inside H.
    On each edge {a, b} inside H it takes one symmetric value, solved by
    least squares from sum_{v' in H, v' ~ v} x(v, v') = h_v - d_v at every v
    in H (h_v: v's degree inside H, d_v: its degree in the graph). The
    residual, max |A x - b| of that |H| x |E_H| system, is 0 exactly when H
    is exceptional: H non-bipartite, or bipartite with equal degree sums.
    """
    verts = sorted({int(v) for v in H})
    row = {v: i for i, v in enumerate(verts)}
    edges = [(a, b) for a, b in itertools.combinations(verts, 2) if graph.has_edge(a, b)]
    A = np.zeros((len(verts), len(edges)))
    for e, (a, b) in enumerate(edges):
        A[row[a], e] = A[row[b], e] = 1.0
    rhs = A.sum(axis=1) - np.array([graph.degree(v) for v in verts], dtype=np.float64)
    x = np.linalg.lstsq(A, rhs, rcond=None)[0]
    amps = np.ones(space.size)
    for e, (a, b) in enumerate(edges):
        amps[index_of(space, [a, b], [b, a])] = x[e]
    return amps, float(np.max(np.abs(A @ x - rhs)))


# ----------------------------------------------------------- optimizer oracle

def brute_force_optimum(trace: np.ndarray, t_pen: int) -> tuple[int, float]:
    """Exhaustive argmin of (t + t_pen)/p(t) over the supplied trace."""
    best_t, best_T = None, np.inf
    for t, p in enumerate(trace):
        if p > 0:
            T = (t + t_pen) / p
            if T < best_T:
                best_t, best_T = t, T
    return best_t, best_T


# ------------------------------------------------------------- small graphs

def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])
