"""Weighted digraphs with the spectral and connectivity machinery.

Conventions. An edge (i, j, w) points i -> j and carries weight a_ji = w,
so the adjacency entry A[i, j] holds the weight of edge (j, i): row i of A
lists the in-neighborhood of vertex i. Undirected graphs store both
directions explicitly with equal weights. Graphs are immutable after
construction; derived structures are cached on the instance. The edge
arrays (src, dst, w) are how a graph acts on a state; the dense adjacency
and Laplacian serve only the public matrix and spectral functions.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from .io import json_field


class WeightedDigraph:
    """Immutable weighted digraph on vertices 0..n-1."""

    def __init__(self, n, edges, undirected=False):
        if n < 1:
            raise ValueError("vertex count must be positive")
        canon = []
        seen = set()
        for i, j, w in edges:
            i, j, w = int(i), int(j), float(w)
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            if w <= 0.0:
                raise ValueError(f"edge ({i},{j}) has nonpositive weight {w}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
            canon.append((i, j, w))
        canon.sort()
        if undirected:
            by_pair = {(i, j): w for i, j, w in canon}
            for (i, j), w in by_pair.items():
                if by_pair.get((j, i)) != w:
                    raise ValueError(
                        f"undirected flag set but edge ({i},{j}) has no "
                        "mirror of equal weight"
                    )
        self.n = n
        self.edges = tuple(canon)
        self.undirected = bool(undirected)

    @classmethod
    def undirected(cls, n, pairs, weight=1.0):
        """Build an undirected graph from (i, j) pairs or (i, j, w) triples."""
        edges = []
        for p in pairs:
            if len(p) == 2:
                i, j, w = p[0], p[1], weight
            else:
                i, j, w = p
            edges.append((i, j, w))
            edges.append((j, i, w))
        return cls(n, edges, undirected=True)

    def __eq__(self, other):
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.undirected == other.undirected
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.undirected, self.edges))

    def __repr__(self):
        kind = "undirected" if self.undirected else "directed"
        return f"WeightedDigraph(n={self.n}, {len(self.edges)} {kind} edges)"

    # cached derived structures; instances are treated as immutable

    @cached_property
    def _adjacency(self):
        A = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            A[j, i] = w
        return A

    @cached_property
    def _laplacian(self):
        A = self._adjacency
        # d_i is the exact float row sum so each row of Q cancels to zero
        return np.diag(A.sum(axis=1)) - A

    @cached_property
    def _edge_arrays(self):
        if not self.edges:
            z = np.zeros(0, dtype=np.intp)
            return z, z, np.zeros(0)
        src, dst, w = zip(*self.edges)
        return (
            np.array(src, dtype=np.intp),
            np.array(dst, dtype=np.intp),
            np.array(w),
        )

    @cached_property
    def _reachability(self):
        out = [[] for _ in range(self.n)]
        for i, j, _ in self.edges:
            out[i].append(j)
        reach = np.zeros((self.n, self.n), dtype=bool)
        for s in range(self.n):
            reach[s, s] = True
            stack = [s]
            while stack:
                v = stack.pop()
                for t in out[v]:
                    if not reach[s, t]:
                        reach[s, t] = True
                        stack.append(t)
        return reach


def adjacency_matrix(g):
    """A[i, j] = weight of edge (j, i), zero when absent."""
    return g._adjacency


def laplacian(g):
    """Q = diag(row sums of A) - A; rows sum to zero by construction."""
    return g._laplacian


def in_neighbors(g, i):
    """Vertices j with an edge j -> i."""
    if not (0 <= i < g.n):
        raise IndexError(f"vertex {i} out of range for n={g.n}")
    return {s for s, t, _ in g.edges if t == i}


def is_connected(g):
    """Unilateral connectivity: every pair joined by a path one way or the other."""
    r = g._reachability
    return bool(np.all(r | r.T))


def _component_roots(n, pairs):
    """Each vertex's component root once every pair is joined (union-find)."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return [find(v) for v in range(n)]


def weak_components(g):
    """Partition into components of the symmetrized graph."""
    blocks = {}
    for v, root in enumerate(_component_roots(g.n, ((i, j) for i, j, _ in g.edges))):
        blocks.setdefault(root, []).append(v)
    return sorted(blocks.values())


def union_graph(gs):
    """Edgewise union; repeated edges keep the maximum weight."""
    gs = list(gs)
    if not gs:
        raise ValueError("union of an empty graph list")
    n = gs[0].n
    if any(g.n != n for g in gs):
        raise ValueError("union over graphs with mismatched vertex counts")
    best = {}
    for g in gs:
        for i, j, w in g.edges:
            if best.get((i, j), 0.0) < w:
                best[(i, j)] = w
    edges = [(i, j, w) for (i, j), w in best.items()]
    return WeightedDigraph(n, edges, undirected=all(g.undirected for g in gs))


def algebraic_connectivity(g):
    """Second-smallest Laplacian eigenvalue; undirected graphs only."""
    if not g.undirected:
        raise ValueError("algebraic connectivity is defined for undirected graphs")
    if g.n < 2:
        raise ValueError("need at least two vertices")
    lam = np.linalg.eigvalsh(g._laplacian)
    return max(float(lam[1]), 0.0)


def edge_connectivity(g):
    """Minimum number of undirected edges whose removal disconnects g.

    Brute force over removal subsets in increasing size, so it terminates at
    the true minimum; guarded to n <= 12 because it only serves as an oracle
    against lambda_2.
    """
    if not g.undirected:
        raise ValueError("edge connectivity is defined for undirected graphs")
    if g.n > 12:
        raise ValueError("edge_connectivity is brute force; n <= 12 only")
    pairs = sorted({(min(i, j), max(i, j)) for i, j, _ in g.edges})

    def n_components(removed):
        return len(set(_component_roots(g.n, (p for p in pairs if p not in removed))))

    base = n_components(frozenset())
    if base > 1:
        return 0
    for k in range(1, len(pairs) + 1):
        for combo in itertools.combinations(pairs, k):
            if n_components(frozenset(combo)) > base:
                return k
    return len(pairs)


def circulant_graph(n, offsets, weight=1.0):
    """Undirected circulant: edges {i, (i+h) mod n} for each offset h."""
    if n < 2:
        raise ValueError("need at least two vertices")
    pairs = set()
    for h in offsets:
        if not (1 <= h <= n // 2):
            raise ValueError(f"offset {h} outside 1..{n // 2}")
        for i in range(n):
            a, b = i, (i + h) % n
            pairs.add((min(a, b), max(a, b)))
    return WeightedDigraph.undirected(n, sorted(pairs), weight=weight)


def graph_to_json(g):
    """JSON object {"n", "undirected", "edges"}; undirected edges appear once."""
    if g.undirected:
        rows = sorted({(min(i, j), max(i, j), w) for i, j, w in g.edges})
    else:
        rows = list(g.edges)
    return {
        "n": g.n,
        "undirected": g.undirected,
        "edges": [[i, j, w] for i, j, w in rows],
    }


def graph_from_json(obj):
    n = json_field(obj, "n", "integer", "graph")
    undirected = json_field(obj, "undirected", "boolean", "graph")
    edges = []
    for e in json_field(obj, "edges", "array", "graph"):
        if not isinstance(e, list) or len(e) != 3:
            raise ValueError(f"graph edge {e!r} is not a [from, to, weight] array")
        i, j = (json_field(v, None, "integer", "graph edge vertex") for v in e[:2])
        w = json_field(e[2], None, "number", "graph edge weight")
        edges.append((i, j, w))
        if undirected:
            edges.append((j, i, w))
    return WeightedDigraph(n, edges, undirected=undirected)
