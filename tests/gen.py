"""Shared hypothesis strategies and brute-force reference oracles."""

import numpy as np
from hypothesis import strategies as st

from consensus_lab.graphs import WeightedDigraph

# Multiples of 0.25 are exact in binary, so Laplacian row sums cancel exactly
# in any summation order (see the laplacian tests).
DYADIC_WEIGHTS = tuple(0.25 * k for k in range(1, 17))


@st.composite
def undirected_graphs(draw, min_n=2, max_n=8, unit_weights=False, p_edge=0.5):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = []
    for (i, j), k in zip(pairs, keep):
        if not k:
            continue
        w = 1.0 if unit_weights else draw(st.sampled_from(DYADIC_WEIGHTS))
        edges.append((i, j, w))
        edges.append((j, i, w))
    return WeightedDigraph(n, edges, undirected=True)


# Arbitrary positive weights, mostly not dyadic, for properties that must
# hold in any summation order.
ANY_WEIGHTS = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def digraphs(draw, min_n=2, max_n=8, weights=st.sampled_from(DYADIC_WEIGHTS)):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [
        (i, j, draw(weights))
        for (i, j), k in zip(pairs, keep)
        if k
    ]
    return WeightedDigraph(n, edges)


def random_undirected(rng, n, p_edge=0.5, unit_weights=True):
    """numpy-seeded counterpart of undirected_graphs for fixed-count sweeps."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                w = 1.0 if unit_weights else float(rng.integers(1, 9)) * 0.25
                edges.append((i, j, w))
                edges.append((j, i, w))
    return WeightedDigraph(n, edges, undirected=True)


def brute_reachable(g):
    """Boolean reachability by breadth-first search over the directed edges."""
    n = g.n
    out = [[] for _ in range(n)]
    for i, j, _ in g.edges:
        out[i].append(j)
    reach = np.zeros((n, n), dtype=bool)
    for s in range(n):
        stack = [s]
        reach[s, s] = True
        while stack:
            v = stack.pop()
            for w in out[v]:
                if not reach[s, w]:
                    reach[s, w] = True
                    stack.append(w)
    return reach


def brute_components(g):
    """Components of the symmetrized graph, as a set of frozensets."""
    sym = brute_reachable(g)
    both = sym | sym.T
    # mutual reachability in the symmetrized graph = reachability in either
    # direction closed transitively; iterate a few times to close it
    n = g.n
    closed = both.copy()
    for _ in range(n):
        closed = closed | (closed @ closed)
    comps = set()
    for v in range(n):
        comps.add(frozenset(np.nonzero(closed[v])[0].tolist()))
    return comps
