"""Shared hypothesis strategies, brute-force reference oracles and checks."""

import os

import numpy as np
import pytest
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


@st.composite
def block_chains(draw, max_blocks=6, max_size=5):
    """Digraphs of up to max_blocks strongly connected blocks of up to
    max_size vertices laid in a chain, so up to 30 vertices and often many
    strong components. Each block is a directed cycle with random chords.
    Consecutive blocks are joined by an arc forward, by one backward or not
    at all, random forward arcs skip blocks, and the vertices are relabelled
    by a random permutation."""
    sizes = draw(st.lists(st.integers(1, max_size), min_size=1, max_size=max_blocks))
    starts = [sum(sizes[:b]) for b in range(len(sizes) + 1)]

    def vertex(b):
        return draw(st.integers(starts[b], starts[b + 1] - 1))

    arcs = set()
    for b, size in enumerate(sizes):
        first = starts[b]
        if size > 1:
            arcs.update((first + v, first + (v + 1) % size) for v in range(size))
        arcs.update((vertex(b), vertex(b)) for _ in range(draw(st.integers(0, size))))
    for b in range(len(sizes) - 1):
        link = draw(st.sampled_from(("forward", "backward", "absent")))
        if link != "absent":
            i, j = vertex(b), vertex(b + 1)
            arcs.add((i, j) if link == "forward" else (j, i))
    for _ in range(draw(st.integers(0, max(len(sizes) - 2, 0)))):
        b = draw(st.integers(0, len(sizes) - 3))
        arcs.add((vertex(b), vertex(draw(st.integers(b + 2, len(sizes) - 1)))))
    label = draw(st.permutations(range(starts[-1])))
    return WeightedDigraph(
        starts[-1], [(label[i], label[j], 1.0) for i, j in sorted(arcs) if i != j]
    )


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


def assert_no_child():
    """Every child process this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def divisors(m):
    """The positive divisors of m, in increasing order: the block sizes
    that put a block edge on step m."""
    return [d for d in range(1, m + 1) if m % d == 0]


def full_size_sweeps():
    """Calibrated sweeps of both benchmark experiments over the full size
    grid at dt = 1e-4, each a dict of its rows by (n, direction)."""
    from consensus_lab.benchmark import run_experiment

    sweeps = {}
    for experiment in (1, 2):
        rows, _ = run_experiment(experiment, [25, 50, 100, 200], dt=1e-4)
        sweeps[experiment] = {(r.n, r.direction): r for r in rows}
    return sweeps


# the CPU features whose numpy kernels a child process turns off, through
# NPY_DISABLE_CPU_FEATURES, to check that some bits do not depend on them
AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")


def dispatches_avx512():
    """Whether numpy dispatches the AVX512 kernels on this machine."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return all(__cpu_features__.get(name) for name in AVX512)
