import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from consensus_lab.graphs import (
    WeightedDigraph,
    adjacency_matrix,
    algebraic_connectivity,
    circulant_graph,
    edge_connectivity,
    graph_from_json,
    graph_to_json,
    in_neighbors,
    is_connected,
    laplacian,
    union_graph,
    weak_components,
)

from gen import brute_components, brute_reachable, digraphs, undirected_graphs


def two_node():
    return WeightedDigraph(2, [(0, 1, 1.0), (1, 0, 1.0)], undirected=True)


def single_edge_family(n=10):
    """Ten one-edge graphs whose union is the n-cycle."""
    return [
        WeightedDigraph.undirected(n, [(b, (b + 1) % n)]) for b in range(n)
    ]


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedDigraph(3, [(1, 1, 1.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            WeightedDigraph(3, [(0, 1, 0.0)])
        with pytest.raises(ValueError):
            WeightedDigraph(3, [(0, 1, -2.0)])
        for w in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"edge \\(0,1\\) has non-finite weight {w}"):
                WeightedDigraph(3, [(0, 1, w)])
            with pytest.raises(ValueError, match="non-finite weight"):
                WeightedDigraph(3, [(0, 1, w), (1, 0, w)], undirected=True)

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            WeightedDigraph(3, [(0, 3, 1.0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            WeightedDigraph(3, [(0, 1, 1.0), (0, 1, 2.0)])

    def test_undirected_flag_demands_symmetry(self):
        with pytest.raises(ValueError):
            WeightedDigraph(3, [(0, 1, 1.0)], undirected=True)
        with pytest.raises(ValueError):
            WeightedDigraph(3, [(0, 1, 1.0), (1, 0, 2.0)], undirected=True)

    def test_undirected_helper_mirrors(self):
        g = WeightedDigraph.undirected(3, [(0, 2)])
        assert g.undirected
        assert set(g.edges) == {(0, 2, 1.0), (2, 0, 1.0)}


class TestAdjacency:
    def test_two_node_undirected(self):
        A = adjacency_matrix(two_node())
        assert A.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_empty_graph(self):
        A = adjacency_matrix(WeightedDigraph(3, []))
        assert A.tolist() == [[0.0] * 3] * 3

    def test_directed_edge_feeds_target_row(self):
        # edge 0 -> 1 with weight 2.5 makes a_{10} = 2.5: the entry sits in
        # the in-neighborhood row of the target
        A = adjacency_matrix(WeightedDigraph(2, [(0, 1, 2.5)]))
        assert A.tolist() == [[0.0, 0.0], [2.5, 0.0]]


class TestLaplacian:
    def test_two_node_undirected(self):
        Q = laplacian(two_node())
        assert Q.tolist() == [[1.0, -1.0], [-1.0, 1.0]]

    def test_empty_graph(self):
        Q = laplacian(WeightedDigraph(3, []))
        assert not Q.any()

    def test_c4_circulant(self):
        Q = laplacian(circulant_graph(4, {1}))
        expect = np.array(
            [
                [2.0, -1.0, 0.0, -1.0],
                [-1.0, 2.0, -1.0, 0.0],
                [0.0, -1.0, 2.0, -1.0],
                [-1.0, 0.0, -1.0, 2.0],
            ]
        )
        assert np.array_equal(Q, expect)

    @settings(max_examples=100)
    @given(digraphs())
    def test_row_sums_exactly_zero(self, g):
        Q = laplacian(g)
        ones = np.ones(g.n)
        assert np.all(Q.sum(axis=1) == 0.0)
        assert np.all(Q @ ones == 0.0)

    @settings(max_examples=50)
    @given(undirected_graphs())
    def test_undirected_symmetric_psd(self, g):
        Q = laplacian(g)
        assert np.array_equal(Q, Q.T)
        assert np.linalg.eigvalsh(Q).min() >= -1e-9


class TestInNeighbors:
    def test_directed_path(self):
        g = WeightedDigraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert in_neighbors(g, 1) == {0}
        assert in_neighbors(g, 0) == set()

    def test_triangle(self):
        g = WeightedDigraph.undirected(3, [(0, 1), (1, 2), (0, 2)])
        assert in_neighbors(g, 2) == {0, 1}

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            in_neighbors(two_node(), 2)


class TestIsConnected:
    def test_directed_path_counts(self):
        # one-way paths satisfy the unilateral definition
        assert is_connected(WeightedDigraph(3, [(0, 1, 1.0), (1, 2, 1.0)]))

    def test_two_disjoint_edges(self):
        g = WeightedDigraph.undirected(4, [(0, 1), (2, 3)])
        assert not is_connected(g)

    def test_single_edge_member_disconnected(self):
        assert not is_connected(single_edge_family()[1])

    def test_single_vertex(self):
        assert is_connected(WeightedDigraph(1, []))

    def test_unilateral_not_bilateral(self):
        # 0 -> 1 <- 2: every pair has a path one way or the other
        g = WeightedDigraph(3, [(0, 1, 1.0), (2, 1, 1.0)])
        assert not is_connected(g)  # 0 and 2 see each other in no direction


class TestWeakComponents:
    def test_two_triangles(self):
        g = WeightedDigraph.undirected(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        comps = weak_components(g)
        assert sorted(map(sorted, comps)) == [[0, 1, 2], [3, 4, 5]]

    def test_connected_graph_one_block(self):
        assert len(weak_components(circulant_graph(7, {1}))) == 1

    def test_single_edge_member(self):
        comps = weak_components(single_edge_family()[1])
        sizes = sorted(len(c) for c in comps)
        assert len(comps) == 9
        assert sizes == [1] * 8 + [2]

    @settings(max_examples=100)
    @given(digraphs())
    def test_matches_brute_force(self, g):
        got = {frozenset(c) for c in weak_components(g)}
        assert got == brute_components(g)

    @settings(max_examples=100)
    @given(undirected_graphs())
    def test_connected_iff_one_block(self, g):
        assert is_connected(g) == (len(weak_components(g)) == 1)


class TestUnionGraph:
    def test_single_edge_family_unions_to_cycle(self):
        u = union_graph(single_edge_family())
        assert u == circulant_graph(10, {1})
        assert is_connected(u)

    def test_idempotent(self):
        g = circulant_graph(5, {1, 2})
        assert union_graph([g, g]) == g

    def test_disjoint_edges_union_to_path(self):
        g1 = WeightedDigraph.undirected(4, [(0, 1), (2, 3)])
        g2 = WeightedDigraph.undirected(4, [(1, 2)])
        u = union_graph([g1, g2])
        assert u == WeightedDigraph.undirected(4, [(0, 1), (1, 2), (2, 3)])

    def test_repeated_edge_takes_max_weight(self):
        g1 = WeightedDigraph(2, [(0, 1, 1.0)])
        g2 = WeightedDigraph(2, [(0, 1, 3.0)])
        u = union_graph([g1, g2])
        assert u.edges == ((0, 1, 3.0),)

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError):
            union_graph([two_node(), circulant_graph(4, {1})])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            union_graph([])

    @settings(max_examples=50)
    @given(undirected_graphs(max_n=6), st.data())
    def test_order_independent(self, g, data):
        others = data.draw(
            st.lists(undirected_graphs(min_n=g.n, max_n=g.n), min_size=1, max_size=3)
        )
        gs = [g] + others
        perm = data.draw(st.permutations(gs))
        assert union_graph(gs) == union_graph(perm)


class TestAlgebraicConnectivity:
    def test_circulant_formula(self):
        for n in range(3, 51):
            lam = algebraic_connectivity(circulant_graph(n, {1}))
            assert abs(lam - (2 - 2 * math.cos(2 * math.pi / n))) < 1e-9

    def test_complete_k3(self):
        g = WeightedDigraph.undirected(3, [(0, 1), (1, 2), (0, 2)])
        assert abs(algebraic_connectivity(g) - 3.0) < 1e-9

    def test_disconnected_is_zero(self):
        g = WeightedDigraph.undirected(4, [(0, 1), (2, 3)])
        assert algebraic_connectivity(g) <= 1e-9

    def test_directed_rejected(self):
        with pytest.raises(ValueError):
            algebraic_connectivity(WeightedDigraph(2, [(0, 1, 1.0)]))

    @settings(max_examples=60)
    @given(undirected_graphs())
    def test_positive_iff_connected(self, g):
        lam = algebraic_connectivity(g)
        assert lam >= 0.0
        assert (lam > 1e-6) == is_connected(g)


class TestEdgeConnectivity:
    def test_cycle_c5(self):
        assert edge_connectivity(circulant_graph(5, {1})) == 2

    def test_path_of_three(self):
        g = WeightedDigraph.undirected(3, [(0, 1), (1, 2)])
        assert edge_connectivity(g) == 1

    def test_complete_k4(self):
        g = WeightedDigraph.undirected(
            4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        )
        assert edge_connectivity(g) == 3

    def test_disconnected_is_zero(self):
        g = WeightedDigraph.undirected(4, [(0, 1), (2, 3)])
        assert edge_connectivity(g) == 0

    def test_size_guard(self):
        with pytest.raises(ValueError):
            edge_connectivity(circulant_graph(13, {1}))

    def test_directed_rejected(self):
        with pytest.raises(ValueError):
            edge_connectivity(WeightedDigraph(2, [(0, 1, 1.0)]))

    @settings(max_examples=40)
    @given(undirected_graphs(max_n=7, unit_weights=True))
    def test_fiedler_bound(self, g):
        # lambda2 <= kappa1 holds for incomplete graphs; K_n has
        # lambda2 = n > kappa1 = n-1
        assume(len(g.edges) < g.n * (g.n - 1))
        assert algebraic_connectivity(g) <= edge_connectivity(g) + 1e-9


class TestCirculant:
    def test_n10_offset1_is_cycle(self):
        g = circulant_graph(10, {1})
        assert g.n == 10 and g.undirected
        assert len(g.edges) == 20  # both directions of 10 edges

    def test_n25_lambda2(self):
        lam = algebraic_connectivity(circulant_graph(25, {1}))
        assert abs(lam - (2 - 2 * math.cos(2 * math.pi / 25))) < 1e-9
        assert abs(lam - 0.0628) < 1e-4

    def test_antipodal_matching_disconnected(self):
        g = circulant_graph(4, {2})
        assert not is_connected(g)
        assert len(g.edges) == 4  # two undirected edges

    def test_offset_out_of_range(self):
        with pytest.raises(ValueError):
            circulant_graph(10, {6})
        with pytest.raises(ValueError):
            circulant_graph(10, {0})


class TestJson:
    def test_round_trip_undirected(self):
        g = circulant_graph(6, {1, 2})
        assert graph_from_json(graph_to_json(g)) == g

    def test_round_trip_directed(self):
        g = WeightedDigraph(4, [(0, 1, 1.5), (2, 0, 0.25)])
        assert graph_from_json(graph_to_json(g)) == g

    def test_undirected_rows_stored_once(self):
        obj = graph_to_json(two_node())
        assert obj == {"n": 2, "undirected": True, "edges": [[0, 1, 1.0]]}
