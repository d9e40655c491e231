"""Tests for BFS, k-hop neighborhoods, and walk counting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import toy
from repro.errors import GraphError
from repro.graphs.generators import erdos_renyi_gnp
from repro.graphs.graph import SocialGraph
from repro.graphs.traversal import (
    bfs_distances,
    connected_component,
    count_paths_up_to,
    k_hop_neighborhood,
    two_hop_counts,
    walk_counts,
)


class TestBfs:
    def test_distances_on_path(self):
        g = toy.path(4)
        distances = bfs_distances(g, 0)
        assert distances == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_max_depth_truncates(self):
        g = toy.path(4)
        distances = bfs_distances(g, 0, max_depth=2)
        assert distances == {0: 0, 1: 1, 2: 2}

    def test_directed_follows_out_edges(self):
        g = SocialGraph.from_edges([(0, 1), (2, 1)], num_nodes=3, directed=True)
        assert bfs_distances(g, 0) == {0: 0, 1: 1}

    def test_unreachable_nodes_absent(self, example_graph):
        distances = bfs_distances(example_graph, 0)
        assert 8 not in distances  # far component

    def test_connected_component(self, example_graph):
        component = connected_component(example_graph, 8)
        assert component == {8, 9}


class TestKHop:
    def test_two_hop_of_star_center_is_empty(self, star_graph):
        assert k_hop_neighborhood(star_graph, 0, 2) == frozenset()

    def test_two_hop_of_leaf_is_other_leaves(self, star_graph):
        assert k_hop_neighborhood(star_graph, 1, 2) == {2, 3, 4, 5}

    def test_zero_hop_is_source(self, triangle_graph):
        assert k_hop_neighborhood(triangle_graph, 0, 0) == {0}


class TestTwoHopCounts:
    def test_counts_equal_common_neighbors_undirected(self, example_graph):
        counts = two_hop_counts(example_graph, 0)
        # Node 4 shares neighbors 1 and 2 with target 0.
        assert counts[4] == 2
        assert counts[5] == 2
        assert counts[6] == 1
        assert 8 not in counts

    def test_counts_on_directed_fan(self, directed_graph):
        counts = two_hop_counts(directed_graph, 0)
        assert counts[5] == 4  # four walks 0 -> i -> 5

    def test_source_back_walks_counted(self, triangle_graph):
        counts = two_hop_counts(triangle_graph, 0)
        # 0-1-0 and 0-2-0 are length-2 walks back to the source.
        assert counts[0] == 2


class TestWalkCounts:
    def test_matches_matrix_powers(self, random_graph):
        source = 3
        counts = walk_counts(random_graph, source, 3)
        dense = random_graph.adjacency_matrix().toarray()
        power = np.eye(random_graph.num_nodes)
        for length in range(3):
            power = power @ dense
            np.testing.assert_allclose(counts[length], power[source])

    def test_rejects_zero_length(self, triangle_graph):
        with pytest.raises(GraphError):
            walk_counts(triangle_graph, 0, 0)

    def test_walks_on_path_graph(self):
        g = toy.path(3)  # 0-1-2-3
        counts = walk_counts(g, 0, 3)
        assert counts[0][1] == 1  # one 1-walk to node 1
        assert counts[1][2] == 1  # one 2-walk to node 2
        assert counts[2][3] == 1  # one 3-walk 0-1-2-3
        assert counts[2][1] == 2  # 0-1-0-1 and 0-1-2-1

    def test_directed_walks(self, directed_graph):
        counts = walk_counts(directed_graph, 0, 2)
        assert counts[1][5] == 4
        assert counts[0][5] == 0

    def test_count_paths_up_to_sums_lengths(self, random_graph):
        total = count_paths_up_to(random_graph, 0, 3)
        counts = walk_counts(random_graph, 0, 3)
        np.testing.assert_allclose(total, counts[1] + counts[2])


def test_walks_consistent_on_random_graphs():
    """Walk counting agrees with networkx adjacency powers on random inputs."""
    import networkx as nx

    for seed in range(3):
        g = erdos_renyi_gnp(25, 0.15, seed=seed)
        nxg = g.to_networkx()
        dense = nx.to_numpy_array(nxg, nodelist=sorted(nxg.nodes()))
        counts = walk_counts(g, 4, 3)
        np.testing.assert_allclose(counts[2], np.linalg.matrix_power(dense, 3)[4])


class TestSparseWalkRows:
    """Batched walk counts: ``A[targets]`` and repeated
    ``adjacency_product`` steps, the sparse rows weighted paths reads."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_per_source_walk_counts(self, directed):
        g = erdos_renyi_gnp(25, 0.15, directed=directed, seed=13)
        targets = np.arange(0, 25, 3)
        matrices = [g.adjacency_rows(targets)]
        for _ in range(2):
            matrices.append(g.adjacency_product(matrices[-1]))
        for row, source in enumerate(targets):
            counts = walk_counts(g, int(source), 3)
            for length_index in range(3):
                assert np.array_equal(
                    matrices[length_index][row].toarray().ravel(), counts[length_index]
                ), (source, length_index)

    def test_length_one_only(self):
        g = erdos_renyi_gnp(10, 0.3, seed=2)
        w1 = g.adjacency_rows([0, 4]).toarray()
        dense = g.adjacency_matrix().toarray()
        assert np.array_equal(w1, dense[[0, 4]])
        assert np.array_equal(w1[1], walk_counts(g, 4, 1)[0])

    def test_invalid_length_rejected(self):
        g = erdos_renyi_gnp(5, 0.5, seed=1)
        with pytest.raises(GraphError):
            walk_counts(g, 0, max_length=0)
