"""Tests for simple-path counting and the walks-vs-paths fidelity claim."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import toy
from repro.errors import GraphError
from repro.graphs.generators import erdos_renyi_gnp
from repro.graphs.paths import simple_path_counts, walks_equal_simple_paths_on_candidates
from repro.graphs.traversal import walk_counts


class TestSimplePathCounts:
    def test_path_graph(self):
        g = toy.path(3)  # 0-1-2-3
        counts = simple_path_counts(g, 0, 3)
        assert counts[0][1] == 1
        assert counts[1][2] == 1
        assert counts[2][3] == 1
        # Unlike walks, no 0-1-0 backtracking: node 1 has no simple 3-path.
        assert counts[2][1] == 0

    def test_triangle_counts(self):
        g = toy.triangle_with_tail()
        counts = simple_path_counts(g, 0, 2)
        # Simple 2-paths from 0: 0-1-2 and 0-2-1, 0-2-3.
        assert counts[1][2] == 1
        assert counts[1][1] == 1
        assert counts[1][3] == 1

    def test_invalid_length(self):
        with pytest.raises(GraphError):
            simple_path_counts(toy.star(2), 0, 0)

    def test_walks_upper_bound_simple_paths(self):
        g = erdos_renyi_gnp(15, 0.3, seed=0)
        walks = walk_counts(g, 0, 3)
        simple = simple_path_counts(g, 0, 3)
        for length in range(3):
            assert np.all(walks[length] >= simple[length] - 1e-9)


class TestWalksEqualSimplePathsOnCandidates:
    """The fidelity claim justifying adjacency-power scoring (module doc)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_length_2_and_3_coincide_on_candidates(self, seed):
        g = erdos_renyi_gnp(18, 0.25, seed=seed)
        for length in (2, 3):
            assert walks_equal_simple_paths_on_candidates(g, 0, length)

    def test_directed_graph(self):
        g = erdos_renyi_gnp(15, 0.2, directed=True, seed=7)
        assert walks_equal_simple_paths_on_candidates(g, 0, 3)

    def test_divergence_at_length_4(self):
        """At length 4 walks genuinely overcount (r-a-b-a-i etc.), so the
        claim is specific to the paper's length <= 3 truncation."""
        diverged = False
        for seed in range(10):
            g = erdos_renyi_gnp(14, 0.3, seed=seed)
            if not walks_equal_simple_paths_on_candidates(g, 0, 4):
                diverged = True
                break
        assert diverged

    def test_divergence_on_neighbors(self):
        """For *neighbors* of the source (not candidates) length-3 walks
        include degenerate r-a-r-i trips, so restricting to candidates is
        essential to the claim."""
        g = toy.triangle_with_tail()
        walks = walk_counts(g, 0, 3)[2]
        simple = simple_path_counts(g, 0, 3)[2]
        neighbors = sorted(g.neighbors(0))
        assert any(walks[n] > simple[n] for n in neighbors)
