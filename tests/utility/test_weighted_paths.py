"""Tests for the weighted-paths (truncated Katz) utility function."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import toy
from repro.errors import UtilityError
from repro.graphs.generators import erdos_renyi_gnp
from repro.graphs.traversal import batch_walk_matrices
from repro.utility.common_neighbors import CommonNeighbors
from repro.utility.weighted_paths import WeightedPaths
from tests.conftest import make_vector


class TestConstruction:
    def test_defaults_match_paper(self):
        wp = WeightedPaths()
        assert wp.max_length == 3  # footnote 10 truncation
        assert wp.gamma == 0.005

    @pytest.mark.parametrize("gamma", [-0.1, float("nan"), float("inf")])
    def test_invalid_gamma(self, gamma):
        with pytest.raises(UtilityError):
            WeightedPaths(gamma=gamma)

    def test_invalid_max_length(self):
        with pytest.raises(UtilityError):
            WeightedPaths(max_length=1)


class TestScores:
    def test_reduces_to_common_neighbors_at_gamma_zero(self, example_graph):
        wp_scores = WeightedPaths(gamma=0.0).scores(example_graph, 0)
        cn_scores = CommonNeighbors().scores(example_graph, 0)
        np.testing.assert_allclose(wp_scores, cn_scores)

    def test_gamma_weights_length_three_walks(self):
        g = toy.path(3)  # 0-1-2-3
        gamma = 0.01
        scores = WeightedPaths(gamma=gamma).scores(g, 0)
        assert scores[2] == 1.0          # one 2-walk
        assert scores[3] == gamma * 1.0  # one 3-walk
        assert scores[1] == gamma * 2.0  # 3-walks 0-1-0-1 and 0-1-2-1

    def test_longer_truncation_adds_terms(self):
        g = toy.path(4)  # 0-1-2-3-4
        short = WeightedPaths(gamma=0.1, max_length=3).scores(g, 0)
        long = WeightedPaths(gamma=0.1, max_length=4).scores(g, 0)
        assert long[4] > short[4]  # node 4 only reachable by a 4-walk
        assert short[4] == 0.0

    def test_directed_scores(self, directed_graph):
        scores = WeightedPaths(gamma=0.5).scores(directed_graph, 0)
        assert scores[5] == 4.0  # four 2-walks, no 3-walks to the sink

    def test_monotone_in_gamma(self, random_graph):
        low = WeightedPaths(gamma=0.001).scores(random_graph, 0)
        high = WeightedPaths(gamma=0.01).scores(random_graph, 0)
        assert np.all(high >= low - 1e-12)


class TestSensitivity:
    def test_gamma_increases_sensitivity(self, random_graph):
        """The paper: 'for higher gamma, the utility function has a higher
        sensitivity, and hence worse accuracy'."""
        low = WeightedPaths(gamma=0.0005).sensitivity(random_graph, 0)
        high = WeightedPaths(gamma=0.05).sensitivity(random_graph, 0)
        assert high > low

    def test_reduces_to_cn_sensitivity_at_gamma_zero(self, random_graph):
        assert WeightedPaths(gamma=0.0).sensitivity(random_graph, 0) == 2.0

    def test_closed_form_l3(self, random_graph):
        gamma = 0.01
        d_max = random_graph.max_degree()
        expected = 2.0 + 4.0 * gamma * (d_max + 1)
        assert np.isclose(WeightedPaths(gamma=gamma).sensitivity(random_graph, 0), expected)

    def test_analytic_dominates_observed_flips(self):
        utility = WeightedPaths(gamma=0.01)
        for seed in range(3):
            g = erdos_renyi_gnp(20, 0.25, seed=seed)
            target = 0
            bound = utility.sensitivity(g, target)
            base = utility.scores(g, target)
            rng = np.random.default_rng(seed)
            for _ in range(15):
                u, v = int(rng.integers(0, 20)), int(rng.integers(0, 20))
                if u == v or target in (u, v):
                    continue
                flipped = g.without_edge(u, v) if g.has_edge(u, v) else g.with_edge(u, v)
                perturbed = utility.scores(flipped, target)
                mask = np.arange(20) != target
                l1 = float(np.abs(perturbed[mask] - base[mask]).sum())
                assert l1 <= bound + 1e-9


class TestExperimentalT:
    def test_floor_plus_two(self):
        vector = make_vector([3.7, 0.5])
        assert WeightedPaths().experimental_t(vector) == 5

    def test_integer_umax(self):
        vector = make_vector([4.0, 1.0])
        assert WeightedPaths().experimental_t(vector) == 6


class TestBatchScores:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("gamma", [0.0, 0.005, 0.05])
    def test_batch_rows_bit_identical_to_scores(self, directed, gamma):
        g = erdos_renyi_gnp(30, 0.15, directed=directed, seed=21)
        utility = WeightedPaths(gamma=gamma)
        targets = np.arange(0, 30, 4)
        matrix = utility.batch_scores(g, targets)
        for row, target in enumerate(targets):
            assert np.array_equal(matrix[row], utility.scores(g, int(target)))

    def test_combine_reuses_gamma_independent_walk_matrices(self):
        g = erdos_renyi_gnp(20, 0.2, seed=5)
        targets = np.asarray([0, 3, 9])
        matrices = batch_walk_matrices(g, targets, max_length=3)
        for gamma in (0.0005, 0.05):
            utility = WeightedPaths(gamma=gamma)
            recombined = utility.combine_walk_matrices(matrices, targets)
            assert np.array_equal(recombined, utility.batch_scores(g, targets))

    def test_combine_requires_enough_lengths(self):
        g = erdos_renyi_gnp(10, 0.3, seed=6)
        targets = np.asarray([0])
        matrices = batch_walk_matrices(g, targets, max_length=2)
        with pytest.raises(UtilityError):
            WeightedPaths(gamma=0.01, max_length=4).combine_walk_matrices(
                matrices, targets
            )
