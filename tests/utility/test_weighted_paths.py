"""Tests for the weighted-paths (truncated Katz) utility function."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compute.kernels import excluded_rows
from repro.datasets import toy
from repro.errors import UtilityError
from repro.graphs.generators import erdos_renyi_gnp
from repro.graphs.graph import SocialGraph
from repro.streaming.overlay import MutableSocialGraph
from repro.utility.base import support_rows
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


def stacked_scores(utility, graph, targets) -> np.ndarray:
    return np.stack([utility.scores(graph, int(target)) for target in targets])


def support_dense(utility, graph, targets) -> np.ndarray:
    """``support_scores`` densified, each target's own entry zeroed as
    ``scores`` zeroes it (every consumer excludes the target)."""
    dense = utility.support_scores(graph, targets).toarray()
    dense[np.arange(len(targets)), targets] = 0.0
    return dense


def overlay_with_pending_edits(directed: bool) -> "tuple[MutableSocialGraph, SocialGraph]":
    """An overlay with uncompacted adds and removes, and its epoch base:
    removals cancel walks the base still counts."""
    rng = np.random.default_rng(31 + directed)
    base = erdos_renyi_gnp(40, 0.12, directed=directed, seed=17)
    graph = MutableSocialGraph.from_graph(base)
    removed = 0
    for u, v in list(base.edges())[::3]:
        graph.remove_edge(u, v)
        removed += 1
    added = 0
    while added < removed // 2:
        u, v = (int(x) for x in rng.integers(0, 40, 2))
        if u != v and graph.try_add_edge(u, v):
            added += 1
    assert graph.delta_size > 0
    return graph, base


class TestSupportScores:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("max_length", [2, 3, 4])
    @pytest.mark.parametrize("gamma", [0.0, 0.005, 1.0])
    def test_sparse_rows_bit_identical_to_scores(self, directed, max_length, gamma):
        g = erdos_renyi_gnp(30, 0.15, directed=directed, seed=21)
        utility = WeightedPaths(gamma=gamma, max_length=max_length)
        targets = np.arange(0, 30, 4)
        dense = support_dense(utility, g, targets)
        expected = stacked_scores(utility, g, targets)
        assert np.array_equal(dense.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("max_length", [2, 3, 4])
    @pytest.mark.parametrize("gamma", [0.0, 0.005, 1.0])
    def test_overlay_with_pending_edits(self, directed, max_length, gamma):
        """On a mutable overlay the walk rows are base products plus a
        signed delta: the rows still equal ``scores`` bit for bit, and a
        cancelled walk stays out of every support."""
        graph, base = overlay_with_pending_edits(directed)
        utility = WeightedPaths(gamma=gamma, max_length=max_length)
        targets = np.arange(graph.num_nodes)
        dense = support_dense(utility, graph, targets)
        expected = stacked_scores(utility, graph, targets)
        assert np.array_equal(dense.view(np.int64), expected.view(np.int64))
        cancelled = (support_dense(utility, base, targets) > 0) & (dense == 0)
        assert cancelled.any()
        ids, values, offsets = support_rows(
            utility.support_scores(graph, targets), excluded_rows(graph, targets)
        )
        assert (values > 0).all()
        for row, target in enumerate(targets):
            vector = utility.utility_vector(graph, int(target))
            want_ids, want_values = vector.support()
            assert np.array_equal(ids[offsets[row]:offsets[row + 1]], want_ids)
            assert np.array_equal(values[offsets[row]:offsets[row + 1]], want_values)

    def test_combine_reuses_gamma_independent_walk_rows(self):
        """One set of walk rows serves every gamma; the sparse and the
        side-car block form recombine to the same values."""
        g = erdos_renyi_gnp(20, 0.2, seed=5)
        targets = np.asarray([0, 3, 9])
        walks = WeightedPaths().walk_rows(g, g.adjacency_rows(targets))
        block = np.stack([walk.toarray() for walk in walks])
        for gamma in (0.0005, 0.05):
            utility = WeightedPaths(gamma=gamma)
            recombined = utility.combine_component_rows(walks)
            assert (recombined != utility.support_scores(g, targets)).nnz == 0
            for row in range(targets.size):
                assert np.array_equal(
                    utility.combine_component_rows(block[:, row]),
                    recombined[row].toarray().ravel(),
                )

    def test_combine_requires_enough_lengths(self):
        g = erdos_renyi_gnp(10, 0.3, seed=6)
        walks = WeightedPaths(max_length=2).walk_rows(g, g.adjacency_rows([0]))
        with pytest.raises(UtilityError):
            WeightedPaths(gamma=0.01, max_length=4).combine_component_rows(walks)
