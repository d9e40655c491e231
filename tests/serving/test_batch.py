"""Tests for the vectorized batch entry points feeding the serving layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compute import utility_vectors
from repro.datasets import toy, wiki_vote
from repro.errors import MechanismError
from repro.mechanisms import ExponentialMechanism, make_mechanism, mechanism_registry
from repro.utility import CommonNeighbors, JaccardCoefficient
from repro.compute.kernels import excluded_rows
from repro.utility.base import UtilityVector, candidate_nodes
from tests.conftest import make_uniforms


def assert_rows_match_scores(utility, graph, targets):
    """Each sparse score row equals the target's ``scores`` vector bit for
    bit, the target's own entry aside (every consumer excludes it)."""
    matrix = utility.support_scores(graph, targets).toarray()
    assert matrix.shape == (len(targets), graph.num_nodes)
    for row, target in enumerate(targets):
        np.testing.assert_array_equal(
            np.delete(matrix[row], target), np.delete(utility.scores(graph, target), target)
        )


class TestSupportScores:
    def test_common_neighbors_matches_sequential_undirected(self):
        graph = wiki_vote(scale=0.03)
        targets = [0, 3, 11, 50, graph.num_nodes - 1]
        assert_rows_match_scores(CommonNeighbors(), graph, targets)

    def test_common_neighbors_matches_sequential_directed(self):
        graph = toy.directed_fan(out_degree=4)
        assert_rows_match_scores(CommonNeighbors(), graph, list(range(graph.num_nodes)))

    def test_generic_fallback_matches_sequential(self):
        graph = toy.two_communities(block_size=5)
        utility = JaccardCoefficient()  # no sparse override
        assert_rows_match_scores(utility, graph, [0, 2, 7])


class TestExcludedRows:
    """The batched candidate sets: each row's excluded ids are the
    complement of :func:`candidate_nodes`."""

    def test_matches_candidate_nodes(self):
        graph = wiki_vote(scale=0.03)
        targets = np.asarray([0, 5, 17])
        excluded = excluded_rows(graph, targets)
        for row, target in enumerate(targets):
            ids = excluded.indices[excluded.indptr[row]:excluded.indptr[row + 1]]
            np.testing.assert_array_equal(
                np.setdiff1d(np.arange(graph.num_nodes), ids),
                candidate_nodes(graph, target),
            )

    def test_excludes_target_and_neighbors(self):
        graph = toy.paper_example_graph()
        excluded = excluded_rows(graph, np.asarray([0]))
        assert set(excluded.indices.tolist()) == {0} | set(graph.neighbors(0))


class TestInverseCdfSample:
    """``ExponentialMechanism.recommend_vectors``: inverse-CDF sampling
    over each row's support plus one cell for its zero bucket."""

    def test_requires_two_uniforms_per_vector(self):
        from tests.conftest import make_vector

        mechanism = ExponentialMechanism(epsilon=1.0, sensitivity=2.0)
        for bad in (make_uniforms(0, 3), make_uniforms(0, 2)[:, :1], make_uniforms(0, 2).ravel()):
            with pytest.raises(MechanismError, match="uniforms"):
                mechanism.recommend_vectors([make_vector([1.0, 0.0])] * 2, bad)

    def test_uniforms_must_lie_in_the_unit_interval(self):
        from tests.conftest import make_vector

        mechanism = ExponentialMechanism(epsilon=1.0, sensitivity=2.0)
        for bad in ([[0.5, 1.0]], [[-0.1, 0.5]], [[np.nan, 0.5]]):
            with pytest.raises(MechanismError, match=r"\[0, 1\)"):
                mechanism.recommend_vectors([make_vector([1.0, 0.0])], bad)

    def test_requires_valid_candidate_per_row(self):
        from tests.conftest import make_vector

        mechanism = ExponentialMechanism(epsilon=1.0, sensitivity=2.0)
        everyone_excluded = UtilityVector.from_support(0, [], [], [0, 1, 2], 3, 2)
        for empty in (make_vector([]), everyone_excluded):
            with pytest.raises(MechanismError, match="empty candidate set"):
                mechanism.recommend_vectors([make_vector([1.0]), empty], make_uniforms(0, 2))

    def test_no_vectors_draw_nothing(self):
        mechanism = ExponentialMechanism(epsilon=1.0, sensitivity=2.0)
        picks = mechanism.recommend_vectors([], np.empty((0, 2)))
        assert picks.shape == (0,) and picks.dtype == np.int64

    def test_samples_respect_exclusions(self):
        mechanism = ExponentialMechanism(epsilon=1.0, sensitivity=2.0)
        vector = UtilityVector.from_support(0, [3], [1.0], [0, 1, 5], 8, 2)
        picks = mechanism.recommend_vectors([vector] * 400, make_uniforms(0, 400))
        assert set(picks.tolist()) == {2, 3, 4, 6, 7}

    def test_cells_split_the_unit_interval_in_order(self):
        """u1 walks the support's cells in id order, then the bucket; u2
        names the bucket member by rank."""
        mechanism = ExponentialMechanism(epsilon=1.0, sensitivity=1.0)
        # Support {1: u=1, 3: u=1} and bucket {2, 4}: four equal cells of 1/4.
        vector = UtilityVector.from_support(0, [1, 3], [1.0, 1.0], [0], 5, 0)
        weights = np.array([1.0, 1.0, 2 * np.exp(-1.0)])
        edges = np.cumsum(weights) / weights.sum()
        uniforms = [[0.0, 0.9], [edges[0] * 0.999, 0.0], [edges[0] * 1.001, 0.0],
                    [edges[1] * 1.001, 0.0], [edges[1] * 1.001, 0.499],
                    [edges[1] * 1.001, 0.5], [np.nextafter(1.0, 0.0)] * 2]
        picks = mechanism.recommend_vectors([vector] * len(uniforms), uniforms)
        assert picks.tolist() == [1, 1, 3, 2, 2, 4, 4]

    def test_matches_exponential_probabilities_statistically(self):
        """Sampling follows the softmax distribution, zero bucket included.

        Sample one dense utility vector many times and compare empirical
        frequencies against the mechanism's exact ``probabilities`` in
        total-variation distance. Sampling noise at 20k draws over 6
        candidates is ~0.009 TV in expectation; 0.03 leaves generous
        slack while catching any systematic bias.
        """
        from tests.conftest import make_vector

        vector = make_vector([5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
        mechanism = ExponentialMechanism(epsilon=1.0, sensitivity=2.0)
        exact = mechanism.probabilities(vector)

        draws = 20_000
        samples = mechanism.recommend_vectors([vector] * draws, make_uniforms(123, draws))
        empirical = np.bincount(samples - 100, minlength=len(vector)) / draws
        tv_distance = 0.5 * np.abs(empirical - exact).sum()
        assert tv_distance < 0.03

    def test_support_rows_match_per_row_distribution(self):
        """Support-form kernel rows sample like per-vector probabilities."""
        graph = toy.paper_example_graph()
        utility = CommonNeighbors()
        mechanism = ExponentialMechanism(epsilon=2.0, sensitivity=2.0)
        vector = utility_vectors(graph, utility, [0])[0]
        exact = mechanism.probabilities(utility.utility_vector(graph, 0))

        draws = 20_000
        samples = mechanism.recommend_vectors([vector] * draws, make_uniforms(7, draws))
        counts = np.bincount(samples, minlength=graph.num_nodes)[vector.candidates]
        tv_distance = 0.5 * np.abs(counts / draws - exact).sum()
        assert tv_distance < 0.03


class TestMechanismRegistry:
    def test_known_names_registered(self):
        registry = mechanism_registry()
        for name in ("best", "uniform", "exponential", "laplace", "smoothing"):
            assert name in registry

    def test_make_private_mechanism(self):
        mechanism = make_mechanism("exponential", epsilon=0.7, sensitivity=2.0)
        assert isinstance(mechanism, ExponentialMechanism)
        assert mechanism.epsilon == 0.7

    def test_make_baseline_drops_privacy_kwargs(self):
        mechanism = make_mechanism("best", epsilon=0.7, sensitivity=2.0)
        assert mechanism.name == "best"
        assert mechanism.epsilon is None

    def test_unknown_name_raises(self):
        with pytest.raises(MechanismError, match="unknown mechanism"):
            make_mechanism("nope")
