"""Tests for the Laplace mechanism (Definition 6): Lemma 3, and the exact
grouped kernel behind ``probabilities`` and ``support_accuracies``."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MechanismError
from repro.mechanisms.laplace import (
    LaplaceMechanism,
    _group_pmfs,
    laplace_argmax_probability_two,
)
from repro.utility.base import UtilityVector, support_rows
from tests.conftest import make_vector
from tests.mechanisms.laplace_exact import exact_argmax_probabilities

#: The quadrature oracle's own error reaches ~1e-9 without break points;
#: with them it is ~1e-13 absolute, so this is the kernel's margin.
ORACLE_RTOL = 1e-8
ORACLE_ATOL = 1e-13


class TestRecommend:
    def test_returns_candidate(self, simple_vector, rng):
        mechanism = LaplaceMechanism(1.0)
        for _ in range(20):
            assert mechanism.recommend(simple_vector, seed=rng) in simple_vector.candidates

    def test_high_epsilon_usually_picks_best(self, simple_vector, rng):
        mechanism = LaplaceMechanism(50.0)
        picks = [mechanism.recommend(simple_vector, seed=rng) for _ in range(100)]
        assert picks.count(3) > 90

    def test_empty_vector_raises(self):
        with pytest.raises(MechanismError):
            LaplaceMechanism(1.0).recommend(make_vector([]))


class TestClosedFormTwoCandidates:
    def test_equal_utilities_give_half(self):
        assert laplace_argmax_probability_two(3.0, 3.0, 1.0) == pytest.approx(0.5)

    def test_lemma3_formula(self):
        # Lemma 3 with eps = 1, d = 2: 1 - e^{-2}/2 - 2 e^{-2}/4
        expected = 1.0 - 0.5 * np.exp(-2.0) - 0.5 * np.exp(-2.0)
        assert laplace_argmax_probability_two(5.0, 3.0, 1.0) == pytest.approx(expected)

    def test_complement_rule(self):
        p = laplace_argmax_probability_two(1.0, 4.0, 0.5)
        q = laplace_argmax_probability_two(4.0, 1.0, 0.5)
        assert p == pytest.approx(1.0 - q)

    def test_closed_form_matches_exact_probabilities(self):
        epsilon, u1, u2 = 0.8, 4.0, 1.5
        closed = laplace_argmax_probability_two(u1, u2, epsilon)
        oracle = exact_argmax_probabilities([u1, u2], epsilon, tolerance=1e-13)
        kernel = LaplaceMechanism(epsilon).probabilities(make_vector([u1, u2]))
        assert abs(closed - oracle[0]) < 1e-12
        assert abs(closed - kernel[0]) < 1e-13

    def test_probabilities_match_lemma3_for_n2(self):
        vector = make_vector([4.0, 1.0])
        mechanism = LaplaceMechanism(1.0, sensitivity=2.0)
        probs = mechanism.probabilities(vector)
        expected = laplace_argmax_probability_two(4.0, 1.0, 0.5)
        assert abs(probs[0] - expected) < 1e-13
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_n1(self):
        probs = LaplaceMechanism(1.0).probabilities(make_vector([2.0]))
        np.testing.assert_allclose(probs, [1.0], atol=1e-13)

    def test_probabilities_exact_for_n3_and_more(self, simple_vector):
        mechanism = LaplaceMechanism(1.0)
        probs = mechanism.probabilities(simple_vector)
        oracle = exact_argmax_probabilities(simple_vector.values, 1.0, tolerance=1e-13)
        np.testing.assert_allclose(probs, oracle, rtol=ORACLE_RTOL, atol=ORACLE_ATOL)
        # Tied candidates share their group's probability evenly.
        assert probs[2] == probs[3]


@given(
    u1=st.floats(0.0, 30.0),
    u2=st.floats(0.0, 30.0),
    epsilon=st.floats(0.05, 5.0),
)
@settings(max_examples=80, deadline=None)
def test_property_closed_form_is_probability_and_ordered(u1, u2, epsilon):
    p = laplace_argmax_probability_two(u1, u2, epsilon)
    assert 0.0 <= p <= 1.0
    if u1 > u2:
        assert p >= 0.5
    elif u1 < u2:
        assert p <= 0.5


@given(
    u1=st.floats(0.0, 30.0),
    u2=st.floats(0.0, 30.0),
    epsilon=st.floats(0.05, 5.0),
    sensitivity=st.sampled_from([0.5, 1.0, 2.0]),
)
@settings(max_examples=80, deadline=None)
def test_property_kernel_is_lemma3_for_two_candidates(u1, u2, epsilon, sensitivity):
    """The grouped integral's n = 2 case is Appendix E's closed form."""
    probs = LaplaceMechanism(epsilon, sensitivity=sensitivity).probabilities(
        make_vector([u1, u2])
    )
    closed = laplace_argmax_probability_two(u1, u2, epsilon / sensitivity)
    assert abs(probs[0] - closed) <= 1e-13
    assert abs(probs[1] - (1.0 - closed)) <= 1e-13


@given(
    values=st.lists(
        st.one_of(
            st.integers(0, 4).map(float),  # ties, and zero buckets
            st.floats(0.0, 40.0, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    ),
    epsilon=st.sampled_from([0.1, 0.5, 1.0, 3.0]),
    sensitivity=st.sampled_from([1.0, 2.0]),
)
@settings(max_examples=20, deadline=None)
def test_property_kernel_matches_quadrature_oracle(values, epsilon, sensitivity):
    probs = LaplaceMechanism(epsilon, sensitivity=sensitivity).probabilities(
        make_vector(values)
    )
    oracle = exact_argmax_probabilities(values, epsilon, sensitivity, tolerance=1e-13)
    np.testing.assert_allclose(probs, oracle, rtol=ORACLE_RTOL, atol=ORACLE_ATOL)
    assert abs(math.fsum(probs) - 1.0) <= 1e-12


class TestGroupedIntegral:
    """``sum_k P[v_k] = integral G' = 1`` checks every row."""

    @pytest.mark.parametrize("utility_name", ["common_neighbors", "weighted_paths"])
    def test_integral_of_g_prime_is_one_on_graph_rows(self, utility_name):
        from repro.compute.kernels import excluded_rows
        from repro.datasets import wiki_vote
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import build_utility

        graph = wiki_vote(scale=0.1)
        utility = build_utility(
            ExperimentConfig(utility=utility_name, gamma=0.0005)
        )
        targets = np.arange(0, graph.num_nodes, 6)
        _, values, offsets = support_rows(
            utility.support_scores(graph, targets), excluded_rows(graph, targets)
        )
        zeros = graph.num_nodes - np.diff(excluded_rows(graph, targets).indptr)
        zeros -= np.diff(offsets)
        rows = []
        for row in range(targets.size):
            support = values[offsets[row]:offsets[row + 1]]
            if support.size:
                groups, counts = np.unique(support, return_counts=True)
                rows.append(
                    (np.concatenate(([0.0], groups)), np.concatenate(([zeros[row]], counts)))
                )
        assert len(rows) > 60
        for scale in (0.5, 2.0):
            sums = [math.fsum(pmf) for pmf in _group_pmfs(rows, scale)]
            assert len(sums) == len(rows)
            assert max(abs(total - 1.0) for total in sums) <= 1e-12

    def test_wide_row_of_distinct_values(self):
        """A weighted-paths-like row: thousands of distinct values within a
        few dozen noise scales, plus a large zero bucket."""
        rng = np.random.default_rng(4)
        groups = np.concatenate(([0.0], np.unique(56.0 * rng.random(3_000) ** 0.3)))
        counts = np.concatenate(([4_000], np.ones(groups.size - 1, dtype=np.int64)))
        (pmf,) = _group_pmfs([(groups, counts)], 1.0)
        assert abs(math.fsum(pmf) - 1.0) <= 1e-12
        assert np.all(pmf >= 0.0)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            values = np.round(rng.exponential(3.0, size=int(rng.integers(2, 400))), 1)
            probs = LaplaceMechanism(float(rng.uniform(0.1, 3.0))).probabilities(
                make_vector(values)
            )
            assert abs(math.fsum(probs) - 1.0) <= 1e-12

    def test_far_below_candidates_keep_relative_precision(self):
        # A candidate 30 scales below the top wins with probability
        # ~e^{-30}; the kernel resolves it, not just its absolute size.
        probs = LaplaceMechanism(1.0).probabilities(make_vector([30.0, 0.0]))
        closed = 1.0 - laplace_argmax_probability_two(30.0, 0.0, 1.0)
        assert probs[1] == pytest.approx(0.25 * 32.0 * math.exp(-30.0), rel=1e-12)
        assert closed == pytest.approx(probs[1], rel=1e-3)  # 1 - p loses digits


class TestExpectedAccuracy:
    def test_exact_for_two_candidates(self):
        vector = make_vector([4.0, 1.0])
        mechanism = LaplaceMechanism(1.0)
        p_win = laplace_argmax_probability_two(4.0, 1.0, 1.0)
        expected = (p_win * 4.0 + (1 - p_win) * 1.0) / 4.0
        assert mechanism.expected_accuracy(vector) == pytest.approx(expected, rel=1e-13)

    def test_seed_does_not_change_the_exact_value(self, simple_vector):
        mechanism = LaplaceMechanism(1.0)
        assert mechanism.expected_accuracy(simple_vector, seed=5) == (
            mechanism.expected_accuracy(simple_vector, seed=6)
        )

    def test_accuracy_increases_with_epsilon(self, simple_vector):
        accuracies = [
            LaplaceMechanism(eps).expected_accuracy(simple_vector)
            for eps in (0.1, 1.0, 10.0)
        ]
        assert accuracies == sorted(accuracies)

    def test_matches_probabilities(self, simple_vector):
        mechanism = LaplaceMechanism(0.7, sensitivity=2.0)
        probs = mechanism.probabilities(simple_vector)
        expected = math.fsum(probs * simple_vector.values) / simple_vector.u_max
        assert mechanism.expected_accuracy(simple_vector) == pytest.approx(
            expected, rel=1e-13
        )

    def test_dense_and_support_forms_agree(self):
        dense = make_vector([5.0, 3.0, 1.0, 1.0, 0.0, 0.0])
        ids, values = dense.support()
        support_form = UtilityVector.from_support(
            0, ids, values, np.arange(100), 100 + len(dense), 3
        )
        mechanism = LaplaceMechanism(1.3)
        assert mechanism.expected_accuracy(support_form) == (
            mechanism.expected_accuracy(dense)
        )

    def test_flat_rows_equal_one_row_calls(self):
        mechanism = LaplaceMechanism(0.8, sensitivity=2.0)
        rows = [[3.0, 1.0, 0.5, 0.0, 2.0], [1.0, 1.0, 4.0], [2.0, 0.0], [7.5]]
        vectors = [make_vector(values) for values in rows]
        supports = [vector.support()[1] for vector in vectors]
        offsets = np.cumsum([0] + [support.size for support in supports])
        flat = mechanism.support_accuracies(
            np.concatenate(supports), offsets, [v.zero_count for v in vectors]
        )
        for row, vector in enumerate(vectors):
            # A row's value does not depend on the rows around it.
            assert flat[row] == mechanism.expected_accuracy(vector)

    def test_empty_input_and_zero_rows(self):
        mechanism = LaplaceMechanism(1.0)
        assert mechanism.support_accuracies([], [0], []).shape == (0,)
        with pytest.raises(MechanismError):
            mechanism.expected_accuracy(make_vector([0.0, 0.0]))


class TestEstimateProbabilities:
    def test_estimates_sum_to_one(self, simple_vector):
        probs = LaplaceMechanism(1.0).estimate_probabilities(simple_vector, trials=2000, seed=0)
        assert probs.sum() == pytest.approx(1.0)


class TestMonotonicity:
    def test_monotone(self, simple_vector):
        """Section 6: a higher utility gets a higher win probability."""
        probs = LaplaceMechanism(1.0).probabilities(simple_vector)
        order = np.argsort(simple_vector.values, kind="stable")
        levels = simple_vector.values[order]
        steps = np.diff(probs[order])
        assert np.all(steps[np.diff(levels) > 0] > 0)
        assert np.all(steps[np.diff(levels) == 0] == 0)


class TestDifferentialPrivacy:
    def test_output_ratio_within_budget_on_neighboring_vectors(self):
        """Theorem 4 on exact probabilities: no output's probability moves
        by more than e^epsilon between utility vectors at L1 distance
        Delta f."""
        epsilon, sensitivity = 1.0, 1.0
        mechanism = LaplaceMechanism(epsilon, sensitivity=sensitivity)
        base = make_vector([3.0, 2.0, 0.0])
        neighbor = make_vector([3.0, 2.0, 1.0])  # L1 distance 1 = sensitivity
        p = mechanism.probabilities(base)
        q = mechanism.probabilities(neighbor)
        ratio = np.max(np.maximum(p / q, q / p))
        assert ratio <= np.exp(epsilon)
