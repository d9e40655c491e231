"""Tests for the Exponential mechanism (Definition 5)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axioms.monotonicity import check_probability_monotonicity
from repro.compute import fused_compact_rows
from repro.mechanisms.exponential import ExponentialMechanism
from repro.utility.base import UtilityVector
from tests.conftest import make_vector


class TestProbabilities:
    def test_matches_definition(self, simple_vector):
        epsilon, sensitivity = 1.0, 2.0
        mechanism = ExponentialMechanism(epsilon, sensitivity=sensitivity)
        probs = mechanism.probabilities(simple_vector)
        weights = np.exp(epsilon / sensitivity * simple_vector.values)
        np.testing.assert_allclose(probs, weights / weights.sum())

    def test_sums_to_one(self, simple_vector):
        probs = ExponentialMechanism(3.0).probabilities(simple_vector)
        assert np.isclose(probs.sum(), 1.0)

    def test_every_candidate_has_positive_probability(self, simple_vector):
        """Nissim: any DP mechanism must recommend even zero-utility nodes."""
        probs = ExponentialMechanism(5.0).probabilities(simple_vector)
        assert probs.min() > 0.0

    def test_numerical_stability_at_huge_utilities(self):
        vector = make_vector([5000.0, 4999.0, 0.0])
        probs = ExponentialMechanism(10.0).probabilities(vector)
        assert np.all(np.isfinite(probs))
        assert np.isclose(probs.sum(), 1.0)

    def test_monotone_in_utility(self, simple_vector):
        probs = ExponentialMechanism(1.0).probabilities(simple_vector)
        report = check_probability_monotonicity(simple_vector.values, probs)
        assert report.holds

    def test_epsilon_zero_limit_is_uniform(self):
        vector = make_vector([5.0, 1.0, 0.0])
        probs = ExponentialMechanism(1e-12).probabilities(vector)
        np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-9)

    def test_large_epsilon_approaches_best(self, simple_vector):
        probs = ExponentialMechanism(500.0).probabilities(simple_vector)
        assert probs[0] > 0.999


class TestLogProbabilities:
    def test_consistent_with_probabilities(self, simple_vector):
        mechanism = ExponentialMechanism(2.0)
        log_probs = mechanism.log_probabilities(simple_vector)
        np.testing.assert_allclose(np.exp(log_probs), mechanism.probabilities(simple_vector))

    def test_no_underflow_for_low_utility(self):
        vector = make_vector([1000.0, 0.0])
        log_probs = ExponentialMechanism(5.0).log_probabilities(vector)
        assert np.isfinite(log_probs).all()
        assert log_probs[1] < -1000  # genuinely tiny but representable in logs


class TestAccuracy:
    def test_accuracy_increases_with_epsilon(self, simple_vector):
        accuracies = [
            ExponentialMechanism(eps).expected_accuracy(simple_vector)
            for eps in (0.1, 0.5, 1.0, 3.0)
        ]
        assert accuracies == sorted(accuracies)

    def test_accuracy_decreases_with_sensitivity(self, simple_vector):
        low = ExponentialMechanism(1.0, sensitivity=1.0).expected_accuracy(simple_vector)
        high = ExponentialMechanism(1.0, sensitivity=10.0).expected_accuracy(simple_vector)
        assert low > high


class TestDifferentialPrivacy:
    def test_epsilon_dp_over_neighboring_utility_vectors(self):
        """Definition 1 verified directly: for any two utility vectors at L1
        distance <= sensitivity (one edge flip's worth), all output
        probabilities stay within e^epsilon of each other."""
        rng = np.random.default_rng(0)
        epsilon, sensitivity = 0.7, 2.0
        mechanism = ExponentialMechanism(epsilon, sensitivity=sensitivity)
        for _ in range(50):
            base_values = rng.uniform(0.0, 10.0, size=8)
            # Perturb two entries by a total of at most `sensitivity` in L1,
            # mimicking a common-neighbors edge flip.
            delta = rng.uniform(-1.0, 1.0, size=8)
            delta[np.argsort(np.abs(delta))[:-2]] = 0.0  # keep 2 largest
            delta *= sensitivity / max(1e-12, np.abs(delta).sum())
            neighbor_values = np.clip(base_values + delta, 0.0, None)
            p = mechanism.probabilities(make_vector(base_values))
            q = mechanism.probabilities(make_vector(neighbor_values))
            ratio = np.max(np.maximum(p / q, q / p))
            assert ratio <= np.exp(epsilon) + 1e-9


@given(
    values=st.lists(st.floats(0.0, 20.0), min_size=2, max_size=15),
    epsilon=st.floats(0.05, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_property_probabilities_valid_and_monotone(values, epsilon):
    vector = make_vector(values)
    probs = ExponentialMechanism(epsilon).probabilities(vector)
    assert np.isclose(probs.sum(), 1.0)
    assert probs.min() > 0.0
    order = np.argsort(vector.values)
    assert np.all(np.diff(probs[order]) >= -1e-15)


class TestExpectedAccuracyBatch:
    def _matrix_and_mask(self, rng, rows=12, cols=30):
        utilities = rng.integers(0, 9, size=(rows, cols)).astype(float)
        valid = rng.random((rows, cols)) < 0.7
        valid[:, :2] = True  # keep every row a footnote-10 survivor
        utilities[:, 0] = np.maximum(utilities[:, 0], 1.0)  # with signal
        return utilities, valid

    def _vectors(self, utilities, valid):
        return [
            UtilityVector(
                target=0,
                candidates=np.flatnonzero(valid[row]),
                values=utilities[row, np.flatnonzero(valid[row])],
                target_degree=1,
            )
            for row in range(utilities.shape[0])
        ]

    def test_matches_per_vector_expected_accuracy_exactly(self, rng):
        utilities, valid = self._matrix_and_mask(rng)
        mechanism = ExponentialMechanism(0.7, sensitivity=2.0)
        chunk = fused_compact_rows(utilities, valid)
        assert chunk.kept.size == utilities.shape[0]
        batch = mechanism.expected_accuracy_compact(chunk.compact)
        for row, vector in enumerate(self._vectors(utilities, valid)):
            assert batch[row] == mechanism.expected_accuracy(vector)

    def test_compact_rows_reused_across_epsilons(self, rng):
        utilities, valid = self._matrix_and_mask(rng)
        compact = fused_compact_rows(utilities, valid).compact
        vectors = self._vectors(utilities, valid)
        for eps in (0.2, 1.0, 4.0):
            mechanism = ExponentialMechanism(eps, sensitivity=1.5)
            via_compact = mechanism.expected_accuracy_compact(compact)
            direct = [mechanism.expected_accuracy(vector) for vector in vectors]
            assert via_compact.tolist() == direct

    def test_empty_matrix(self):
        mechanism = ExponentialMechanism(1.0)
        compact = fused_compact_rows(
            np.empty((0, 4)), np.empty((0, 4), dtype=bool)
        ).compact
        assert mechanism.expected_accuracy_compact(compact).shape == (0,)
