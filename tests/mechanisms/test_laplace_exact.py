"""Tests for the quadrature oracle of the Laplace argmax probabilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MechanismError
from repro.mechanisms.laplace import LaplaceMechanism, laplace_argmax_probability_two
from tests.conftest import make_vector
from tests.mechanisms.laplace_exact import (
    exact_argmax_probabilities,
    exact_expected_accuracy,
    laplace_cdf,
)


class TestLaplaceCdf:
    def test_symmetry(self):
        assert laplace_cdf(np.asarray(-1.2), 1.0) == pytest.approx(
            1.0 - laplace_cdf(np.asarray(1.2), 1.0)
        )

    def test_zero_is_half(self):
        assert laplace_cdf(np.asarray(0.0), 2.0) == pytest.approx(0.5)

    def test_matches_numpy_sampling(self):
        rng = np.random.default_rng(0)
        samples = rng.laplace(0.0, 1.5, size=200_000)
        for x in (-2.0, 0.5, 3.0):
            empirical = float(np.mean(samples <= x))
            assert laplace_cdf(np.asarray(x), 1.5) == pytest.approx(empirical, abs=0.005)


class TestExactProbabilities:
    def test_n2_matches_lemma3_closed_form(self):
        epsilon = 0.8
        probs = exact_argmax_probabilities([4.0, 1.0], epsilon)
        closed = laplace_argmax_probability_two(4.0, 1.0, epsilon)
        assert probs[0] == pytest.approx(closed, abs=1e-8)
        assert probs.sum() == pytest.approx(1.0)

    def test_n5_matches_grouped_kernel(self):
        # Two independent exact computations: per-candidate quadrature
        # here, grouped power-series panels in the mechanism.
        values = np.asarray([5.0, 3.0, 3.0, 1.0, 0.0])
        exact = exact_argmax_probabilities(values, 1.0, tolerance=1e-13)
        kernel = LaplaceMechanism(1.0).probabilities(make_vector(values))
        np.testing.assert_allclose(exact, kernel, rtol=1e-9, atol=1e-13)

    def test_equal_utilities_uniform(self):
        probs = exact_argmax_probabilities([2.0, 2.0, 2.0], 1.0)
        np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-8)

    def test_monotone_in_utility(self):
        probs = exact_argmax_probabilities([4.0, 2.0, 1.0], 1.0)
        assert probs[0] > probs[1] > probs[2]

    def test_single_candidate(self):
        np.testing.assert_allclose(exact_argmax_probabilities([3.0], 1.0), [1.0])

    def test_sensitivity_scaling_equivalence(self):
        a = exact_argmax_probabilities([4.0, 1.0], epsilon=1.0, sensitivity=2.0)
        b = exact_argmax_probabilities([2.0, 0.5], epsilon=1.0, sensitivity=1.0)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_validation(self):
        with pytest.raises(MechanismError):
            exact_argmax_probabilities([1.0], 0.0)
        with pytest.raises(MechanismError):
            exact_argmax_probabilities([], 1.0)


class TestExactAccuracy:
    def test_matches_the_mechanism(self, simple_vector):
        epsilon, sensitivity = 1.0, 2.0
        exact = exact_expected_accuracy(simple_vector, epsilon, sensitivity)
        kernel = LaplaceMechanism(epsilon, sensitivity=sensitivity).expected_accuracy(
            simple_vector
        )
        assert exact == pytest.approx(kernel, rel=1e-9)

    def test_zero_utilities_rejected(self):
        with pytest.raises(MechanismError):
            exact_expected_accuracy(make_vector([0.0, 0.0]), 1.0)

    def test_increases_with_epsilon(self, simple_vector):
        values = [exact_expected_accuracy(simple_vector, eps) for eps in (0.2, 1.0, 5.0)]
        assert values == sorted(values)
