"""Tests for the monotonicity property checker (Definition 4)."""

from __future__ import annotations

import numpy as np

from repro.axioms.monotonicity import (
    check_mechanism_monotonicity,
    check_probability_monotonicity,
)
from repro.mechanisms.best import BestMechanism
from repro.mechanisms.exponential import ExponentialMechanism
from repro.mechanisms.laplace import LaplaceMechanism
from tests.conftest import make_vector


class TestRawCheck:
    def test_monotone_probabilities_pass(self):
        report = check_probability_monotonicity(
            np.asarray([3.0, 2.0, 1.0]), np.asarray([0.5, 0.3, 0.2])
        )
        assert report.holds
        assert report.violations == 0

    def test_inverted_pair_detected(self):
        report = check_probability_monotonicity(
            np.asarray([3.0, 2.0, 1.0]), np.asarray([0.2, 0.5, 0.3])
        )
        assert not report.holds
        assert report.worst_violation > 0

    def test_slack_tolerates_noise(self):
        report = check_probability_monotonicity(
            np.asarray([3.0, 2.0]), np.asarray([0.49, 0.51]), slack=0.05
        )
        assert report.holds

    def test_equal_utilities_impose_no_constraint(self):
        report = check_probability_monotonicity(
            np.asarray([2.0, 2.0]), np.asarray([0.9, 0.1])
        )
        assert report.holds  # no strictly-ordered pair exists


class TestMechanismChecks:
    def test_exponential_is_monotonic(self, simple_vector):
        report = check_mechanism_monotonicity(ExponentialMechanism(1.0), simple_vector)
        assert report.holds
        assert report.mechanism_name == "exponential"

    def test_best_is_weakly_monotonic_violations_detected(self):
        """R_best gives probability 0 to both a mid and a low utility node,
        which satisfies the weak reading but not strict p_i > p_j; the
        checker must flag it (the paper restricts to strictly monotonic
        randomized algorithms, which R_best is not)."""
        vector = make_vector([5.0, 3.0, 1.0])
        probs = BestMechanism().probabilities(vector)
        weak = check_probability_monotonicity(vector.values, probs)
        strict = check_probability_monotonicity(vector.values, probs, strict=True)
        assert weak.holds  # no inversion: best never ranks low above high
        assert not strict.holds  # but ties at probability 0 break Definition 4

    def test_laplace_monotone(self, simple_vector):
        """Section 6: A_L is monotone; its probabilities are exact, so
        the check needs no sampling slack."""
        report = check_mechanism_monotonicity(LaplaceMechanism(1.0), simple_vector)
        assert report.holds
        assert report.num_pairs_checked > 0
