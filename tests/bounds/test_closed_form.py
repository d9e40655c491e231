"""Tests for the Appendix E closed forms (Lemma 3) and the mechanism
non-equivalence they witness."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from repro.bounds.closed_form import (
    compare_mechanisms_two_candidates,
    exponential_win_probability,
    laplace_difference_cdf,
    laplace_difference_pdf,
    laplace_win_probability,
)
from repro.errors import BoundError


class TestLaplaceDifferenceDistribution:
    def test_pdf_integrates_to_one(self):
        epsilon = 1.3
        total, _ = integrate.quad(lambda x: laplace_difference_pdf(x, epsilon), -60, 60)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_pdf_symmetric(self):
        assert laplace_difference_pdf(2.5, 0.8) == pytest.approx(
            laplace_difference_pdf(-2.5, 0.8)
        )

    def test_cdf_matches_pdf_integral(self):
        epsilon, x = 0.9, 1.7
        integral, _ = integrate.quad(lambda y: laplace_difference_pdf(y, epsilon), -60, x)
        assert laplace_difference_cdf(x, epsilon) == pytest.approx(integral, abs=1e-6)

    def test_cdf_at_zero_is_half(self):
        assert laplace_difference_cdf(0.0, 1.0) == pytest.approx(0.5)

    def test_cdf_complement(self):
        assert laplace_difference_cdf(-2.0, 1.0) == pytest.approx(
            1.0 - laplace_difference_cdf(2.0, 1.0)
        )

    def test_paper_pdf_form(self):
        """The proof's density (eps/4)(1 + eps x) e^{-eps x} for x > 0."""
        epsilon, x = 1.0, 0.7
        expected = 0.25 * epsilon * (1 + epsilon * x) * math.exp(-epsilon * x)
        assert laplace_difference_pdf(x, epsilon) == pytest.approx(expected)


class TestLemma3:
    def test_formula_value(self):
        epsilon, u1, u2 = 1.0, 3.0, 1.0
        d = u1 - u2
        expected = 1 - 0.5 * math.exp(-epsilon * d) - 0.25 * epsilon * d * math.exp(-epsilon * d)
        assert laplace_win_probability(u1, u2, epsilon) == pytest.approx(expected)

    def test_consistent_with_difference_cdf(self):
        """P[u1 + X1 > u2 + X2] = P[X2 - X1 < u1 - u2] = CDF(u1 - u2)."""
        epsilon, u1, u2 = 0.7, 5.0, 2.0
        assert laplace_win_probability(u1, u2, epsilon) == pytest.approx(
            laplace_difference_cdf(u1 - u2, epsilon)
        )

    def test_sensitivity_rescaling(self):
        assert laplace_win_probability(4.0, 2.0, 1.0, sensitivity=2.0) == pytest.approx(
            laplace_win_probability(2.0, 1.0, 1.0, sensitivity=1.0)
        )

    def test_tiny_gap_never_below_half(self):
        """However tiny its lead, the leader wins with probability >= 1/2;
        the direct formula rounded this gap to 0.49999999999999994."""
        assert laplace_win_probability(2.55102010821546e-15, 0.0, 0.0625) >= 0.5
        assert laplace_win_probability(0.0, 2.55102010821546e-15, 0.0625) <= 0.5

    def test_validation(self):
        with pytest.raises(BoundError):
            laplace_win_probability(1.0, 0.0, 0.0)
        with pytest.raises(BoundError):
            laplace_win_probability(1.0, 0.0, 1.0, sensitivity=0.0)


class TestMechanismNonEquivalence:
    def test_mechanisms_agree_at_zero_gap(self):
        comparisons = compare_mechanisms_two_candidates([0.0], epsilon=1.0)
        assert comparisons[0].laplace == pytest.approx(0.5)
        assert comparisons[0].exponential == pytest.approx(0.5)

    def test_mechanisms_differ_at_moderate_gap(self):
        """Appendix E: 'the reader can verify the two are not equivalent'."""
        comparisons = compare_mechanisms_two_candidates([2.0], epsilon=1.0)
        assert abs(comparisons[0].difference) > 0.01

    def test_both_approach_one_at_huge_gap(self):
        comparison = compare_mechanisms_two_candidates([50.0], epsilon=1.0)[0]
        assert comparison.laplace == pytest.approx(1.0, abs=1e-6)
        assert comparison.exponential == pytest.approx(1.0, abs=1e-6)

    def test_exponential_win_is_logistic(self):
        epsilon, gap = 0.5, 3.0
        expected = 1.0 / (1.0 + math.exp(-epsilon * gap))
        assert exponential_win_probability(gap, 0.0, epsilon) == pytest.approx(expected)

    def test_logistic_stable_for_large_negative_gap(self):
        value = exponential_win_probability(0.0, 5000.0, 1.0)
        assert 0.0 <= value < 1e-100 or value == 0.0


@given(
    gap=st.floats(0.0, 40.0),
    epsilon=st.floats(0.05, 4.0),
)
@settings(max_examples=80, deadline=None)
def test_property_laplace_win_bounds_and_monotonicity(gap, epsilon):
    p = laplace_win_probability(gap, 0.0, epsilon)
    q = exponential_win_probability(gap, 0.0, epsilon)
    assert 0.5 <= p <= 1.0
    assert 0.5 <= q <= 1.0
    # Both win probabilities are monotone in epsilon for a fixed gap.
    assert laplace_win_probability(gap, 0.0, 2 * epsilon) >= p - 1e-9
    assert exponential_win_probability(gap, 0.0, 2 * epsilon) >= q - 1e-9
