"""Tests for Lemma 1 / Corollary 1 and the tightest-bound search."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.tradeoff import (
    accuracy_upper_bound,
    epsilon_lower_bound,
    section_4_2_worked_example,
    support_bounds,
    tightest_accuracy_bound,
    tightest_accuracy_bounds,
)
from repro.errors import BoundError
from repro.utility.base import UtilityVector
from tests.conftest import make_vector


class TestEpsilonLowerBound:
    def test_lemma1_formula(self):
        c, delta, n, k, t = 0.9, 0.1, 1000, 5, 10
        expected = (math.log((c - delta) / delta) + math.log((n - k) / (k + 1))) / t
        assert epsilon_lower_bound(c, delta, n, k, t) == pytest.approx(expected)

    def test_decreases_with_t(self):
        values = [epsilon_lower_bound(0.9, 0.1, 1000, 5, t) for t in (5, 10, 50)]
        assert values == sorted(values, reverse=True)

    def test_increases_with_n(self):
        values = [epsilon_lower_bound(0.9, 0.1, n, 5, 10) for n in (100, 10_000, 10**6)]
        assert values == sorted(values)

    def test_tighter_accuracy_needs_more_epsilon(self):
        loose = epsilon_lower_bound(0.9, 0.5, 1000, 5, 10)
        tight = epsilon_lower_bound(0.9, 0.01, 1000, 5, 10)
        assert tight > loose

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(c=0.0, delta=0.1, n=100, k=5, t=3),
            dict(c=0.9, delta=0.9, n=100, k=5, t=3),
            dict(c=0.9, delta=0.0, n=100, k=5, t=3),
            dict(c=0.9, delta=0.1, n=1, k=5, t=3),
            dict(c=0.9, delta=0.1, n=100, k=0, t=3),
            dict(c=0.9, delta=0.1, n=100, k=100, t=3),
            dict(c=0.9, delta=0.1, n=100, k=5, t=0),
        ],
    )
    def test_domain_validation(self, kwargs):
        with pytest.raises(BoundError):
            epsilon_lower_bound(**kwargs)


class TestAccuracyUpperBound:
    def test_corollary1_formula(self):
        epsilon, n, k, t, c = 0.5, 1000, 5, 10, 0.95
        expected = 1 - c * (n - k) / (n - k + (k + 1) * math.exp(epsilon * t))
        assert accuracy_upper_bound(epsilon, n, k, t, c=c) == pytest.approx(expected)

    def test_section_4_2_worked_example_matches_paper(self):
        """The paper computes ~0.46 for the Facebook-scale example."""
        example = section_4_2_worked_example()
        assert example["accuracy_bound"] == pytest.approx(0.458, abs=0.005)

    def test_monotone_in_epsilon(self):
        bounds = [accuracy_upper_bound(e, 10**6, 10, 20) for e in (0.1, 0.5, 1.0, 3.0)]
        assert bounds == sorted(bounds)

    def test_monotone_in_t(self):
        bounds = [accuracy_upper_bound(0.5, 10**6, 10, t) for t in (5, 20, 100)]
        assert bounds == sorted(bounds)

    def test_large_n_small_t_forces_low_accuracy(self):
        """The qualitative heart of the paper: big graph + easy promotion
        means near-zero achievable accuracy at reasonable epsilon."""
        bound = accuracy_upper_bound(0.5, 10**8, 10, 5)
        assert bound < 0.01

    def test_overflow_safe_for_lenient_settings(self):
        assert accuracy_upper_bound(10.0, 1000, 5, 500) == 1.0

    def test_bound_never_negative(self):
        assert accuracy_upper_bound(1e-9, 10**9, 1, 1) >= 0.0

    def test_duality_with_lemma1(self):
        """If epsilon is exactly at the Lemma 1 floor for (c, delta), the
        Corollary 1 bound at that epsilon is (approximately) 1 - delta."""
        c, delta, n, k, t = 0.9, 0.2, 10_000, 8, 12
        epsilon = epsilon_lower_bound(c, delta, n, k, t)
        bound = accuracy_upper_bound(epsilon, n, k, t, c=c)
        # Solving Corollary 1 for delta at this epsilon recovers delta/c scaling
        assert bound == pytest.approx(1 - delta + delta * (1 - c), abs=0.05)


class TestTightestBound:
    def test_returns_minimum_over_thresholds(self, simple_vector):
        result = tightest_accuracy_bound(simple_vector, epsilon=0.5, t=4)
        manual = []
        values = simple_vector.values
        n = len(simple_vector)
        for tau in np.unique(values[values < values.max()]):
            k = int((values > tau).sum())
            c = 1.0 - tau / values.max()
            manual.append(accuracy_upper_bound(0.5, n, k, 4, c=c))
        assert result.accuracy_bound == pytest.approx(min(manual))

    def test_bound_in_unit_interval(self, simple_vector):
        result = tightest_accuracy_bound(simple_vector, epsilon=1.0, t=3)
        assert 0.0 <= result.accuracy_bound <= 1.0

    def test_all_equal_utilities_handled(self):
        vector = make_vector([2.0, 2.0, 2.0])
        result = tightest_accuracy_bound(vector, epsilon=1.0, t=2)
        assert 0.0 <= result.accuracy_bound <= 1.0

    def test_needs_two_candidates(self):
        with pytest.raises(BoundError):
            tightest_accuracy_bound(make_vector([1.0]), 1.0, 2)

    def test_zero_utilities_rejected(self):
        with pytest.raises(BoundError):
            tightest_accuracy_bound(make_vector([0.0, 0.0]), 1.0, 2)

    def test_long_tail_gives_harsh_bound(self):
        """One strong candidate among many zeros: the paper's typical node."""
        vector = make_vector([5.0] + [0.0] * 500)
        result = tightest_accuracy_bound(vector, epsilon=0.5, t=6)
        assert result.accuracy_bound < 0.25

    def test_bound_loosens_with_epsilon(self, simple_vector):
        low = tightest_accuracy_bound(simple_vector, 0.1, 4).accuracy_bound
        high = tightest_accuracy_bound(simple_vector, 3.0, 4).accuracy_bound
        assert high >= low


@given(
    epsilon=st.floats(0.01, 5.0),
    n=st.integers(10, 10**6),
    k=st.integers(1, 8),
    t=st.integers(1, 100),
    c=st.floats(0.1, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_property_corollary1_is_valid_accuracy(epsilon, n, k, t, c):
    bound = accuracy_upper_bound(epsilon, n, k, t, c=c)
    assert 0.0 <= bound <= 1.0
    # The bound can never be below the trivial 1 - c floor.
    assert bound >= 1.0 - c - 1e-12


def _dense_reference(values, epsilon, t):
    """The dense tightest-bound search over every candidate, zeros included.

    A test-local copy of the search the engine ran before support rows:
    ``threshold_splits`` over the full candidate vector, then the
    Corollary 1 curve with its saturation cutoff, minimized.
    """
    values = np.asarray(values, dtype=np.float64)
    u_max = values.max()
    sorted_values = np.sort(values)
    distinct = np.ones(sorted_values.size, dtype=bool)
    distinct[1:] = sorted_values[1:] != sorted_values[:-1]
    uniques = sorted_values[distinct]
    taus = uniques[uniques < u_max]
    if taus.size == 0:
        return 1.0
    ks = values.size - np.searchsorted(sorted_values, taus, side="right")
    cs = 1.0 - taus / u_max
    ks_f = ks.astype(np.float64)
    lows = float(values.size) - ks_f
    log_highs = epsilon * t + np.log(ks_f + 1.0)
    highs = np.exp(np.minimum(log_highs, 700.0))
    bounds = 1.0 - cs * lows / (lows + highs)
    return float(np.where(log_highs > 700.0, 1.0, bounds).min())


def _support_rows(rows):
    """Flat positive supports and zero counts of dense candidate rows."""
    supports = [np.asarray(values, dtype=np.float64) for values in rows]
    supports = [values[values > 0] for values in supports]
    offsets = np.cumsum([0] + [values.size for values in supports])
    zeros = [len(values) - support.size for values, support in zip(rows, supports)]
    flat = np.concatenate(supports) if supports else np.empty(0)
    return flat, offsets, zeros


#: Candidate rows: every value non-negative, at least two candidates and
#: a positive maximum; zeros are common (the paper's typical target).
_ROWS = st.lists(
    st.one_of(st.just(0.0), st.floats(0.0, 100.0, allow_nan=False, width=32)),
    min_size=2, max_size=20,
).filter(lambda values: max(values) > 0.0)


class TestMultiEpsilonBounds:
    def test_bounds_dict_matches_single_epsilon_calls(self, simple_vector):
        epsilons = (0.1, 0.5, 1.0, 3.0)
        shared = tightest_accuracy_bounds(simple_vector, epsilons, t=4)
        for eps in epsilons:
            single = tightest_accuracy_bound(simple_vector, eps, 4).accuracy_bound
            assert shared[eps] == single  # bit-identical, shared table

    def test_matrix_matches_single_calls(self, simple_vector):
        other = make_vector([3.0, 1.0, 0.0, 0.0, 0.0, 7.0])
        degenerate = make_vector([2.0, 2.0])
        vectors = [simple_vector, other, degenerate]
        ts = [4, 2, 3]
        epsilons = (0.25, 1.0, 2.0)
        matrix = support_bounds(
            *_support_rows([vector.values for vector in vectors]), ts, epsilons
        )
        assert matrix.shape == (3, 3)
        for row, (vector, t) in enumerate(zip(vectors, ts)):
            for col, eps in enumerate(epsilons):
                expected = tightest_accuracy_bound(vector, eps, t).accuracy_bound
                assert matrix[row, col] == expected

    def test_empty_inputs(self):
        assert support_bounds([], [0], [], [], (1.0,)).shape == (0, 1)
        assert support_bounds([1.0, 2.0], [0, 2], [0], [2], ()).shape == (1, 0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(BoundError):
            support_bounds([1.0, 2.0], [0, 2], [0], [], (1.0,))


class TestSupportBoundOracle:
    """The flat support kernel and the per-vector search must equal the
    dense all-candidates search bit for bit: the zero bucket is exactly
    one ``tau = 0`` threshold with ``k = |support|``."""

    def test_hand_rows(self):
        rows = [
            [3.0, 1.0, 0.0, 2.0, 3.0],
            [5.0, 5.0, 5.0],            # all tie at u_max: unconstrained
            [5.0, 5.0, 0.0],            # ties at u_max, bucket below
            [0.5, 0.25, 0.125, 4.0],    # no zero bucket
            [1.0] + [0.0] * 300,        # one strong candidate, long tail
        ]
        ts = [2, 3, 1, 4, 2]
        epsilons = (0.1, 1.0, 3.0, 50.0)  # 50*t saturates the exponent
        result = support_bounds(*_support_rows(rows), ts, epsilons)
        reference = [[_dense_reference(v, e, t) for e in epsilons] for v, t in zip(rows, ts)]
        np.testing.assert_array_equal(result, reference)

    @given(data=st.lists(_ROWS, min_size=1, max_size=8), t=st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    def test_property_flat_kernel_matches_dense_search(self, data, t):
        epsilons = (0.25, 1.0, 4.0)
        ts = [t + row for row in range(len(data))]
        result = support_bounds(*_support_rows(data), ts, epsilons)
        reference = [
            [_dense_reference(values, epsilon, row_t) for epsilon in epsilons]
            for values, row_t in zip(data, ts)
        ]
        np.testing.assert_array_equal(result, reference)

    @given(values=_ROWS, epsilon=st.floats(0.05, 40.0), t=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_property_per_vector_search_matches_dense_search(self, values, epsilon, t):
        expected = _dense_reference(values, epsilon, t)
        dense = make_vector(values)
        ids = np.flatnonzero(dense.values)
        support_form = UtilityVector.from_support(
            0, ids + 1, dense.values[ids], [0], len(values) + 1, 3
        )
        for vector in (dense, support_form):
            assert tightest_accuracy_bound(vector, epsilon, t).accuracy_bound == expected
            assert tightest_accuracy_bounds(vector, (epsilon,), t) == {epsilon: expected}

    def test_bucket_threshold_reported_first(self):
        """``tau = 0`` is the smallest threshold, so ties resolve to it as
        in the dense search's ascending table."""
        result = tightest_accuracy_bound(make_vector([4.0] + [0.0] * 50), 0.5, 5)
        assert (result.threshold, result.k, result.c) == (0.0, 1, 1.0)

    def test_validations(self):
        with pytest.raises(BoundError, match="two candidates"):
            support_bounds([2.0], [0, 1], [0], [1], (1.0,))
        with pytest.raises(BoundError, match="all utilities are zero"):
            support_bounds([], [0, 0], [3], [1], (1.0,))
        with pytest.raises(BoundError, match="t must be >= 1"):
            support_bounds([1.0, 2.0], [0, 2], [0], [0], (1.0,))
        with pytest.raises(BoundError, match="non-negative"):
            support_bounds([1.0, 2.0], [0, 2], [0], [1], (-1.0,))


class TestNanEpsilon:
    """Regression: ``epsilon < 0`` let NaN through, and every bound came
    back NaN instead of a typed error. ``epsilon = inf`` stays legal."""

    def test_scalar_bound(self):
        with pytest.raises(BoundError, match="nan"):
            accuracy_upper_bound(math.nan, 10, 2, 3)
        assert accuracy_upper_bound(math.inf, 10, 2, 3) == 1.0

    def test_tightest_bound(self, simple_vector):
        with pytest.raises(BoundError):
            tightest_accuracy_bound(simple_vector, math.nan, 4)
        with pytest.raises(BoundError):
            tightest_accuracy_bound(make_vector([2.0, 2.0]), math.nan, 4)
        with pytest.raises(BoundError):
            tightest_accuracy_bounds(simple_vector, (1.0, math.nan), 4)
        assert tightest_accuracy_bound(simple_vector, math.inf, 4).accuracy_bound == 1.0

    def test_flat_kernel(self):
        with pytest.raises(BoundError):
            support_bounds([1.0, 2.0], [0, 2], [3], [2], (math.nan,))
        np.testing.assert_array_equal(
            support_bounds([1.0, 2.0], [0, 2], [3], [2], (math.inf,)), [[1.0]]
        )
