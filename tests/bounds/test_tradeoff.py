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
    tightest_accuracy_bound,
    tightest_accuracy_bounds,
    tightest_accuracy_bounds_masked,
)
from repro.errors import BoundError
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


def _pack_rows(rows):
    """Pack ragged per-row candidate values into scores/mask arrays."""
    num_nodes = max((len(values) for values in rows), default=0) + 3
    scores = np.zeros((len(rows), num_nodes))
    mask = np.zeros((len(rows), num_nodes), dtype=bool)
    for index, values in enumerate(rows):
        columns = np.arange(1, 1 + len(values))
        scores[index, columns] = values
        mask[index, columns] = True
    return scores, mask


def _masked_bounds(rows, ts, epsilons):
    """The engine's masked search with every row of ``rows`` kept."""
    scores, mask = _pack_rows(rows)
    return tightest_accuracy_bounds_masked(
        scores, mask, np.arange(len(rows)),
        np.asarray([len(values) for values in rows], dtype=np.int64),
        np.asarray([max(values) for values in rows], dtype=np.float64),
        np.asarray(ts, dtype=np.int64), epsilons,
    )


class TestMultiEpsilonBounds:
    def test_bounds_dict_matches_single_epsilon_calls(self, simple_vector):
        epsilons = (0.1, 0.5, 1.0, 3.0)
        shared = tightest_accuracy_bounds(simple_vector, epsilons, t=4)
        for eps in epsilons:
            single = tightest_accuracy_bound(simple_vector, eps, 4).accuracy_bound
            assert shared[eps] == single  # bit-identical, shared table

    def test_batch_matrix_matches_single_calls(self, simple_vector):
        other = make_vector([3.0, 1.0, 0.0, 0.0, 0.0, 7.0])
        degenerate = make_vector([2.0, 2.0])
        vectors = [simple_vector, other, degenerate]
        ts = [4, 2, 3]
        epsilons = (0.25, 1.0, 2.0)
        matrix = _masked_bounds([vector.values for vector in vectors], ts, epsilons)
        assert matrix.shape == (3, 3)
        for row, (vector, t) in enumerate(zip(vectors, ts)):
            for col, eps in enumerate(epsilons):
                expected = tightest_accuracy_bound(vector, eps, t).accuracy_bound
                assert matrix[row, col] == expected

    def test_batch_empty_inputs(self):
        assert _masked_bounds([], [], (1.0,)).shape == (0, 1)
        assert _masked_bounds([[1.0, 2.0]], [2], ()).shape == (1, 0)

    def test_batch_mismatched_lengths_rejected(self):
        with pytest.raises(BoundError):
            _masked_bounds([[1.0, 2.0]], [], (1.0,))

    @given(
        values=st.lists(st.floats(0.0, 30.0), min_size=2, max_size=25),
        epsilon=st.floats(0.05, 4.0),
        t=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_batch_equals_sequential_search(self, values, epsilon, t):
        if max(values) <= 0.0:
            values = values + [1.0]
        matrix = _masked_bounds([values], [t], (epsilon,))
        single = tightest_accuracy_bound(make_vector(values), epsilon, t).accuracy_bound
        assert matrix[0, 0] == single


class TestMaskedBatchKernel:
    """The engine's masked Corollary 1 search must equal the per-vector
    :func:`tightest_accuracy_bound` bit for bit (same thresholds, same
    ks, same curve arithmetic) for arbitrary candidate sets."""

    def _reference(self, rows, ts, epsilons):
        return np.asarray([
            [
                tightest_accuracy_bound(make_vector(values), epsilon, t).accuracy_bound
                for epsilon in epsilons
            ]
            for values, t in zip(rows, ts)
        ]).reshape(len(rows), len(epsilons))

    def test_matches_per_vector_batch(self):
        rows = [
            [3.0, 1.0, 0.0, 2.0, 3.0],
            [5.0, 5.0, 5.0],            # all tie at u_max: unconstrained
            [0.5, 0.25, 0.125, 4.0],
            [1.0, 2.0],
        ]
        ts = [2, 3, 1, 4]
        epsilons = (0.1, 1.0, 3.0, 50.0)  # 50*t saturates the exponent
        scores, mask = _pack_rows(rows)
        kept = np.arange(len(rows))
        counts = np.asarray([len(values) for values in rows])
        u_maxes = np.asarray([max(values) for values in rows])
        result = tightest_accuracy_bounds_masked(
            scores, mask, kept, counts, u_maxes, np.asarray(ts), epsilons
        )
        np.testing.assert_array_equal(result, self._reference(rows, ts, epsilons))

    def test_dropped_rows_are_skipped(self):
        rows = [
            [0.0, 0.0, 0.0],            # zero signal: dropped upstream
            [4.0, 1.0, 2.0],
            [7.0],                      # single candidate: dropped upstream
            [2.0, 9.0, 9.0, 3.0],
        ]
        scores, mask = _pack_rows(rows)
        kept = np.asarray([1, 3])
        counts = np.asarray([3, 4])
        u_maxes = np.asarray([4.0, 9.0])
        ts = np.asarray([2, 5])
        result = tightest_accuracy_bounds_masked(
            scores, mask, kept, counts, u_maxes, ts, (0.5, 2.0)
        )
        reference = self._reference([rows[1], rows[3]], [2, 5], (0.5, 2.0))
        np.testing.assert_array_equal(result, reference)

    @given(
        data=st.lists(
            st.lists(
                st.floats(0.0, 100.0, allow_nan=False, width=32),
                min_size=2, max_size=20,
            ).filter(lambda values: max(values) > 0.0),
            min_size=1, max_size=8,
        ),
        t=st.integers(1, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_reference(self, data, t):
        ts = [t] * len(data)
        epsilons = (0.25, 1.0, 4.0)
        scores, mask = _pack_rows(data)
        kept = np.arange(len(data))
        counts = np.asarray([len(values) for values in data])
        u_maxes = np.asarray([max(values) for values in data])
        result = tightest_accuracy_bounds_masked(
            scores, mask, kept, counts, u_maxes, np.asarray(ts), epsilons
        )
        np.testing.assert_array_equal(result, self._reference(data, ts, epsilons))

    def test_validations_match_reference(self):
        scores, mask = _pack_rows([[1.0, 2.0]])
        kept = np.asarray([0])
        with pytest.raises(BoundError):
            tightest_accuracy_bounds_masked(
                scores, mask, kept, np.asarray([1]), np.asarray([2.0]),
                np.asarray([1]), (1.0,),
            )
        with pytest.raises(BoundError):
            tightest_accuracy_bounds_masked(
                scores, mask, kept, np.asarray([2]), np.asarray([0.0]),
                np.asarray([1]), (1.0,),
            )
        with pytest.raises(BoundError):
            tightest_accuracy_bounds_masked(
                scores, mask, kept, np.asarray([2]), np.asarray([2.0]),
                np.asarray([0]), (1.0,),
            )
        with pytest.raises(BoundError):
            tightest_accuracy_bounds_masked(
                scores, mask, kept, np.asarray([2]), np.asarray([2.0]),
                np.asarray([1]), (-1.0,),
            )
