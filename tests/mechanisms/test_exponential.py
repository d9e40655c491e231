"""Tests for the Exponential mechanism (Definition 5)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axioms.monotonicity import check_probability_monotonicity
from repro.errors import MechanismError
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


#: The accuracy kernel's documented distance from an exact-sum reference.
ORACLE_RTOL = 1e-12


def _fsum_accuracy(values, epsilon: float, sensitivity: float = 1.0) -> float:
    """The paper's ``sum_i p_i u_i / u_max`` over every candidate, with
    exactly rounded sums: the dense reference of the support kernel."""
    values = [float(value) for value in np.asarray(values)]
    u_max = max(values)
    scale = epsilon / sensitivity
    weights = [math.exp(scale * value - scale * u_max) for value in values]
    numerator = math.fsum(w * (value / u_max) for w, value in zip(weights, values))
    return numerator / math.fsum(weights)


def _support_form(vector: UtilityVector) -> UtilityVector:
    """The same row stored support-form (candidates are ids 100.. here)."""
    ids, values = vector.support()
    num_nodes = 100 + len(vector)
    return UtilityVector.from_support(
        vector.target, ids, values, np.arange(100), num_nodes, vector.target_degree
    )


class TestSupportAccuracyOracle:
    """``expected_accuracy`` is the one-row case of the flat support
    kernel: ``sum w u / u_max / (sum w + |Z| e^{-shift})``. It rounds
    differently from the dense normalize-then-dot form, so it is held to
    an exact-sum reference instead."""

    @pytest.mark.parametrize(
        "values, epsilon",
        [
            ([5.0, 3.0, 1.0, 1.0, 0.0], 0.5),
            ([3.0, 1.0, 2.0, 7.0], 1.0),             # |Z| = 0
            ([2.0] + [0.0] * 5_000, 0.3),            # long zero tail
            ([1000.0, 999.0, 0.0, 0.0], 5.0),        # e^{-shift} underflows
            ([1e-300, 0.0, 5e-301], 1.0),            # subnormal-scale utilities
        ],
    )
    def test_dense_and_support_forms_match_fsum(self, values, epsilon):
        mechanism = ExponentialMechanism(epsilon, sensitivity=1.0)
        dense = make_vector(values)
        expected = _fsum_accuracy(values, epsilon)
        got = mechanism.expected_accuracy(dense)
        assert got == pytest.approx(expected, rel=ORACLE_RTOL, abs=0.0)
        assert mechanism.expected_accuracy(_support_form(dense)) == got

    def test_underflowing_bucket_adds_nothing(self):
        mechanism = ExponentialMechanism(5.0)
        with_bucket = mechanism.expected_accuracy(make_vector([1000.0, 999.0, 0.0, 0.0]))
        without = mechanism.expected_accuracy(make_vector([1000.0, 999.0]))
        assert with_bucket == without

    def test_float32_rows(self):
        values = np.asarray([7.0, 3.5, 0.1, 0.0, 0.0, 2.25], dtype=np.float32)
        vector = UtilityVector(0, np.arange(values.size), values, 2)
        assert vector.values.dtype == np.float32
        mechanism = ExponentialMechanism(1.3, sensitivity=2.0)
        expected = _fsum_accuracy(values.astype(np.float64), 1.3, 2.0)
        got = mechanism.expected_accuracy(vector)
        assert got == pytest.approx(expected, rel=ORACLE_RTOL, abs=0.0)
        assert got == mechanism.expected_accuracy(
            UtilityVector(0, np.arange(values.size), values.astype(np.float64), 2)
        )

    @given(
        rows=st.lists(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.0, 50.0, allow_nan=False)),
                min_size=1, max_size=30,
            ).filter(lambda values: max(values) > 0.0),
            min_size=1, max_size=6,
        ),
        epsilon=st.floats(0.01, 20.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_flat_rows_match_fsum_and_one_row_calls(self, rows, epsilon):
        mechanism = ExponentialMechanism(epsilon, sensitivity=2.0)
        vectors = [make_vector(values) for values in rows]
        supports = [vector.support()[1] for vector in vectors]
        offsets = np.cumsum([0] + [support.size for support in supports])
        flat = mechanism.support_accuracies(
            np.concatenate(supports), offsets, [v.zero_count for v in vectors]
        )
        for row, (values, vector) in enumerate(zip(rows, vectors)):
            # A row's value does not depend on the rows around it.
            assert flat[row] == mechanism.expected_accuracy(vector)
            assert flat[row] == pytest.approx(
                _fsum_accuracy(values, epsilon, 2.0), rel=ORACLE_RTOL, abs=0.0
            )

    def test_graph_rows_match_fsum(self):
        """Every wiki-vote (scale 0.1) target with common neighbours, at
        three epsilons."""
        from repro.datasets import wiki_vote
        from repro.utility.common_neighbors import CommonNeighbors

        graph = wiki_vote(scale=0.1)
        utility = CommonNeighbors()
        checked = 0
        for target in range(graph.num_nodes):
            vector = utility.utility_vector(graph, target)
            if len(vector) < 2 or not vector.has_signal():
                continue
            for epsilon in (0.5, 1.0, 3.0):
                mechanism = ExponentialMechanism(epsilon, sensitivity=2.0)
                assert mechanism.expected_accuracy(vector) == pytest.approx(
                    _fsum_accuracy(vector.values, epsilon, 2.0), rel=ORACLE_RTOL, abs=0.0
                )
            checked += 1
        assert checked > 100

    def test_empty_input_and_zero_rows(self):
        mechanism = ExponentialMechanism(1.0)
        assert mechanism.support_accuracies([], [0], []).shape == (0,)
        with pytest.raises(MechanismError):
            mechanism.expected_accuracy(make_vector([0.0, 0.0]))
