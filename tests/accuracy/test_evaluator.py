"""Tests for the per-target accuracy evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accuracy.evaluator import (
    evaluate_target,
    evaluate_targets,
    sample_targets,
)
from repro.errors import ExperimentError
from repro.graphs.generators import erdos_renyi_gnp
from repro.mechanisms.best import BestMechanism
from repro.mechanisms.exponential import ExponentialMechanism
from repro.mechanisms.laplace import LaplaceMechanism
from repro.utility.common_neighbors import CommonNeighbors


@pytest.fixture
def mechanisms(example_graph):
    utility = CommonNeighbors()
    sensitivity = utility.sensitivity(example_graph, 0)
    return {
        "exponential@1": ExponentialMechanism(1.0, sensitivity=sensitivity),
        "laplace@1": LaplaceMechanism(1.0, sensitivity=sensitivity),
        "best": BestMechanism(),
    }


class TestEvaluateTarget:
    def test_record_fields(self, example_graph, mechanisms):
        record = evaluate_target(
            example_graph,
            CommonNeighbors(),
            0,
            mechanisms,
            bound_epsilons=(1.0,),
            seed=0,
        )
        assert record is not None
        assert record.target == 0
        assert record.degree == 3
        assert record.u_max == 2.0
        assert record.t == CommonNeighbors().experimental_t(
            CommonNeighbors().utility_vector(example_graph, 0)
        )
        assert set(record.accuracies) == {"exponential@1", "laplace@1", "best"}
        assert record.accuracy_of("best") == 1.0
        assert 0.0 < record.bound_at(1.0) <= 1.0

    def test_no_signal_target_skipped(self, example_graph, mechanisms):
        # Node 10's only link is 11; no two-hop neighbors -> all-zero vector.
        record = evaluate_target(
            example_graph, CommonNeighbors(), 10, mechanisms, seed=0
        )
        assert record is None

    def test_unknown_mechanism_lookup_raises(self, example_graph, mechanisms):
        record = evaluate_target(
            example_graph, CommonNeighbors(), 0, mechanisms, bound_epsilons=(1.0,), seed=0
        )
        with pytest.raises(ExperimentError):
            record.accuracy_of("nonexistent")
        with pytest.raises(ExperimentError):
            record.bound_at(9.9)

    def test_private_mechanisms_below_best(self, example_graph, mechanisms):
        record = evaluate_target(
            example_graph, CommonNeighbors(), 0, mechanisms, seed=0
        )
        assert record.accuracy_of("exponential@1") < 1.0
        assert record.accuracy_of("laplace@1") < 1.0


class TestEvaluateTargets:
    def test_results_independent_of_batch_composition(self, example_graph, mechanisms):
        """Per-target RNG streams: evaluating [0, 4] and [0] alone must give
        node 0 the same Laplace accuracy."""
        both = evaluate_targets(
            example_graph, CommonNeighbors(), [0, 4], mechanisms, seed=7
        )
        alone = evaluate_targets(
            example_graph, CommonNeighbors(), [0], mechanisms, seed=7
        )
        assert both[0].accuracies == alone[0].accuracies

    def test_skips_no_signal_targets(self, example_graph, mechanisms):
        records = evaluate_targets(
            example_graph, CommonNeighbors(), [0, 10], mechanisms, seed=7
        )
        assert [r.target for r in records] == [0]


class TestSampleTargets:
    def test_respects_fraction_and_cap(self):
        g = erdos_renyi_gnp(100, 0.1, seed=0)
        targets = sample_targets(g, fraction=0.1, seed=1)
        assert targets.size == 10
        capped = sample_targets(g, fraction=0.5, max_targets=7, seed=1)
        assert capped.size == 7

    def test_excludes_low_degree(self):
        g = erdos_renyi_gnp(60, 0.05, seed=2)
        targets = sample_targets(g, fraction=1.0, min_degree=2, seed=3)
        for t in targets:
            assert g.degree(int(t)) >= 2

    def test_deterministic_given_seed(self):
        g = erdos_renyi_gnp(80, 0.1, seed=4)
        a = sample_targets(g, 0.2, seed=9)
        b = sample_targets(g, 0.2, seed=9)
        assert np.array_equal(a, b)

    def test_invalid_fraction(self):
        g = erdos_renyi_gnp(10, 0.2, seed=5)
        with pytest.raises(ExperimentError):
            sample_targets(g, 0.0)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_non_positive_cap_names_the_value(self, cap):
        """Regression: a negative cap ended in numpy's untyped "negative
        dimensions are not allowed", and 0 failed later and elsewhere."""
        g = erdos_renyi_gnp(10, 0.2, seed=5)
        with pytest.raises(ExperimentError, match=f"max_targets must be >= 1, got {cap}"):
            sample_targets(g, 0.5, max_targets=cap, seed=1)

    def test_sorted_output(self):
        g = erdos_renyi_gnp(80, 0.1, seed=6)
        targets = sample_targets(g, 0.3, seed=10)
        assert np.array_equal(targets, np.sort(targets))
