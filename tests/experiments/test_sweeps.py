"""Tests for the epsilon/gamma sweep experiments."""

from __future__ import annotations

import pytest

import numpy as np

from repro.accuracy.batch import evaluate_targets_batched
from repro.errors import ExperimentError, UtilityError
from repro.experiments.sweeps import epsilon_sweep, gamma_sweep, sweep_to_figure
from repro.graphs.generators import erdos_renyi_gnp
from repro.mechanisms.exponential import ExponentialMechanism
from repro.utility.common_neighbors import CommonNeighbors
from repro.utility.weighted_paths import WeightedPaths
from tests.conftest import engine_in_pieces


@pytest.fixture(scope="module")
def sweep_graph():
    return erdos_renyi_gnp(60, 0.12, seed=9)


class TestEpsilonSweep:
    def test_monotone_trade_off(self, sweep_graph):
        points = epsilon_sweep(
            sweep_graph,
            CommonNeighbors(),
            targets=list(range(20)),
            epsilons=(0.2, 0.5, 1.0, 3.0),
        )
        means = [p.mean_accuracy for p in points]
        bounds = [p.mean_bound for p in points]
        assert means == sorted(means)
        assert bounds == sorted(bounds)

    def test_percentiles_ordered(self, sweep_graph):
        points = epsilon_sweep(
            sweep_graph, CommonNeighbors(), targets=list(range(20)), epsilons=(1.0,)
        )
        point = points[0]
        assert point.p10_accuracy <= point.median_accuracy + 1e-12
        assert 0.0 <= point.p10_accuracy <= 1.0

    def test_invalid_epsilons(self, sweep_graph):
        with pytest.raises(ExperimentError):
            epsilon_sweep(sweep_graph, CommonNeighbors(), [0], epsilons=())
        with pytest.raises(ExperimentError):
            epsilon_sweep(sweep_graph, CommonNeighbors(), [0], epsilons=(0.0,))

    def test_no_signal_targets_rejected(self):
        empty = erdos_renyi_gnp(10, 0.0, seed=0)
        with pytest.raises(ExperimentError):
            epsilon_sweep(empty, CommonNeighbors(), targets=[0, 1])


class TestGammaSweep:
    def test_sensitivity_monotone_in_gamma(self, sweep_graph):
        results = gamma_sweep(
            sweep_graph, targets=list(range(15)), gammas=(0.0005, 0.005, 0.05)
        )
        sensitivities = [s for _, s, _ in results]
        assert sensitivities == sorted(sensitivities)

    def test_accuracy_degrades_with_gamma(self, sweep_graph):
        results = gamma_sweep(
            sweep_graph, targets=list(range(15)), gammas=(0.0001, 0.05)
        )
        assert results[-1][2] <= results[0][2] + 0.05

    def test_invalid_gammas(self, sweep_graph):
        with pytest.raises(ExperimentError):
            gamma_sweep(sweep_graph, [0], gammas=(-0.1,))


@pytest.mark.parametrize("offset", [-1, 0, 5], ids=["minus-one", "n", "n-plus-5"])
@pytest.mark.parametrize("sweep", ["epsilon", "gamma"])
def test_out_of_range_targets_raise_utility_error(sweep_graph, sweep, offset):
    bad = -1 if offset < 0 else sweep_graph.num_nodes + offset
    with pytest.raises(UtilityError):
        if sweep == "epsilon":
            epsilon_sweep(sweep_graph, CommonNeighbors(), [0, bad])
        else:
            gamma_sweep(sweep_graph, [0, bad])


class TestSweepToFigure:
    def test_packaging(self, sweep_graph):
        points = epsilon_sweep(
            sweep_graph, CommonNeighbors(), targets=list(range(10)), epsilons=(0.5, 1.0)
        )
        figure = sweep_to_figure(points, "sweep", "Epsilon sweep")
        assert {s.label for s in figure.series} == {
            "mean accuracy",
            "median accuracy",
            "p10 accuracy",
            "mean Corollary-1 bound",
        }
        assert figure.series[0].x == (0.5, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            sweep_to_figure([], "x", "y")


class TestSweepSharding:
    """A sweep point aggregates per-target values that engine calls on
    any partition of the targets reproduce, concatenated, bit for bit."""

    @pytest.mark.parametrize("rows", [4, 1, 6], ids=lambda r: f"rows={r}")
    def test_epsilon_sweep_identical_when_sharded(self, sweep_graph, rows):
        targets = list(range(20))
        epsilons = (0.5, 1.0, 3.0)
        utility = CommonNeighbors()
        points = epsilon_sweep(sweep_graph, utility, targets, epsilons)
        sensitivity = utility.sensitivity(sweep_graph, 0)
        mechanisms = {
            str(eps): ExponentialMechanism(eps, sensitivity=sensitivity) for eps in epsilons
        }
        pieces = engine_in_pieces(
            sweep_graph, utility, targets, mechanisms, rows, bound_epsilons=epsilons,
        )
        for point, eps in zip(points, epsilons):
            accuracies = np.asarray([e.accuracies[str(eps)] for e in pieces])
            bounds = np.asarray([e.theoretical_bounds[eps] for e in pieces])
            assert point.mean_accuracy == float(accuracies.mean())
            assert point.median_accuracy == float(np.median(accuracies))
            assert point.p10_accuracy == float(np.percentile(accuracies, 10))
            assert point.mean_bound == float(bounds.mean())

    @pytest.mark.parametrize("rows", [4, 5, 1], ids=lambda r: f"rows={r}")
    def test_gamma_sweep_identical_when_sharded(self, sweep_graph, rows):
        targets = list(range(15))
        gammas = (0.0005, 0.05)
        for gamma, sensitivity, mean_accuracy in gamma_sweep(
            sweep_graph, targets, gammas=gammas
        ):
            mechanisms = {"exp": ExponentialMechanism(1.0, sensitivity=sensitivity)}
            pieces = engine_in_pieces(
                sweep_graph, WeightedPaths(gamma=gamma), targets, mechanisms, rows,
            )
            assert mean_accuracy == float(np.mean([e.accuracies["exp"] for e in pieces]))

    def test_no_signal_rejected(self):
        from repro.graphs.generators import erdos_renyi_gnp as gnp

        empty = gnp(10, 0.0, seed=0)
        with pytest.raises(ExperimentError):
            epsilon_sweep(empty, CommonNeighbors(), targets=[0, 1])
        with pytest.raises(ExperimentError):
            gamma_sweep(empty, targets=[0, 1])
        with pytest.raises(ExperimentError):
            gamma_sweep(empty, targets=[])


class TestSweepBatchingEquivalence:
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_gamma_sweep_equals_the_engine_mean_per_gamma(self, directed):
        """Each point is the mean exponential accuracy of one engine call
        with that gamma's weighted paths, gamma = 0 included, bit for bit."""
        from repro.datasets import twitter, wiki_vote

        graph = twitter(scale=0.05) if directed else wiki_vote(scale=0.03)
        targets = list(range(0, graph.num_nodes, 4))
        gammas = (0.0, 0.0001, 0.005, 0.05)
        swept = gamma_sweep(graph, targets, gammas=gammas, epsilon=0.5)
        assert [gamma for gamma, _, _ in swept] == list(gammas)
        for gamma, sensitivity, mean_accuracy in swept:
            utility = WeightedPaths(gamma=gamma)
            assert sensitivity == utility.sensitivity(graph, 0)
            mechanisms = {"exp": ExponentialMechanism(0.5, sensitivity=sensitivity)}
            evaluations = evaluate_targets_batched(graph, utility, targets, mechanisms)
            expected = np.asarray([e.accuracies["exp"] for e in evaluations]).mean()
            assert mean_accuracy == float(expected)

    def test_gamma_sweep_matches_direct_per_gamma_evaluation(self, sweep_graph):
        """The shared walk rows must reproduce what building each
        WeightedPaths utility from scratch produces."""
        targets = list(range(15))
        gammas = (0.0, 0.0005, 0.05)
        swept = gamma_sweep(sweep_graph, targets, gammas=gammas, epsilon=1.0)
        for (gamma, sensitivity, mean_accuracy) in swept:
            utility = WeightedPaths(gamma=gamma)
            assert sensitivity == utility.sensitivity(sweep_graph, 0)
            mechanism = ExponentialMechanism(1.0, sensitivity=sensitivity)
            accuracies = []
            for target in targets:
                vector = utility.utility_vector(sweep_graph, target)
                if len(vector) >= 2 and vector.has_signal():
                    accuracies.append(mechanism.expected_accuracy(vector))
            assert mean_accuracy == np.asarray(accuracies).mean()

    def test_epsilon_sweep_matches_direct_evaluation(self, sweep_graph):
        utility = CommonNeighbors()
        targets = list(range(12))
        points = epsilon_sweep(sweep_graph, utility, targets, epsilons=(0.5, 2.0))
        sensitivity = utility.sensitivity(sweep_graph, 0)
        vectors = [
            v
            for v in (utility.utility_vector(sweep_graph, t) for t in targets)
            if len(v) >= 2 and v.has_signal()
        ]
        for point in points:
            mechanism = ExponentialMechanism(point.parameter, sensitivity=sensitivity)
            expected = np.asarray([mechanism.expected_accuracy(v) for v in vectors])
            assert point.mean_accuracy == expected.mean()
