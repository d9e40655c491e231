"""Tests for the experiment runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accuracy.evaluator import evaluate_targets, sample_targets
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_graph,
    build_mechanisms,
    build_utility,
    mechanism_key,
    run_experiment,
)
from tests.conftest import engine_in_pieces


@pytest.fixture(scope="module")
def small_run():
    config = ExperimentConfig(
        dataset="wiki_vote",
        scale=0.02,
        utility="common_neighbors",
        epsilons=(0.5, 1.0),
        max_targets=20,
        seed=3,
    )
    return run_experiment(config)


class TestBuilders:
    def test_build_graph_wiki(self):
        config = ExperimentConfig(dataset="wiki_vote", scale=0.02)
        graph = build_graph(config)
        assert not graph.is_directed
        assert graph.num_nodes == 142

    def test_build_graph_twitter(self):
        config = ExperimentConfig(
            dataset="twitter", scale=0.01, target_fraction=0.01
        )
        graph = build_graph(config)
        assert graph.is_directed

    def test_build_utility_weighted_paths(self):
        config = ExperimentConfig(utility="weighted_paths", gamma=0.05)
        utility = build_utility(config)
        assert utility.gamma == 0.05
        assert utility.max_length == 3

    def test_build_mechanisms_keys(self):
        config = ExperimentConfig(epsilons=(0.5, 1.0))
        mechanisms = build_mechanisms(config, sensitivity=2.0)
        assert set(mechanisms) == {
            "exponential@0.5",
            "laplace@0.5",
            "exponential@1",
            "laplace@1",
        }

    def test_laplace_excluded_when_disabled(self):
        config = ExperimentConfig(epsilons=(1.0,), include_laplace=False)
        mechanisms = build_mechanisms(config, sensitivity=2.0)
        assert set(mechanisms) == {"exponential@1"}

    def test_mechanism_key_format(self):
        assert mechanism_key("exponential", 0.5) == "exponential@0.5"
        assert mechanism_key("laplace", 3.0) == "laplace@3"


class TestRunExperiment:
    def test_run_produces_evaluations(self, small_run):
        assert small_run.num_targets_evaluated > 0
        assert small_run.num_targets_evaluated <= small_run.num_targets_sampled
        assert small_run.sensitivity == 2.0
        assert small_run.elapsed_seconds > 0

    def test_accuracy_arrays(self, small_run):
        exp = small_run.accuracies("exponential@1")
        lap = small_run.accuracies("laplace@1")
        assert exp.shape == lap.shape
        assert np.all((0 <= exp) & (exp <= 1))

    def test_bounds_recorded_per_epsilon(self, small_run):
        for eps in (0.5, 1.0):
            bounds = small_run.bounds(eps)
            assert bounds.size == small_run.num_targets_evaluated
            assert np.all((0 <= bounds) & (bounds <= 1))

    def test_epsilon_one_dominates_half(self, small_run):
        """More privacy budget must help on average."""
        assert small_run.accuracies("exponential@1").mean() >= (
            small_run.accuracies("exponential@0.5").mean()
        )

    def test_deterministic_given_seed(self):
        config = ExperimentConfig(
            dataset="wiki_vote", scale=0.02, epsilons=(1.0,),
            max_targets=5, seed=11,
        )
        a = run_experiment(config)
        b = run_experiment(config)
        assert np.array_equal(a.accuracies("laplace@1"), b.accuracies("laplace@1"))

    def test_reused_graph(self, small_run):
        config = ExperimentConfig(
            dataset="wiki_vote", scale=0.02, epsilons=(1.0,),
            max_targets=5, seed=11,
        )
        graph = build_graph(config)
        run = run_experiment(config, graph=graph)
        assert run.num_nodes == graph.num_nodes


class TestEngineSelection:
    def test_batched_and_sequential_engines_identical(self):
        config = ExperimentConfig(
            dataset="wiki_vote", scale=0.02, epsilons=(0.5, 1.0),
            max_targets=15, seed=13,
        )
        graph = build_graph(config)
        batched = run_experiment(config, graph=graph)
        utility = build_utility(config)
        sequential = evaluate_targets(
            graph,
            utility,
            sample_targets(
                graph, config.target_fraction, seed=config.seed,
                max_targets=config.max_targets,
            ),
            build_mechanisms(config, utility.sensitivity(graph, 0)),
            bound_epsilons=tuple(config.epsilons),
            seed=config.seed + 1,
        )
        assert batched.evaluations == sequential
        assert batched.num_targets_evaluated == len(sequential)

    def test_sharded_run_identical_to_serial(self):
        """Engine calls on 4- and 1-target pieces of the run's sampled
        targets, concatenated, are the run's evaluations."""
        config = ExperimentConfig(
            dataset="wiki_vote", scale=0.02, epsilons=(0.5, 1.0),
            max_targets=15, seed=13,
        )
        graph = build_graph(config)
        serial = run_experiment(config, graph=graph)
        utility = build_utility(config)
        mechanisms = build_mechanisms(config, utility.sensitivity(graph, 0))
        targets = sample_targets(
            graph, fraction=config.target_fraction, seed=config.seed,
            max_targets=config.max_targets,
        )
        for rows in (4, 1):
            sharded = engine_in_pieces(
                graph, utility, targets, mechanisms, rows,
                bound_epsilons=tuple(config.epsilons), seed=config.seed + 1,
            )
            assert sharded == serial.evaluations
