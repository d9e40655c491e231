"""Full-pipeline integration tests.

Each test exercises several subsystems end to end: dataset generation ->
SNAP serialization -> experiment run -> result serialization -> reporting,
plus the cross-layer contract that a persisted run re-analyzes to the same
figure.
"""

from __future__ import annotations

import numpy as np

from repro.accuracy.evaluator import evaluate_targets, sample_targets
from repro.datasets import wiki_vote
from repro.experiments.cdf import empirical_cdf
from repro.experiments.config import ExperimentConfig
from repro.experiments.persistence import load_evaluations, save_evaluations
from repro.experiments.reporting import render_figure_table, summarize_figure
from repro.experiments.results import FigureResult, Series
from repro.experiments.runner import mechanism_key, run_experiment
from repro.graphs.io import read_edge_list, write_edge_list
from repro.mechanisms.exponential import ExponentialMechanism
from repro.utility.common_neighbors import CommonNeighbors


class TestGraphRoundTripPreservesExperiment:
    def test_snap_round_trip_preserves_utilities(self, tmp_path):
        graph = wiki_vote(scale=0.02)
        path = tmp_path / "wiki.txt"
        write_edge_list(graph, path, header="wiki replica, scale 0.02")
        reloaded = read_edge_list(path, num_nodes=graph.num_nodes)
        utility = CommonNeighbors()
        for target in (0, 5, 17):
            original = utility.utility_vector(graph, target)
            restored = utility.utility_vector(reloaded, target)
            np.testing.assert_array_equal(original.candidates, restored.candidates)
            np.testing.assert_allclose(original.values, restored.values)


class TestRunToFigureToDisk:
    def test_experiment_results_round_trip_and_render(self, tmp_path):
        config = ExperimentConfig(
            dataset="wiki_vote",
            scale=0.02,
            epsilons=(1.0,),
            max_targets=12,
            seed=5,
        )
        run = run_experiment(config)
        grid, cdf = empirical_cdf(run.accuracies(mechanism_key("exponential", 1.0)))
        figure = FigureResult(
            figure_id="integration",
            title="integration run",
            x_label="accuracy",
            y_label="fraction",
            series=(
                Series("Exponential eps=1", tuple(grid.tolist()), tuple(cdf.tolist())),
            ),
            metadata={"config": config.to_dict()},
        )
        path = tmp_path / "figure.json"
        figure.save_json(path)
        loaded = FigureResult.load_json(path)
        assert loaded == figure
        text = summarize_figure(loaded)
        assert "integration" in text
        assert render_figure_table(loaded).count("\n") >= 11


class TestPersistedEvaluationsReanalyze:
    def test_saved_records_rebuild_identical_cdf(self, tmp_path):
        graph = wiki_vote(scale=0.02)
        utility = CommonNeighbors()
        sensitivity = utility.sensitivity(graph, 0)
        mechanisms = {"exp": ExponentialMechanism(1.0, sensitivity=sensitivity)}
        targets = sample_targets(graph, 0.2, max_targets=15, seed=8)
        records = evaluate_targets(
            graph, utility, targets, mechanisms, bound_epsilons=(1.0,), seed=9
        )
        path = tmp_path / "records.jsonl"
        save_evaluations(records, path)
        reloaded = load_evaluations(path)
        original_cdf = empirical_cdf([r.accuracy_of("exp") for r in records])[1]
        reloaded_cdf = empirical_cdf([r.accuracy_of("exp") for r in reloaded])[1]
        np.testing.assert_allclose(original_cdf, reloaded_cdf)
        # bounds survive too
        assert [r.bound_at(1.0) for r in records] == [r.bound_at(1.0) for r in reloaded]
