"""Tests for float64-only compute and the byte budget across the hot paths.

The contract (DESIGN.md, "memory dataflow"):

* the experiment engine computes in float64 from support rows and is
  bit-identical to the sequential reference, whatever the byte budget;
* serving runs in float64 too: its picks are identical at every
  budget, and its cached rows are float64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accuracy.batch import evaluate_targets_batched
from repro.accuracy.evaluator import evaluate_targets, sample_targets
from repro.datasets import wiki_vote
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_mechanisms, build_utility
from repro.serving import RecommendationService
from repro.streaming import StreamingService, replay_stream, synthetic_event_stream
from repro.utility.weighted_paths import WeightedPaths

BOUND_EPSILONS = (0.1, 0.5, 1.0, 3.0)

#: Rows per chunk the budget is set to (None: the default budget).
BUDGET_ROWS = [None, 9, 1]


@pytest.fixture(scope="module")
def workload():
    graph = wiki_vote(scale=0.06)
    config = ExperimentConfig(
        scale=0.06, epsilons=(0.5, 1.0), include_laplace=True,
        target_fraction=0.3, max_targets=None,
    )
    utility = build_utility(config)
    mechanisms = build_mechanisms(config, utility.sensitivity(graph, 0))
    targets = sample_targets(graph, 0.3, seed=7)
    return graph, utility, mechanisms, targets


def engine(workload, **kwargs):
    graph, utility, mechanisms, targets = workload
    return evaluate_targets_batched(
        graph, utility, targets, mechanisms,
        bound_epsilons=BOUND_EPSILONS, seed=11, **kwargs,
    )


class TestEngineFloat64:
    def test_engine_matches_sequential(self, workload):
        graph, utility, mechanisms, targets = workload
        sequential = evaluate_targets(
            graph, utility, targets, mechanisms,
            bound_epsilons=BOUND_EPSILONS, seed=11,
        )
        assert engine(workload) == sequential

    @pytest.mark.parametrize("rows", BUDGET_ROWS)
    def test_float64_identical_across_budgets(self, workload, budget_rows, rows):
        reference = engine(workload)
        budget_rows(workload[0].num_nodes, rows)
        assert engine(workload) == reference

    @pytest.mark.parametrize("rows", [9, 1])
    def test_weighted_paths_identical_across_budgets(self, workload, budget_rows, rows):
        """Weighted paths fills its sparse score rows through budget-sized
        dense blocks (the default ``support_scores``)."""
        graph, _, mechanisms, targets = workload
        utility = WeightedPaths(gamma=0.005)

        def run():
            return evaluate_targets_batched(
                graph, utility, targets, mechanisms,
                bound_epsilons=BOUND_EPSILONS, seed=11,
            )

        reference = run()
        budget_rows(graph.num_nodes, rows)
        assert run() == reference

    def test_engine_takes_no_dtype(self, workload):
        with pytest.raises(TypeError):
            engine(workload, dtype="float64")


#: Serving utilities: common neighbors fills in one sparse pass; weighted
#: paths fills through the budget-chunked dense paths (the default
#: ``support_scores``, and a patching cache's component fill).
SERVING_UTILITIES = ["common_neighbors", WeightedPaths(gamma=0.005)]


class TestServingBudget:
    @pytest.mark.parametrize("utility", SERVING_UTILITIES, ids=["cn", "wp"])
    def test_recommend_batch_identical_across_budgets(self, budget_rows, utility):
        graph = wiki_vote(scale=0.05)
        users = list(range(0, graph.num_nodes, 3)) * 2

        def picks():
            service = RecommendationService(
                graph, utility, epsilon=0.5, user_budget=1e9, seed=42
            )
            responses = service.recommend_batch(users)
            return [r.recommendations for r in responses], service.cache.snapshot()

        reference = picks()
        budget_rows(graph.num_nodes, 7)
        assert picks() == reference

    def test_service_serves_float64_rows(self):
        graph = wiki_vote(scale=0.05)
        service = RecommendationService(graph, seed=0)
        assert service.recommend(1).status == "served"
        assert len(service.recommend_top_k(2, k=3).recommendations) == 3
        service.recommend_batch([3, 4])
        for user in (1, 2, 3, 4):
            assert service.cache.get_resident(user).values.dtype == np.float64


class TestStreamingBudget:
    @pytest.mark.parametrize("utility", SERVING_UTILITIES, ids=["cn", "wp"])
    def test_replay_stream_identical_across_budgets(self, budget_rows, utility):
        graph = wiki_vote(scale=0.04)

        def picks():
            service = StreamingService(
                graph, utility, epsilon=0.5, user_budget=1e9, seed=3
            )
            events = synthetic_event_stream(
                graph, 120, add_fraction=0.1, remove_fraction=0.05, seed=5
            )
            recorded = []
            replay_stream(
                service, events, batch_size=16,
                on_response=lambda r: recorded.append(r.recommendations),
            )
            return recorded, service.cache.snapshot()

        reference = picks()
        budget_rows(graph.num_nodes, 5)
        assert picks() == reference

    def test_streaming_cache_stores_float64(self):
        graph = wiki_vote(scale=0.04)
        service = StreamingService(graph, seed=0)
        service.service.recommend(2)
        cached = service.service.cache.get_resident(2)
        assert cached.values.dtype == np.float64
