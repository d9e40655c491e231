"""Tests for float64-only compute and split invariance across the hot paths.

The contract (DESIGN.md, "memory dataflow"):

* the experiment engine computes in float64 from support rows and is
  bit-identical to the sequential reference, however the targets are
  split across calls;
* serving runs in float64 too: its picks are identical however the
  requests are split into batches, and its cached rows are float64.
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
from tests.conftest import chunks, engine_in_pieces

BOUND_EPSILONS = (0.1, 0.5, 1.0, 3.0)

#: Targets per engine call (None: one call for all of them).
PARTITION_ROWS = [None, 9, 1]


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

    @pytest.mark.parametrize("rows", PARTITION_ROWS)
    def test_float64_identical_across_target_partitions(self, workload, rows):
        reference = engine(workload)
        graph, utility, mechanisms, targets = workload
        pieces = engine_in_pieces(
            graph, utility, targets, mechanisms, rows or len(targets),
            bound_epsilons=BOUND_EPSILONS, seed=11,
        )
        assert pieces == reference

    @pytest.mark.parametrize("rows", [9, 1])
    def test_weighted_paths_identical_across_target_partitions(self, workload, rows):
        """Weighted paths recombines sparse walk rows computed for all of
        a call's targets at once; each row is its own target's."""
        graph, _, mechanisms, targets = workload
        utility = WeightedPaths(gamma=0.005)
        reference = evaluate_targets_batched(
            graph, utility, targets, mechanisms, bound_epsilons=BOUND_EPSILONS, seed=11,
        )
        pieces = engine_in_pieces(
            graph, utility, targets, mechanisms, rows, bound_epsilons=BOUND_EPSILONS, seed=11,
        )
        assert pieces == reference

    def test_engine_takes_no_dtype(self, workload):
        with pytest.raises(TypeError):
            engine(workload, dtype="float64")


#: Serving utilities: common neighbors fills from one sparse product;
#: weighted paths from sparse walk rows (recombined, and for a patching
#: cache kept as the side-car).
SERVING_UTILITIES = ["common_neighbors", WeightedPaths(gamma=0.005)]


def split_invariant(service) -> "tuple[dict, list, float]":
    """The cache state a batch split must not change — every statistic but
    the hit count, and every resident row's support, bit for bit — plus
    the hit count, which a finer split can only raise (a repeat inside one
    batch is no cache hit, the same repeat in a later batch is)."""
    stats = service.cache.snapshot()
    hits = stats.pop("hits")
    del stats["hit_rate"]
    _, pairs = service.cache.export_entries()
    rows = [
        (user, vector.support()[0].tolist(), vector.support()[1].tobytes())
        for user, vector in sorted(pairs, key=lambda pair: pair[0])
    ]
    return stats, rows, hits


def assert_same_but_hits(split, whole) -> None:
    """``split`` and ``whole`` are ``(picks, split_invariant(...))`` runs of
    one request stream, the first in finer batches."""
    (split_picks, (split_stats, split_rows, split_hits)) = split
    (whole_picks, (whole_stats, whole_rows, whole_hits)) = whole
    assert split_picks == whole_picks
    assert split_stats == whole_stats
    assert split_rows == whole_rows
    assert split_hits >= whole_hits


class TestServingBatchSplits:
    @pytest.mark.parametrize("utility", SERVING_UTILITIES, ids=["cn", "wp"])
    def test_recommend_batch_identical_across_batch_splits(self, utility):
        graph = wiki_vote(scale=0.05)
        users = list(range(0, graph.num_nodes, 3)) * 2

        def picks(size):
            service = RecommendationService(
                graph, utility, epsilon=0.5, user_budget=1e9, seed=42
            )
            recommendations = [
                response.recommendations
                for part in chunks(users, size)
                for response in service.recommend_batch(part)
            ]
            return recommendations, split_invariant(service)

        assert_same_but_hits(picks(7), picks(len(users)))

    def test_service_serves_float64_rows(self):
        graph = wiki_vote(scale=0.05)
        service = RecommendationService(graph, seed=0)
        assert service.recommend(1).status == "served"
        assert len(service.recommend(2, k=3).recommendations) == 3
        service.recommend_batch([3, 4])
        for user in (1, 2, 3, 4):
            assert service.cache.get_resident(user).values.dtype == np.float64


class TestStreamingBatchSplits:
    @pytest.mark.parametrize("utility", SERVING_UTILITIES, ids=["cn", "wp"])
    def test_replay_stream_identical_across_batch_splits(self, utility):
        graph = wiki_vote(scale=0.04)

        def picks(batch_size):
            service = StreamingService(
                graph, utility, epsilon=0.5, user_budget=1e9, seed=3
            )
            events = synthetic_event_stream(
                graph, 120, add_fraction=0.1, remove_fraction=0.05, seed=5
            )
            recorded = []
            replay_stream(
                service, events, batch_size=batch_size,
                on_response=lambda r: recorded.append(r.recommendations),
            )
            return recorded, split_invariant(service)

        assert_same_but_hits(picks(5), picks(16))

    def test_streaming_cache_stores_float64(self):
        graph = wiki_vote(scale=0.04)
        service = StreamingService(graph, seed=0)
        service.recommend(2)
        cached = service.cache.get_resident(2)
        assert cached.values.dtype == np.float64
