"""Tests for synthetic workload generation and replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import wiki_vote
from repro.errors import ServingError
from repro.graphs.graph import SocialGraph
from repro.serving import (
    RecommendationRequest,
    RecommendationService,
    replay,
    synthetic_workload,
)


@pytest.fixture
def graph():
    return wiki_vote(scale=0.03)


class TestSyntheticWorkload:
    def test_length_and_user_range(self, graph):
        requests = synthetic_workload(graph, 100, seed=0)
        assert len(requests) == 100
        assert all(0 <= r.user < graph.num_nodes for r in requests)
        assert all(r.k == 1 for r in requests)

    def test_deterministic_under_seed(self, graph):
        first = [r.user for r in synthetic_workload(graph, 50, seed=9)]
        second = [r.user for r in synthetic_workload(graph, 50, seed=9)]
        assert first == second

    def test_skew_concentrates_traffic(self, graph):
        requests = synthetic_workload(graph, 2000, zipf_exponent=1.5, seed=1)
        counts = np.bincount([r.user for r in requests], minlength=graph.num_nodes)
        top_share = np.sort(counts)[::-1][:10].sum() / 2000
        assert top_share > 0.3  # a small head dominates

    def test_zero_exponent_is_roughly_uniform(self, graph):
        requests = synthetic_workload(graph, 2000, zipf_exponent=0.0, seed=1)
        counts = np.bincount([r.user for r in requests], minlength=graph.num_nodes)
        assert counts.max() <= 2000 * 5 / graph.num_nodes

    def test_invalid_inputs(self, graph):
        with pytest.raises(ServingError):
            synthetic_workload(graph, -1)
        with pytest.raises(ServingError):
            synthetic_workload(SocialGraph(0), 5)
        with pytest.raises(ServingError):
            synthetic_workload(graph, 5, zipf_exponent=-1.0)


class TestReplay:
    def test_summary_accounts_for_every_request(self, graph):
        service = RecommendationService(graph, epsilon=0.5, user_budget=1.0, seed=0)
        rows: list = []
        service.attach_row_sink(rows.extend)
        requests = synthetic_workload(graph, 300, seed=2)
        summary = replay(service, requests, batch_size=32)
        assert summary.num_requests == 300
        assert summary.num_served + summary.num_rejected == 300
        assert summary.num_rejected > 0  # tight budget forces rejections
        assert summary.total_epsilon_spent == pytest.approx(0.5 * summary.num_served)
        assert summary.requests_per_second > 0
        assert len(rows) == 300  # one charge or refusal row per request

    def test_mutations_invalidate_cache_during_replay(self, graph):
        service = RecommendationService(graph, epsilon=0.1, user_budget=50.0, seed=0)
        requests = synthetic_workload(graph, 200, seed=3)
        summary = replay(service, requests, batch_size=20, mutate_every=2, seed=4)
        assert summary.graph_mutations > 0
        assert service.cache.snapshot()["invalidations"] > 0

    def test_static_graph_keeps_cache(self, graph):
        service = RecommendationService(graph, epsilon=0.1, user_budget=50.0, seed=0)
        requests = synthetic_workload(graph, 200, seed=3)
        summary = replay(service, requests, batch_size=20)
        assert summary.graph_mutations == 0
        assert service.cache.snapshot()["invalidations"] == 0
        assert summary.cache_hit_rate > 0  # zipf head repeats

    def test_rejects_multi_recommendation_requests(self, graph):
        service = RecommendationService(graph, epsilon=0.5, user_budget=5.0, seed=0)
        with pytest.raises(ServingError):
            replay(service, [RecommendationRequest(user=0, k=2)])

    def test_rejects_epsilon_overrides(self, graph):
        service = RecommendationService(graph, epsilon=0.5, user_budget=5.0, seed=0)
        with pytest.raises(ServingError):
            replay(service, [RecommendationRequest(user=0, epsilon=0.9)])

    def test_batch_size_validated(self, graph):
        service = RecommendationService(graph, epsilon=0.5, user_budget=5.0, seed=0)
        with pytest.raises(ServingError):
            replay(service, [], batch_size=0)

    def test_render_mentions_throughput(self, graph):
        service = RecommendationService(graph, epsilon=0.5, user_budget=5.0, seed=0)
        summary = replay(service, synthetic_workload(graph, 50, seed=5))
        text = summary.render()
        assert "recs/sec" in text
        assert "cache hit rate" in text


class TestRequestValidation:
    def test_k_must_be_positive(self):
        with pytest.raises(ServingError):
            RecommendationRequest(user=0, k=0)

    def test_epsilon_override_must_be_positive(self):
        with pytest.raises(ServingError):
            RecommendationRequest(user=0, epsilon=0.0)
