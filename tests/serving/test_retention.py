"""Bounded retention: answering a request leaves nothing behind.

Under sequential composition a user's privacy state is one running sum,
and with no ledger or write-ahead log attached nothing consumes a
per-request record — so a long-running service's memory must not grow
with the number of requests it has answered, and a request that fails
must not leave budget state behind either.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.datasets import wiki_vote
from repro.errors import UtilityError
from repro.serving import RecommendationService


@pytest.fixture(scope="module")
def graph():
    return wiki_vote(scale=0.1)


def test_served_requests_retain_no_memory(graph):
    service = RecommendationService(graph, epsilon=0.01, user_budget=1e9, seed=0)
    users = [
        user for user in range(graph.num_nodes)
        if graph.out_degree(user) < graph.num_nodes - 1  # has a candidate
    ]
    service.recommend_batch(users)  # warm: every user cached and charged once
    rng = np.random.default_rng(1)
    batches = [rng.choice(users, 64).tolist() for _ in range(80)]
    requests = sum(map(len, batches))
    assert requests >= 5_000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for batch in batches:
            service.recommend_batch(batch)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / requests < 32, f"{retained / requests:.0f} B retained per request"


def test_failed_request_leaves_no_budget_state(graph):
    service = RecommendationService(graph, epsilon=0.5, user_budget=2.0, seed=0)
    service.recommend(3)
    seen = service.budgets.users_seen()
    with pytest.raises(UtilityError):
        service.recommend(-1)
    assert service.budgets.users_seen() == seen == [3]
