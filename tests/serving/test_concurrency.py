"""Concurrency coverage: the serving batch path under parallel executors.

The contract under test: executors only ever run pure chunk functions, so
parallelism cannot lose budget charges, double-count cache statistics, or
perturb the ledger rows — and per-request RNG streams make the sampled
recommendations bit-identical to the serial executor.
"""

from __future__ import annotations

import os

import pytest

from repro.compute import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.datasets import wiki_vote
from repro.serving import RecommendationService

WORKERS = int(os.environ.get("REPRO_SMOKE_WORKERS", "2"))

EXECUTORS = [
    SerialExecutor(),
    ThreadExecutor(workers=WORKERS),
    ProcessExecutor(workers=WORKERS),
]


@pytest.fixture(scope="module")
def graph():
    return wiki_vote(scale=0.05)


def make_service(graph, executor, **kwargs):
    kwargs.setdefault("epsilon", 0.5)
    kwargs.setdefault("user_budget", 1e6)
    kwargs.setdefault("seed", 99)
    kwargs.setdefault("chunk_size", 8)
    return RecommendationService(graph, executor=executor, **kwargs)


def run_batches(service):
    users = list(range(40)) + [3, 3, 7, 3]
    responses = []
    responses.extend(service.recommend_batch(users))
    responses.extend(service.recommend_batch(users[:20]))  # warm-cache pass
    return responses


class TestExecutorIdentity:
    @pytest.mark.parametrize("executor", EXECUTORS[1:], ids=lambda e: e.name)
    def test_recommendations_bit_identical_to_serial(self, graph, executor):
        serial = run_batches(make_service(graph, SerialExecutor()))
        parallel = run_batches(make_service(graph, executor))
        assert [r.recommendations for r in parallel] == [
            r.recommendations for r in serial
        ]
        assert [r.status for r in parallel] == [r.status for r in serial]

    def test_thread_executor_is_deterministic_across_runs(self, graph):
        first = run_batches(make_service(graph, ThreadExecutor(workers=WORKERS)))
        second = run_batches(make_service(graph, ThreadExecutor(workers=WORKERS)))
        assert [r.recommendations for r in first] == [
            r.recommendations for r in second
        ]


class TestBudgetAndStatsIntegrity:
    @pytest.mark.parametrize("executor", EXECUTORS, ids=lambda e: e.name)
    def test_no_lost_budget_charges(self, graph, executor):
        service = make_service(graph, executor)
        responses = run_batches(service)
        served = [r for r in responses if r.served]
        # Every served response charged exactly its epsilon — summed per
        # user, nothing lost to races.
        per_user: dict[int, float] = {}
        for response in served:
            per_user[response.user] = (
                per_user.get(response.user, 0.0) + response.epsilon_spent
            )
        for user, expected in per_user.items():
            assert service.budgets.spent(user) == pytest.approx(expected)

    @pytest.mark.parametrize("executor", EXECUTORS, ids=lambda e: e.name)
    def test_no_double_counted_cache_stats(self, graph, executor):
        service = make_service(graph, executor)
        users = list(range(30))
        service.recommend_batch(users)
        snap = service.cache.snapshot()
        # Cold batch: one miss per unique user, no phantom hits.
        assert snap["misses"] == 30
        assert snap["hits"] == 0
        service.recommend_batch(users)
        # Warm batch: one hit per unique user.
        snap = service.cache.snapshot()
        assert snap["misses"] == 30
        assert snap["hits"] == 30

    @pytest.mark.parametrize("executor", EXECUTORS, ids=lambda e: e.name)
    def test_ledger_rows_deterministic_and_complete(self, graph, executor):
        service = make_service(graph, executor)
        rows: list = []
        service.attach_row_sink(rows.extend)
        responses = run_batches(service)
        assert len(rows) == len(responses)  # every request served and charged
        ids = [row[6] for row in rows]  # a service row's clock is its request id
        assert ids == sorted(set(ids))  # unique, ordered, no races
        assert [(row[1], row[2]) for row in rows] == [
            (r.user, r.epsilon_spent) for r in responses
        ]
        reference = make_service(graph, SerialExecutor())
        reference_rows: list = []
        reference.attach_row_sink(reference_rows.extend)
        run_batches(reference)
        assert rows == reference_rows

    def test_budget_exhaustion_consistent_under_threads(self, graph):
        """Repeated users hitting their cap mid-batch: the triage happens on
        the calling thread, so the executor cannot overspend."""
        service = RecommendationService(
            graph,
            epsilon=0.5,
            user_budget=2.0,  # 4 releases
            seed=1,
            executor=ThreadExecutor(workers=WORKERS),
            chunk_size=2,
        )
        responses = service.recommend_batch([9] * 7)
        assert [r.served for r in responses] == [True] * 4 + [False] * 3
        assert service.budgets.spent(9) == pytest.approx(2.0)
