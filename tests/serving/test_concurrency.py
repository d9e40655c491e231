"""Concurrency coverage: the serving batch path's accounting integrity.

The contract under test: chunk functions are pure and all stateful work
(budget charges, cache fills, ledger rows) is applied by the service, so
chunking cannot lose budget charges, double-count cache statistics, or
perturb the ledger rows — and external submitters on several threads
serialize whole batches on the service's submission lock.
"""

from __future__ import annotations

import threading

import pytest

from repro.datasets import wiki_vote
from repro.serving import RecommendationService, synthetic_workload
from repro.telemetry import Telemetry

#: Chunk layouts the integrity contract must hold under: one target per
#: chunk, the helper's default, and the unchunked single pass.
CHUNK_SIZES = [1, 8, None]


@pytest.fixture(scope="module")
def graph():
    return wiki_vote(scale=0.05)


def make_service(graph, **kwargs):
    kwargs.setdefault("epsilon", 0.5)
    kwargs.setdefault("user_budget", 1e6)
    kwargs.setdefault("seed", 99)
    kwargs.setdefault("chunk_size", 8)
    return RecommendationService(graph, **kwargs)


def run_batches(service):
    users = list(range(40)) + [3, 3, 7, 3]
    responses = []
    responses.extend(service.recommend_batch(users))
    responses.extend(service.recommend_batch(users[:20]))  # warm-cache pass
    return responses


class TestChunkIdentity:
    @pytest.mark.parametrize("chunk_size", [1, 3, None])
    def test_recommendations_bit_identical_across_chunk_sizes(
        self, graph, chunk_size
    ):
        reference = run_batches(make_service(graph))
        chunked = run_batches(make_service(graph, chunk_size=chunk_size))
        assert [r.recommendations for r in chunked] == [
            r.recommendations for r in reference
        ]
        assert [r.status for r in chunked] == [r.status for r in reference]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_workload_responses_and_ledger_rows_identical(self, graph, dtype):
        """A skewed request stream in fixed batches: responses and the
        privacy ledger's rows do not depend on the chunk size."""
        requests = synthetic_workload(graph, 300, seed=5)
        users = [request.user for request in requests]

        def replay(chunk_size):
            service = RecommendationService(
                graph, epsilon=0.5, seed=7, dtype=dtype, chunk_size=chunk_size,
                telemetry=Telemetry.create(),
            )
            responses = []
            for start in range(0, len(users), 64):
                responses.extend(service.recommend_batch(users[start:start + 64]))
            return responses, service.telemetry.ledger.raw_rows()

        responses, rows = replay(None)
        chunked_responses, chunked_rows = replay(16)
        assert chunked_responses == responses
        assert chunked_rows == rows
        assert len(rows) == len(users)


class TestBudgetAndStatsIntegrity:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_no_lost_budget_charges(self, graph, chunk_size):
        service = make_service(graph, chunk_size=chunk_size)
        responses = run_batches(service)
        served = [r for r in responses if r.served]
        # Every served response charged exactly its epsilon — summed per
        # user, nothing lost.
        per_user: dict[int, float] = {}
        for response in served:
            per_user[response.user] = (
                per_user.get(response.user, 0.0) + response.epsilon_spent
            )
        for user, expected in per_user.items():
            assert service.budgets.spent(user) == pytest.approx(expected)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_no_double_counted_cache_stats(self, graph, chunk_size):
        service = make_service(graph, chunk_size=chunk_size)
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

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_ledger_rows_deterministic_and_complete(self, graph, chunk_size):
        service = make_service(graph, chunk_size=chunk_size)
        rows: list = []
        service.attach_row_sink(rows.extend)
        responses = run_batches(service)
        assert len(rows) == len(responses)  # every request served and charged
        ids = [row[6] for row in rows]  # a service row's clock is its request id
        assert ids == sorted(set(ids))  # unique and ordered
        assert [(row[1], row[2]) for row in rows] == [
            (r.user, r.epsilon_spent) for r in responses
        ]
        reference = make_service(graph, chunk_size=None)
        reference_rows: list = []
        reference.attach_row_sink(reference_rows.extend)
        run_batches(reference)
        assert rows == reference_rows

    def test_budget_exhaustion_consistent_under_threads(self, graph):
        """Repeated users hitting their cap, within one batch and from
        several submitting threads: the triage happens before any chunk
        runs and batches serialize on the submission lock, so nothing
        overspends."""
        service = make_service(graph, user_budget=2.0, seed=1, chunk_size=2)
        responses = service.recommend_batch([9] * 7)  # 4 releases fit
        assert [r.served for r in responses] == [True] * 4 + [False] * 3
        assert service.budgets.spent(9) == pytest.approx(2.0)

        service = make_service(graph, user_budget=2.0, seed=1, chunk_size=2)
        batches: list = []
        threads = [
            threading.Thread(
                target=lambda: batches.append(service.submit_batch([9] * 3))
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        served = [r.served for batch in batches for r in batch]
        assert len(served) == 12 and sum(served) == 4
        assert service.budgets.spent(9) == pytest.approx(2.0)

    def test_concurrent_submitters_keep_every_ledger_row(self, graph):
        """Four threads submitting interleaved batches: each batch comes
        back whole and in its own user order, every request leaves exactly
        one ledger row, and request ids stay unique and ordered."""
        service = make_service(graph, chunk_size=3)
        rows: list = []
        service.attach_row_sink(rows.extend)
        results: dict = {}

        def submit(worker):
            batches = [
                [worker * 10 + offset for offset in range(6)] + [worker * 10]
                for _ in range(5)
            ]
            results[worker] = [
                (batch, service.submit_batch(batch)) for batch in batches
            ]

        threads = [threading.Thread(target=submit, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for worker_batches in results.values():
            for batch, responses in worker_batches:
                assert [r.user for r in responses] == batch
        assert len(rows) == 4 * 5 * 7
        ids = [row[6] for row in rows]
        assert ids == sorted(set(ids))
        for user in range(40):
            charged = sum(row[2] for row in rows if row[1] == user)
            assert service.budgets.spent(user) == pytest.approx(charged)
