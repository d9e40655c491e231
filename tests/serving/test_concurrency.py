"""Concurrency coverage: the serving batch path's accounting integrity.

The contract under test: the kernel and sampler tasks are pure and all
stateful work (budget charges, cache fills, ledger rows) is applied by
the service, so splitting a request stream into smaller batches cannot
lose budget charges, double-count cache statistics, or perturb the
ledger rows — and external submitters on several threads serialize
whole batches on the service's submission lock.
"""

from __future__ import annotations

import threading

import pytest

from repro.datasets import wiki_vote
from repro.serving import RecommendationService, synthetic_workload
from repro.telemetry import Telemetry
from repro.utility.weighted_paths import WeightedPaths
from tests.conftest import chunks

#: Batch splits the integrity contract must hold under, in requests per
#: batch: one, eight, and the whole request list in one batch.
BATCH_ROWS = [1, 8, None]

#: Weighted paths fills from sparse walk rows recombined per batch.
UTILITY = WeightedPaths(gamma=0.005)


@pytest.fixture(scope="module")
def graph():
    return wiki_vote(scale=0.05)


def make_service(graph, **kwargs):
    kwargs.setdefault("epsilon", 0.5)
    kwargs.setdefault("user_budget", 1e6)
    kwargs.setdefault("seed", 99)
    return RecommendationService(graph, UTILITY, **kwargs)


def run_batches(service, rows=None):
    """A cold pass over 44 requests, then a warm pass over 20, each sent
    in batches of ``rows`` requests (``None``: one batch per pass)."""
    users = list(range(40)) + [3, 3, 7, 3]
    responses = []
    for requests in (users, users[:20]):  # the second pass hits the cache
        for batch in chunks(requests, rows or len(requests)):
            responses.extend(service.recommend_batch(batch))
    return responses


def decisions(responses) -> list:
    """Every response field but ``cache_hit``: a repeat inside one batch
    is no cache hit, the same repeat in a later batch is."""
    return [
        (r.user, r.recommendations, r.epsilon_spent, r.mechanism, r.status)
        for r in responses
    ]


class TestChunkIdentity:
    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_recommendations_bit_identical_across_batch_splits(self, graph, rows):
        reference = run_batches(make_service(graph))
        chunked = run_batches(make_service(graph), rows)
        assert [r.recommendations for r in chunked] == [
            r.recommendations for r in reference
        ]
        assert [r.status for r in chunked] == [r.status for r in reference]

    @pytest.mark.parametrize("utility", ["common_neighbors", UTILITY], ids=["cn", "wp"])
    def test_workload_responses_and_ledger_rows_identical(self, graph, utility):
        """A skewed request stream in batches of 64 and of 16: responses
        and the privacy ledger's rows do not depend on the split."""
        users = synthetic_workload(graph, 300, seed=5).tolist()

        def replay(size):
            service = RecommendationService(
                graph, utility, epsilon=0.5, seed=7, telemetry=Telemetry.create(),
            )
            responses = []
            for batch in chunks(users, size):
                responses.extend(service.recommend_batch(batch))
            return responses, service.telemetry.ledger.raw_rows()

        responses, rows = replay(64)
        chunked_responses, chunked_rows = replay(16)
        assert decisions(chunked_responses) == decisions(responses)
        # Finer batches only add hits: whatever was resident when a batch
        # of 64 started is still resident when its pieces run.
        assert all(
            split.cache_hit or not whole.cache_hit
            for split, whole in zip(chunked_responses, responses)
        )
        assert chunked_rows == rows
        assert len(rows) == len(users)


class TestBudgetAndStatsIntegrity:
    @pytest.mark.parametrize("rows", BATCH_ROWS)
    def test_no_lost_budget_charges(self, graph, rows):
        service = make_service(graph)
        responses = run_batches(service, rows)
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

    @pytest.mark.parametrize("rows", BATCH_ROWS)
    def test_no_double_counted_cache_stats(self, graph, rows):
        service = make_service(graph)
        users = list(range(30))
        for batch in chunks(users, rows or len(users)):
            service.recommend_batch(batch)
        snap = service.cache.snapshot()
        # Cold pass: one miss per unique user, no phantom hits.
        assert snap["misses"] == 30
        assert snap["hits"] == 0
        for batch in chunks(users, rows or len(users)):
            service.recommend_batch(batch)
        # Warm pass: one hit per unique user.
        snap = service.cache.snapshot()
        assert snap["misses"] == 30
        assert snap["hits"] == 30

    @pytest.mark.parametrize("per_batch", BATCH_ROWS)
    def test_ledger_rows_deterministic_and_complete(self, graph, per_batch):
        reference = make_service(graph)
        reference_rows: list = []
        reference.attach_row_sink(reference_rows.extend)
        run_batches(reference)
        service = make_service(graph)
        rows: list = []
        service.attach_row_sink(rows.extend)
        responses = run_batches(service, per_batch)
        assert len(rows) == len(responses)  # every request served and charged
        ids = [row[6] for row in rows]  # a service row's clock is its request id
        assert ids == sorted(set(ids))  # unique and ordered
        assert [(row[1], row[2]) for row in rows] == [
            (r.user, r.epsilon_spent) for r in responses
        ]
        assert rows == reference_rows

    def test_budget_exhaustion_consistent_under_threads(self, graph):
        """Repeated users hitting their cap, within one batch, across
        batches of two and from several submitting threads: the triage
        happens before any kernel runs and batches serialize on the
        submission lock, so nothing overspends."""
        for rows in (7, 2):
            service = make_service(graph, user_budget=2.0, seed=1)
            responses = [
                response
                for batch in chunks([9] * 7, rows)
                for response in service.recommend_batch(batch)
            ]  # 4 releases fit
            assert [r.served for r in responses] == [True] * 4 + [False] * 3
            assert service.budgets.spent(9) == pytest.approx(2.0)

        service = make_service(graph, user_budget=2.0, seed=1)
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
        service = make_service(graph)
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
