"""Every request runs one path: admit -> draw -> charge -> record -> commit.

Single, top-k and batch requests all pass the sliding-window budget and
the lifetime budget before any draw, and each endpoint call leaves one
write-ahead-log commit holding every ledger row it produced. Mutations,
compaction and the log need a MutableSocialGraph.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.datasets import toy
from repro.durability import RECORD_COMMIT, WriteAheadLog, read_wal
from repro.errors import BudgetExhaustedError, ServingError
from repro.serving import RecommendationService
from repro.serving.records import STATUS_NO_CANDIDATES, STATUS_REJECTED, STATUS_SERVED
from repro.streaming import KIND_ADD, KIND_REMOVE, MutableSocialGraph, StreamEvent
from repro.telemetry import (
    KIND_CHARGE,
    KIND_REFUSAL,
    KIND_WINDOW_CHARGE,
    Telemetry,
)

WINDOW = dict(epsilon=0.5, seed=0, window=10.0, window_budget=1.0)


def windowed(graph=None, **kwargs):
    graph = MutableSocialGraph.from_graph(graph or toy.two_communities())
    return RecommendationService(graph, telemetry=Telemetry(), **{**WINDOW, **kwargs})


def commits(path):
    records, _, torn = read_wal(path)
    assert torn is None
    return [record.payload for record in records if record.tag == RECORD_COMMIT]


class TestWindowCoversEveryEndpoint:
    def test_top_k_refused_inside_a_full_window(self):
        service = windowed()
        statuses = [r.status for r in service.recommend_batch([0, 0, 0], at=0.0)]
        assert statuses == [STATUS_SERVED, STATUS_SERVED, STATUS_REJECTED]
        before = len(service.telemetry.ledger)
        with pytest.raises(BudgetExhaustedError) as refused:
            service.recommend(0, k=2)
        assert refused.value.needed == pytest.approx(1.0)
        assert refused.value.budget == pytest.approx(1.0)
        rows = service.telemetry.ledger.raw_rows()[before:]
        assert [(row[0], row[1], row[8]) for row in rows] == [(KIND_REFUSAL, 0, 1.0)]
        assert service.budgets.spent(0) == pytest.approx(1.0)
        service.verify_ledger()

    def test_wrapped_service_endpoint_is_refused_too(self):
        """``StreamingService.service`` is the service itself, so a single
        release through it meets the same window."""
        stream = repro.StreamingService(toy.two_communities(), **WINDOW)
        stream.recommend_batch([0, 0], at=0.0)
        with pytest.raises(BudgetExhaustedError):
            stream.service.recommend(0, k=2)
        assert stream.budgets.spent(0) == pytest.approx(1.0)
        assert stream.service is stream

    def test_single_release_charges_the_window_and_expires(self):
        service = windowed()
        assert service.recommend(0, k=2, at=0.0).served
        assert service.window_remaining(0, at=0.0) == pytest.approx(0.0)
        with pytest.raises(BudgetExhaustedError):
            service.recommend(0, at=5.0)
        assert service.clock == 5.0
        response = service.recommend(0, k=2, at=10.0)  # the t=0 spend expired
        assert response.served and len(set(response.recommendations)) == 2
        assert service.budgets.spent(0) == pytest.approx(2.0)
        service.verify_ledger()

    def test_window_on_a_static_graph(self):
        """Window accounting needs the event clock, not an overlay."""
        service = RecommendationService(toy.two_communities(), **WINDOW)
        assert service.recommend(3, k=2, at=1.0).served
        with pytest.raises(BudgetExhaustedError):
            service.recommend(3, at=2.0)
        assert service.recommend(3, at=11.5).served

    def test_non_finite_time_rejected_before_anything(self):
        service = windowed()
        with pytest.raises(ServingError, match="finite"):
            service.recommend(0, at=float("inf"))
        assert service.clock == 0.0 and len(service.telemetry.ledger) == 0

    def test_stale_time_is_accounted_at_the_clock(self):
        service = windowed()
        service.recommend(0, k=2, at=50.0)
        with pytest.raises(BudgetExhaustedError):
            service.recommend(0, at=45.0)  # accounted at t=50
        assert service.recommend(0, at=60.0).served


class TestEveryCallCommits:
    def test_top_k_release_leaves_its_own_commit(self, tmp_path):
        service = windowed()
        service.attach_wal(WriteAheadLog(tmp_path / "wal.log"))
        service.recommend_batch([1], at=0.0)
        response = service.recommend(0, k=2)
        service.wal.close()
        logged = commits(service.wal.path)
        assert len(logged) == 2
        _, rows, state = logged[1]
        assert [(row[0], row[1], row[2]) for row in rows] == [
            (KIND_CHARGE, 0, 1.0), (KIND_WINDOW_CHARGE, 0, 1.0),
        ]
        assert rows[0][3] == response.mechanism
        assert state["req"] == 2

    def test_refusals_commit_too(self, tmp_path):
        service = windowed()
        service.attach_wal(WriteAheadLog(tmp_path / "wal.log"))
        service.recommend(0, k=2, at=0.0)
        with pytest.raises(BudgetExhaustedError):
            service.recommend(0, at=1.0)
        hub = RecommendationService(MutableSocialGraph.from_graph(toy.star(3)), seed=0)
        hub.attach_wal(WriteAheadLog(tmp_path / "hub.log"))
        assert hub.recommend(0).status == STATUS_NO_CANDIDATES
        service.wal.close()
        hub.wal.close()
        _, rows, state = commits(service.wal.path)[-1]
        assert [(row[0], row[8]) for row in rows] == [(KIND_REFUSAL, 0.5)]
        assert state["clock"] == 1.0 and state["req"] == 2
        [[_, rows, _]] = commits(hub.wal.path)
        assert [(row[0], row[7]) for row in rows] == [(KIND_REFUSAL, STATUS_NO_CANDIDATES)]

    def test_static_service_has_no_window_work(self):
        service = RecommendationService(toy.two_communities(), seed=0)
        service.recommend_batch([0, 1, 0])
        service.recommend(2, k=2)
        assert service._window_accountants == {}
        with pytest.raises(ServingError):
            service.window_remaining(0)


class TestMutationNeedsAnOverlay:
    @pytest.mark.parametrize("endpoint", ["apply_edge_event", "submit_edge_event"])
    def test_edge_events(self, endpoint):
        graph = toy.two_communities()
        service = RecommendationService(graph, seed=0)
        with pytest.raises(ServingError, match="MutableSocialGraph"):
            getattr(service, endpoint)(StreamEvent(1.0, KIND_ADD, u=0, v=7))
        assert not graph.has_edge(0, 7)
        assert service.clock == 0.0 and service.mutation_events_seen == 0

    def test_compact_wal_and_compact_every(self, tmp_path):
        graph = toy.two_communities()
        service = RecommendationService(graph, seed=0)
        with pytest.raises(ServingError, match="MutableSocialGraph"):
            service.compact()
        wal = WriteAheadLog(tmp_path / "wal.log")
        with pytest.raises(ServingError, match="MutableSocialGraph"):
            service.attach_wal(wal)
        wal.close()
        assert service.wal is None
        with pytest.raises(ServingError, match="MutableSocialGraph"):
            RecommendationService(graph, compact_every=4)

    def test_overlay_service_mutates_in_place(self):
        overlay = MutableSocialGraph.from_graph(toy.two_communities())
        service = RecommendationService(overlay, seed=0, compact_every=1)
        assert service.apply_edge_event(StreamEvent(2.0, KIND_ADD, u=0, v=7))
        assert overlay.has_edge(0, 7) and service.graph is overlay
        assert service.compactions == 1 and service.epoch == 1
        assert service.clock == 2.0 and service.stamp == overlay.stamp


class TestBenchmarkEntryPoints:
    """The end-to-end benchmark builds and traces these by name."""

    def test_streaming_service_is_the_service_on_a_copy(self):
        graph = toy.two_communities()
        stream = repro.StreamingService(graph, seed=0, window=5.0, compact_every=3)
        assert isinstance(stream, RecommendationService)
        assert isinstance(stream.graph, MutableSocialGraph) and stream.graph is not graph
        assert stream.service is stream
        assert stream.window_budget == 10.0 and stream.compact_every == 3

    def test_traced_names_exist(self):
        from repro.serving import budgets, cache
        from repro.serving import service as service_module
        from repro.streaming import engine

        assert engine.SlidingWindowAccountant is budgets.SlidingWindowAccountant
        for owner, name in [
            (engine.SlidingWindowAccountant, "can_spend"),
            (engine.SlidingWindowAccountant, "spend"),
            (service_module, "_vectors_chunk"),
            (service_module, "_sample_chunk"),
            (cache.UtilityCache, "_reconcile_row"),
            (RecommendationService, "_record"),
            (RecommendationService, "_flush_telemetry"),
            (RecommendationService, "apply_edge_event"),
            (RecommendationService, "recommend_batch"),
            (RecommendationService, "submit_batch"),
            (budgets.BudgetManager, "charge"),
        ]:
            assert callable(getattr(owner, name)), name


# ----------------------------------------------------------------------
# One path, property-tested
# ----------------------------------------------------------------------
USERS = st.integers(0, 11)
OPERATION = st.one_of(
    st.tuples(st.just("single"), USERS, st.just(1)),
    st.tuples(st.just("top_k"), USERS, st.integers(2, 3)),
    st.tuples(st.just("batch"), st.lists(USERS, min_size=1, max_size=6), st.booleans()),
    st.tuples(st.sampled_from([KIND_ADD, KIND_REMOVE]), USERS, USERS),
)


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.tuples(OPERATION, st.floats(0.0, 6.0, allow_nan=False)), min_size=1, max_size=25
    ),
    mutate=st.booleans(),
    window_budget=st.sampled_from([1.0, 1.5]),
)
def test_no_window_overspent_and_every_row_committed(steps, mutate, window_budget):
    """Single, top-k and batch requests at random non-decreasing times,
    with or without mutations between them: no user's spend inside any
    window exceeds the window budget, and the write-ahead log's commits
    hold exactly the ledger's rows, one commit per finished call."""
    service = windowed(user_budget=4.0, window_budget=window_budget)
    with tempfile.TemporaryDirectory() as directory:
        service.attach_wal(WriteAheadLog(Path(directory) / "wal.log"))
        now, calls = 0.0, 0
        released: "list[tuple[int, float, float]]" = []  # (user, time, epsilon)
        for (kind, first, second), gap in steps:
            now += gap
            if kind in (KIND_ADD, KIND_REMOVE):
                if mutate and first != second:
                    service.apply_edge_event(StreamEvent(now, kind, u=first, v=second))
                continue
            if kind == "batch":
                users = first
                times = [now + 0.25 * index for index in range(len(users))] if second else now
                responses = service.recommend_batch(users, at=times)
                if second:
                    now = times[-1]
                stamps = times if second else [now] * len(users)
            else:
                candidates = service.graph.num_nodes - 1 - service.graph.out_degree(first)
                if 0 < candidates < second:
                    continue  # k above the candidate count is a usage error
                try:
                    responses = [service.recommend(first, k=second, at=now)]
                except BudgetExhaustedError:
                    responses = []
                stamps = [now]
            calls += 1
            released += [
                (r.user, t, r.epsilon_spent) for r, t in zip(responses, stamps) if r.served
            ]
        service.wal.close()
        logged = commits(service.wal.path)

    for user, at, _ in released:
        inside = sum(
            spent for other, t, spent in released if other == user and at - 10.0 < t <= at
        )
        assert inside <= window_budget + 1e-9
    assert len(logged) == calls
    committed = [tuple(row) for _, rows, _ in logged for row in rows]
    assert committed == [tuple(row) for row in service.telemetry.ledger.raw_rows()]
    service.verify_ledger()
