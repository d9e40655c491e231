"""Cross-layer telemetry coverage: traced chunk maps, ambient helpers, replays.

The contracts under test:

* a traced map records exactly one span and one chunk timing per item,
  and its items record into the caller's activated telemetry; the
  serving batch maps one kernel call and one sampler call;
* the privacy ledger reconciles against both accountant types after a
  mixed serve/mutate/refusal replay;
* attaching telemetry never changes what gets recommended;
* with no telemetry attached the ambient helpers allocate nothing in any
  registry (the disabled hot path the overhead benchmark gates).
"""

from __future__ import annotations

import threading

import pytest

from repro.datasets import wiki_vote
from repro.graphs.generators import erdos_renyi_gnp
from repro.serving import RecommendationService
from repro.streaming import StreamingService, replay_stream, synthetic_event_stream
from repro.telemetry import Telemetry, runtime, traced_map
from tests.conftest import chunks


@pytest.fixture(scope="module")
def graph():
    return wiki_vote(scale=0.05)


def _double(shared, item):
    return item * shared


def _counted_double(shared, item):
    runtime.count("stage.items")
    return item * shared


class TestTracedMap:
    def test_results_match_plain_map_and_spans_are_deterministic(self):
        telemetry = Telemetry.create()
        items = list(range(10))
        results = traced_map(_double, items, 3, telemetry, "stage")
        assert results == [item * 3 for item in items]
        # One span and one chunk_seconds observation per chunk, exactly.
        assert telemetry.tracer.count("stage") == len(items)
        assert telemetry.registry.histogram("stage.chunk_seconds").count == len(items)
        assert telemetry.registry.counter("stage.chunks").value == len(items)
        assert telemetry.registry.histogram("stage.map_seconds").count == 1

    def test_chunks_record_into_the_callers_telemetry(self):
        telemetry = Telemetry.create()
        with runtime.activate(telemetry), telemetry.span("batch"):
            traced_map(_counted_double, [1, 2, 3], 2, telemetry, "stage")
        assert telemetry.registry.counter("stage.items").value == 3
        chunk_spans = [r for r in telemetry.tracer.records() if r.name == "stage"]
        assert len(chunk_spans) == 3
        assert {(r.parent, r.depth) for r in chunk_spans} == {("batch", 1)}

    def test_none_telemetry_is_plain_map(self):
        assert traced_map(_double, [1, 2, 3], 2, None, "stage") == [2, 4, 6]

    def test_untraced_telemetry_still_times_every_chunk(self):
        """sample_rate=0 drops the spans, never the chunk metrics."""
        telemetry = Telemetry.create(sample_rate=0.0)
        assert traced_map(_double, [1, 2, 3], 2, telemetry, "stage") == [2, 4, 6]
        assert telemetry.tracer.count() == 0
        assert telemetry.registry.counter("stage.chunks").value == 3
        assert telemetry.registry.histogram("stage.chunk_seconds").count == 3


@pytest.fixture(params=["bare", "traced"])
def map_telemetry(request):
    """``None`` (the bare loop) or a live telemetry: one contract for both."""
    return Telemetry.create() if request.param == "traced" else None


class TestTracedMapContract:
    """What every batched pipeline relies on when it maps its chunks."""

    def test_results_in_item_order(self, map_telemetry):
        items = [5, 3, 9, 1, 7, 2]
        assert traced_map(_double, items, 2, map_telemetry, "stage") == [
            10, 6, 18, 2, 14, 4,
        ]

    def test_empty_and_single_item(self, map_telemetry):
        assert traced_map(_double, [], 2, map_telemetry, "stage") == []
        assert traced_map(_double, [4], 2, map_telemetry, "stage") == [8]
        if map_telemetry is not None:
            assert map_telemetry.registry.counter("stage.chunks").value == 1
            assert map_telemetry.tracer.count("stage") == 1

    def test_shared_context_reaches_every_item(self, map_telemetry):
        shared = {"seen": []}

        def record(context, item):
            context["seen"].append(item)
            return context is shared

        assert traced_map(record, [0, 1, 2], shared, map_telemetry, "stage") == [
            True, True, True,
        ]
        assert shared["seen"] == [0, 1, 2]

    def test_chunk_errors_propagate(self, map_telemetry):
        ran: list = []

        def fail_on_two(shared, item):
            ran.append(item)
            if item == 2:
                raise ValueError("chunk 2 failed")
            return item

        with pytest.raises(ValueError, match="chunk 2 failed"):
            traced_map(fail_on_two, [0, 1, 2, 3], None, map_telemetry, "stage")
        assert ran == [0, 1, 2]  # nothing runs after the failing chunk
        if map_telemetry is not None:
            # The failing chunk's span still closes; the map is not counted.
            assert map_telemetry.tracer.count("stage") == 3
            assert map_telemetry.registry.counter("stage.chunks").value == 0

    def test_chunks_run_on_the_calling_thread(self, map_telemetry):
        caller = threading.get_ident()
        idents = traced_map(
            lambda shared, item: threading.get_ident(),
            range(4), None, map_telemetry, "stage",
        )
        assert idents == [caller] * 4


class TestServingTelemetry:
    @pytest.mark.parametrize("rows", [8, 3, None])
    def test_batch_replay_reconciles_and_counts_deterministically(self, graph, rows):
        telemetry = Telemetry.create()
        service = RecommendationService(
            graph, epsilon=0.5, user_budget=2.0, seed=7, telemetry=telemetry,
        )
        users = list(range(30)) + [3, 3, 7]
        batches = [
            service.recommend_batch(part)
            for _ in range(3)  # third round starts refusing (budget 2.0 / 0.5)
            for part in chunks(users, rows or len(users))
        ]
        service.verify_ledger()
        registry = service.collect_metrics()
        served = registry.counter("serve.served").value
        rejected = registry.counter("serve.rejected").value
        assert served + rejected == 3 * len(users)
        assert rejected > 0
        assert registry.histogram("serve.request_seconds").count == 3 * len(users)
        assert len(telemetry.ledger) == 3 * len(users)
        # Task accounting is one kernel call per batch with misses and one
        # sampler call per batch that serves anyone, however the requests
        # are split: unsplit, only the cold first round misses.
        kernel_calls = sum(
            any(r.served and not r.cache_hit for r in batch) for batch in batches
        )
        sampler_calls = sum(any(r.served for r in batch) for batch in batches)
        if rows is None:
            assert (kernel_calls, sampler_calls) == (1, 3)
        assert registry.counter("serve.vectors.chunks").value == kernel_calls
        assert telemetry.tracer.count("serve.vectors") == kernel_calls
        assert registry.counter("serve.sample.chunks").value == sampler_calls
        assert telemetry.tracer.count("serve.sample") == sampler_calls

    def test_recommendations_identical_with_and_without_telemetry(self, graph):
        def run(telemetry):
            service = RecommendationService(
                graph, epsilon=0.5, user_budget=1e6, seed=11, telemetry=telemetry
            )
            picks = [service.recommend(2).recommendations]
            picks.extend(
                response.recommendations
                for response in service.recommend_batch(list(range(25)))
            )
            picks.append(service.recommend(4, k=3).recommendations)
            return picks

        assert run(None) == run(Telemetry.create())

    def test_sample_counter_covers_every_served_request(self, graph):
        telemetry = Telemetry.create()
        service = RecommendationService(
            graph, epsilon=0.5, user_budget=1e6, seed=3, telemetry=telemetry
        )
        service.recommend(0)
        service.recommend_batch(list(range(12)))
        assert telemetry.registry.counter("mechanism.samples_drawn").value == 13


class TestStreamingTelemetry:
    @pytest.mark.parametrize("batch_size", [8, 1, 32])
    def test_mixed_replay_reconciles_both_accountant_types(self, batch_size):
        telemetry = Telemetry.create()
        service = StreamingService(
            erdos_renyi_gnp(80, 0.08, seed=2),
            epsilon=0.5, user_budget=4.0, seed=0,
            window=10.0, window_budget=1.0, compact_every=40,
            telemetry=telemetry,
        )
        events = synthetic_event_stream(service.graph, 400, seed=3)
        summary = replay_stream(service, events, batch_size=batch_size)
        assert summary.num_served > 0 and summary.num_rejected > 0
        service.verify_ledger()  # lifetime AND window accountants
        ledger = telemetry.ledger
        assert len(ledger.entries("window_charge")) == summary.num_served
        assert len(ledger.entries("charge")) == summary.num_served
        assert ledger.num_refusals() == summary.num_rejected
        assert len(ledger.entries("window_expiry")) > 0
        registry = service.collect_metrics()
        assert registry.counter("stream.mutations_applied").value > 0
        assert registry.histogram("stream.mutation_seconds").count > 0
        assert registry.histogram("stream.dirty_ball_size").count > 0
        assert registry.counter("stream.window_expiries").value == len(
            ledger.entries("window_expiry")
        )

    def test_lifetime_only_replay_reconciles(self):
        telemetry = Telemetry.create()
        service = StreamingService(
            erdos_renyi_gnp(60, 0.1, seed=5),
            epsilon=0.25, user_budget=1.0, seed=1, telemetry=telemetry,
        )
        events = synthetic_event_stream(service.graph, 200, seed=6)
        replay_stream(service, events, batch_size=16)
        service.verify_ledger()
        assert telemetry.ledger.entries("window_charge") == ()

    def test_compaction_metrics_recorded(self):
        telemetry = Telemetry.create()
        service = StreamingService(
            erdos_renyi_gnp(40, 0.15, seed=8), seed=0, telemetry=telemetry
        )
        service.graph.try_add_edge(0, 39)
        service.compact()
        registry = telemetry.registry
        assert registry.counter("stream.compactions").value == 1
        assert registry.histogram("stream.compaction_seconds").count == 1


class TestDisabledPath:
    def test_ambient_helpers_are_noops_without_activation(self):
        assert runtime.current() is None
        runtime.count("never.created")
        runtime.observe("never.created.h", 1.0)
        runtime.set_gauge("never.created.g", 1.0)
        with runtime.span("never.traced"):
            pass  # NULL_SPAN: records nowhere

    def test_untelemetered_service_creates_no_metrics(self, graph):
        telemetry = Telemetry.create()
        with runtime.activate(telemetry):
            pass  # active only inside the block
        service = RecommendationService(graph, seed=0, user_budget=1e6)
        assert service.telemetry is None
        service.recommend(0)
        service.recommend_batch(list(range(8)))
        # Nothing leaked into the bystander registry.
        assert len(telemetry.registry) == 0
        assert telemetry.tracer.count() == 0
        assert len(telemetry.ledger) == 0

    def test_activation_nests_and_restores(self):
        outer, inner = Telemetry.create(), Telemetry.create()
        with runtime.activate(outer):
            runtime.count("depth")
            with runtime.activate(inner):
                runtime.count("depth")
            runtime.count("depth")
        assert runtime.current() is None
        assert outer.registry.counter("depth").value == 2
        assert inner.registry.counter("depth").value == 1
