"""Tests for the HTTP edge server: routing, admission, audit, identity."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.datasets import toy, wiki_vote
from repro.edge import EdgeServer, serve_in_thread
from repro.errors import EdgeServiceError
from repro.serving import RecommendationService
from repro.streaming import StreamingService
from repro.streaming.events import KIND_ADD, StreamEvent
from repro.telemetry import KIND_EDGE_REJECT, KIND_REFUSAL, Telemetry

SEED = 42


@pytest.fixture(scope="module")
def base_graph():
    return wiki_vote(scale=0.05)


def make_service(base_graph, **kwargs) -> StreamingService:
    kwargs.setdefault("user_budget", 100.0)
    return StreamingService(
        base_graph,
        seed=SEED,
        telemetry=Telemetry.create(sample_rate=0.0),
        **kwargs,
    )


def request(url: str, path: str, payload=None, method=None):
    """One HTTP exchange; returns (status, parsed JSON body)."""
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        url + path, data=data, method=method or ("POST" if data else "GET")
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestRouting:
    def test_recommend_roundtrip_carries_dispatch_tags(self, base_graph):
        service = make_service(base_graph)
        with serve_in_thread(service) as handle:
            status, body = request(handle.url, "/recommend", {"user": 3})
        assert status == 200
        assert body["user"] == 3 and body["status"] == "served"
        assert len(body["recommendations"]) == 1
        assert body["batch_seq"] == 0 and body["batch_index"] == 0
        assert body["epsilon_spent"] == pytest.approx(0.5)

    def test_get_recommend_via_query_string(self, base_graph):
        service = make_service(base_graph)
        with serve_in_thread(service) as handle:
            status, body = request(handle.url, "/recommend?user=7")
        assert status == 200 and body["user"] == 7

    def test_healthz_metrics_404_405_and_bad_requests(self, base_graph):
        service = make_service(base_graph)
        with serve_in_thread(service) as handle:
            assert request(handle.url, "/healthz") == (
                200,
                {"status": "ok", "draining": False},
            )
            status, body = request(handle.url, "/nope")
            assert status == 404
            status, _ = request(
                handle.url, "/recommend", method="PUT", payload={"user": 1}
            )
            assert status == 405
            status, _ = request(handle.url, "/metrics", {"x": 1})
            assert status == 405
            status, body = request(handle.url, "/recommend", {"user": 10**9})
            assert status == 400 and body["error"] == "unknown_user"
            status, body = request(handle.url, "/recommend", {"nope": 1})
            assert status == 400
            status, body = request(
                handle.url, "/recommend", {"user": 1, "epsilon": 9.0}
            )
            assert status == 400 and "epsilon" in body["error"]

    def test_metrics_formats(self, base_graph):
        service = make_service(base_graph)
        with serve_in_thread(service) as handle:
            request(handle.url, "/recommend", {"user": 2})
            with urllib.request.urlopen(handle.url + "/metrics") as response:
                assert "text/plain" in response.headers["Content-Type"]
                text = response.read().decode()
            status, body = request(handle.url, "/metrics?format=json")
        assert "edge_batch_size_count 1" in text
        assert "edge_queue_depth" in text
        assert status == 200
        assert body["metrics"]["edge.served"]["value"] == 1
        assert "edge.request_seconds" in body["metrics"]

    def test_edge_event_applies_and_returns_seq(self, base_graph):
        service = make_service(base_graph)
        with serve_in_thread(service) as handle:
            status, body = request(
                handle.url, "/edge-event", {"kind": "add", "u": 1, "v": 2}
            )
            assert status == 200
            assert body["applied"] is True and body["dispatch_seq"] == 0
            # duplicate add: tolerated no-op
            status, body = request(
                handle.url, "/edge-event", {"kind": "add", "u": 1, "v": 2}
            )
            assert status == 200 and body["applied"] is False
            status, body = request(
                handle.url, "/edge-event", {"kind": "sideways", "u": 1, "v": 2}
            )
            assert status == 400
        assert service.mutations_applied == 1

    def test_bad_edge_events_answer_typed_400s(self, base_graph):
        """An unknown endpoint or a non-numeric / non-finite time is the
        client's error: a typed 400 (not ``500 internal``), and nothing
        reaches the engine's clock, cursor or graph."""
        service = make_service(base_graph)
        n = base_graph.num_nodes
        with serve_in_thread(service) as handle:
            for u, v in ((1, n), (n + 5, 2), (-1, 2)):
                status, body = request(
                    handle.url, "/edge-event", {"kind": "add", "u": u, "v": v}
                )
                assert status == 400
                assert body == {"error": "unknown_node", "node": v if u == 1 else u}
            for time in ("soon", None, [1.0], float("inf"), float("nan")):
                status, body = request(
                    handle.url, "/edge-event",
                    {"kind": "add", "u": 1, "v": 2, "time": time},
                )
                assert status == 400 and "time" in body["error"]
            raw = urllib.request.Request(
                handle.url + "/edge-event", method="POST",
                data=b'{"kind": "add", "u": 1, "v": 2, "time": 1e999}',
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(raw, timeout=30)
            assert excinfo.value.code == 400
        assert service.mutation_events_seen == 0
        assert service.clock == 0.0
        assert service.mutations_applied == 0

    def test_edge_event_needs_a_streaming_service(self, base_graph):
        service = RecommendationService(
            base_graph, seed=SEED, telemetry=Telemetry.create(sample_rate=0.0)
        )
        with serve_in_thread(service) as handle:
            # /recommend still works over a plain RecommendationService ...
            status, _ = request(handle.url, "/recommend", {"user": 4})
            assert status == 200
            # ... but mutations have nowhere to go.
            status, body = request(
                handle.url, "/edge-event", {"kind": "add", "u": 1, "v": 2}
            )
        assert status == 404

    def test_telemetry_is_required(self, base_graph):
        service = StreamingService(base_graph, seed=SEED)
        with pytest.raises(EdgeServiceError, match="telemetry"):
            EdgeServer(service)


class TestBudgetRejections:
    def test_exhausted_budget_maps_to_429_with_hints(self, base_graph):
        service = make_service(base_graph, user_budget=0.5)
        with serve_in_thread(service) as handle:
            status, _ = request(handle.url, "/recommend", {"user": 3})
            assert status == 200
            status, body = request(handle.url, "/recommend", {"user": 3})
        assert status == 429
        assert body["error"] == "budget_exhausted"
        assert body["needed"] == pytest.approx(0.5)
        assert body["remaining_budget"] == pytest.approx(0.0)
        assert body["batch_seq"] == 1 and body["batch_index"] == 0
        # The refusal was audited by the engine itself.
        refusals = service.telemetry.ledger.entries(KIND_REFUSAL)
        assert len(refusals) == 1 and refusals[0].user == 3
        service.verify_ledger()

    def test_window_refusal_includes_window_remaining(self, base_graph):
        service = make_service(base_graph, window=100.0, window_budget=0.5)
        with serve_in_thread(service) as handle:
            status, _ = request(handle.url, "/recommend", {"user": 3})
            assert status == 200
            status, body = request(handle.url, "/recommend", {"user": 3})
        assert status == 429
        assert body["window_remaining"] == pytest.approx(0.0)
        assert body["remaining_budget"] == pytest.approx(99.5)
        service.verify_ledger()


def test_user_without_candidates_maps_to_409():
    service = make_service(toy.star(leaves=3))
    with serve_in_thread(service) as handle:
        status, body = request(handle.url, "/recommend", {"user": 0})
        served, _ = request(handle.url, "/recommend", {"user": 1})
    assert status == 409 and body["error"] == "no_candidates"
    assert body["status"] == "no_candidates" and body["batch_seq"] == 0
    assert served == 200
    [refusal] = service.telemetry.ledger.entries(KIND_REFUSAL)
    assert refusal.user == 0 and refusal.label == "no_candidates"
    assert service.telemetry.registry.counter("edge.no_candidates").value == 1
    service.verify_ledger()


class TestAdmissionControl:
    def test_user_inflight_cap_rejects_with_429(self, base_graph):
        service = make_service(base_graph)
        with serve_in_thread(
            service, max_batch=64, flush_seconds=0.25, user_inflight=1
        ) as handle:
            first: dict = {}
            thread = threading.Thread(
                target=lambda: first.update(
                    dict(zip(("status", "body"), request(handle.url, "/recommend", {"user": 5})))
                )
            )
            thread.start()
            time.sleep(0.1)  # let the first request park in the coalescer
            status, body = request(handle.url, "/recommend", {"user": 5})
            thread.join()
        assert first["status"] == 200  # the parked request still completes
        assert status == 429 and body["error"] == "inflight_cap"
        rejects = service.telemetry.ledger.entries(KIND_EDGE_REJECT)
        assert len(rejects) == 1
        assert rejects[0].user == 5 and rejects[0].label == "inflight_cap"
        assert rejects[0].epsilon == 0.0
        service.verify_ledger()  # epsilon-0 rows never break reconciliation

    def test_queue_limit_rejects_with_503(self, base_graph):
        service = make_service(base_graph)
        with serve_in_thread(
            service, max_batch=64, flush_seconds=0.25, queue_limit=1
        ) as handle:
            first: dict = {}
            thread = threading.Thread(
                target=lambda: first.update(
                    dict(zip(("status", "body"), request(handle.url, "/recommend", {"user": 5})))
                )
            )
            thread.start()
            time.sleep(0.1)
            status, body = request(handle.url, "/recommend", {"user": 6})
            thread.join()
        assert first["status"] == 200
        assert status == 503 and body["error"] == "queue_full"
        rejects = service.telemetry.ledger.entries(KIND_EDGE_REJECT)
        assert [entry.label for entry in rejects] == ["queue_full"]

    def test_graceful_drain_serves_parked_requests(self, base_graph):
        service = make_service(base_graph)
        handle = serve_in_thread(service, max_batch=64, flush_seconds=10.0)
        outcome: dict = {}
        thread = threading.Thread(
            target=lambda: outcome.update(
                dict(zip(("status", "body"), request(handle.url, "/recommend", {"user": 8})))
            )
        )
        thread.start()
        time.sleep(0.1)  # parked: the flush deadline is 10 s away
        handle.stop()  # drain must flush it as a real batch, not drop it
        thread.join()
        assert outcome["status"] == 200
        assert outcome["body"]["user"] == 8
        service.verify_ledger()


class TestLifecycle:
    def test_stop_leaves_no_server_or_compute_thread_behind(self, base_graph):
        """The drain ends with the compute thread shut down: nothing the
        server started outlives ``stop``."""
        before = set(threading.enumerate())
        handle = serve_in_thread(
            make_service(base_graph), max_batch=4, flush_seconds=0.002
        )
        status, body = request(handle.url, "/recommend", {"user": 3})
        assert status == 200 and body["status"] == "served"
        handle.stop()
        leftover = [
            thread for thread in threading.enumerate()
            if thread not in before and thread.is_alive()
        ]
        assert leftover == []


class TestBitIdentity:
    def test_interleaved_mutations_replay_bit_identically(self, base_graph):
        """Concurrent queries + mutations == serialized replay, exactly.

        The edge tags every response with (batch_seq, batch_index) and
        every mutation with dispatch_seq. Replaying those units in seq
        order against a fresh same-seed service must reproduce every
        recommendation bit-for-bit — the edge may reorder arrival,
        never results.
        """
        service = make_service(base_graph)
        handle = serve_in_thread(service, max_batch=8, flush_seconds=0.002)
        events: "dict[int, StreamEvent]" = {}
        responses: "list[dict]" = []
        lock = threading.Lock()

        def client(worker: int) -> None:
            for i in range(12):
                status, body = request(
                    handle.url, "/recommend", {"user": (worker * 31 + i) % 300}
                )
                assert status == 200
                with lock:
                    responses.append(body)

        def mutator() -> None:
            for i in range(6):
                status, body = request(
                    handle.url,
                    "/edge-event",
                    {"kind": "add", "u": 50 + i, "v": 120 + i, "time": 0.0},
                )
                assert status == 200
                with lock:
                    events[body["dispatch_seq"]] = StreamEvent(
                        time=0.0, kind=KIND_ADD, u=50 + i, v=120 + i
                    )
                time.sleep(0.004)

        threads = [
            threading.Thread(target=client, args=(worker,)) for worker in range(6)
        ] + [threading.Thread(target=mutator)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        handle.stop()
        service.verify_ledger()

        units: "dict[int, list[dict]]" = {}
        for body in responses:
            units.setdefault(body["batch_seq"], []).append(body)
        for unit in units.values():
            unit.sort(key=lambda body: body["batch_index"])
        assert not (set(units) & set(events))  # seqs are globally unique

        fresh = make_service(base_graph)
        for seq in sorted(set(units) | set(events)):
            if seq in events:
                fresh.apply_edge_event(events[seq])
                continue
            replayed = fresh.recommend_batch(
                [body["user"] for body in units[seq]]
            )
            for body, response in zip(units[seq], replayed):
                assert list(response.recommendations) == body["recommendations"]
                assert response.epsilon_spent == body["epsilon_spent"]
                assert response.mechanism == body["mechanism"]
