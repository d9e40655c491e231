"""The HTTP edge: async service boundary over the recommendation engine.

:class:`EdgeServer` is the network front end for a
:class:`~repro.serving.service.RecommendationService` — stdlib asyncio
plus the hand-rolled framing in :mod:`repro.edge.http`, no framework.
Four routes:

* ``POST/GET /recommend`` — one private recommendation. Concurrent
  requests are **coalesced** (:class:`~repro.edge.coalescer.
  CoalescingQueue`) into ``recommend_batch`` calls executed on a single
  compute thread, so the event loop never blocks and the engine sees
  the vectorized hot path instead of per-request calls.
* ``POST /edge-event`` — one graph mutation (a service over a
  :class:`~repro.streaming.overlay.MutableSocialGraph` only; 404 otherwise),
  executed on the *same* compute thread so mutations serialize strictly
  between batches, never inside one. An endpoint outside the graph
  answers 400 ``unknown_node`` and a non-numeric or non-finite ``time`` a
  400 protocol error, before anything reaches the engine or its log.
* ``GET /metrics`` — live Prometheus text (``?format=json`` for the
  ``metrics dump`` payload shape), collected on the compute thread so
  scrapes never race a batch.
* ``GET /healthz`` — liveness plus drain state.

**Determinism contract.** The edge may reorder *arrival*, never
*results*: every dispatched unit (batch or mutation) gets a dense
``dispatch_seq`` assigned on the event-loop thread in the same statement
that enqueues it on the single compute thread, so sequence order equals
execution order. Responses carry ``(batch_seq, batch_index)`` — replay
the units against a fresh same-seed service in sequence order and every
recommendation is bit-identical, because ``recommend_batch`` draws two
uniforms per served request from the service's generator, in batch
order, and a pick depends only on its utility row and those two
uniforms.
``benchmarks/bench_service_edge.py`` gates exactly this.

**Admission control.** Typed, audited rejection instead of collapse:
a full pending queue or a draining server answers 503, a user above
their in-flight cap answers 429, a privacy refusal (lifetime budget
or sliding window) answers 429 with remaining-budget hints, and a user
with no candidate to recommend answers 409 ``no_candidates``. Privacy
and no-candidate refusals are audited by the engine itself
(``refusal`` ledger rows); transport rejections get ``edge_reject``
rows here — every request a client saw refused has a ledger row somewhere
(:data:`~repro.telemetry.ledger.KIND_EDGE_REJECT`).

**Shutdown.** :meth:`EdgeServer.stop` drains: stop admitting, flush
every parked request through real batches, wait for handlers to finish
writing, then close connections and shut the compute thread down.
"""

from __future__ import annotations

import asyncio
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

from ..errors import BudgetExhaustedError, EdgeServiceError
from ..serving.records import STATUS_NO_CANDIDATES
from ..streaming.events import KIND_ADD, KIND_REMOVE, StreamEvent
from ..streaming.overlay import MutableSocialGraph
from ..telemetry.metrics import DEFAULT_SIZE_BUCKETS
from . import http
from .coalescer import CoalescingQueue

__all__ = ["EdgeServer", "EdgeServerHandle", "serve_in_thread"]

#: Transport-rejection reasons (the ``edge_reject`` ledger labels).
REASON_QUEUE_FULL = "queue_full"
REASON_INFLIGHT_CAP = "inflight_cap"
REASON_DRAINING = "draining"


@dataclass
class _Recommend:
    """Coalescer payload for one /recommend request."""

    user: int


class EdgeServer:
    """Coalescing, admission-controlled HTTP boundary over one service.

    Parameters
    ----------
    service:
        A :class:`~repro.serving.service.RecommendationService`. Must have
        telemetry attached — the edge's observability and its audited-
        rejection guarantee are not optional.
    host, port:
        Bind address. ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    max_batch, flush_seconds:
        Coalescing knobs (see :class:`~repro.edge.coalescer.
        CoalescingQueue`). ``max_batch=1`` disables coalescing — the
        benchmark's baseline.
    queue_limit:
        Pending /recommend requests admitted before 503 queue_full.
    user_inflight:
        Concurrent in-flight requests allowed per user before 429.
    """

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 16,
        flush_seconds: float = 0.002,
        queue_limit: int = 256,
        user_inflight: int = 8,
    ) -> None:
        self.service = service
        self.telemetry = service.telemetry
        if self.telemetry is None:
            raise EdgeServiceError(
                "the edge requires a service with telemetry attached: "
                "rejections must be auditable and /metrics must have a registry"
            )
        if queue_limit < 1:
            raise EdgeServiceError(f"queue_limit must be >= 1, got {queue_limit}")
        if user_inflight < 1:
            raise EdgeServiceError(
                f"user_inflight must be >= 1, got {user_inflight}"
            )
        self._mutable = isinstance(service.graph, MutableSocialGraph)
        self.host = host
        self.port = int(port)
        self.queue_limit = int(queue_limit)
        self.user_inflight = int(user_inflight)
        self._coalescer = CoalescingQueue(
            self._dispatch_batch, max_batch=max_batch, flush_seconds=flush_seconds
        )
        # ONE compute thread: batches, mutations, and metric scrapes all
        # execute here in run_in_executor submission order. That single
        # FIFO is the whole determinism story — dispatch_seq is assigned
        # in the same event-loop statement that enqueues the unit, so
        # sequence order is execution order, with no further locking.
        self._compute = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="edge-compute"
        )
        self._dispatch_seq = 0
        self._inflight: "dict[int, int]" = {}
        self._active_requests = 0
        self._idle = None  # asyncio.Event, created on start()
        self._draining = False
        self._server: "asyncio.base_events.Server | None" = None
        self._connections: "set[asyncio.Task]" = set()

        registry = self.telemetry.registry
        self._requests_counter = registry.counter("edge.requests")
        self._served_counter = registry.counter("edge.served")
        self._budget_429_counter = registry.counter("edge.rejected_budget")
        self._no_candidates_counter = registry.counter("edge.no_candidates")
        self._reject_counters = {
            reason: registry.counter(f"edge.rejected_{reason}")
            for reason in (REASON_QUEUE_FULL, REASON_INFLIGHT_CAP, REASON_DRAINING)
        }
        self._events_counter = registry.counter("edge.events_applied")
        self._http_errors_counter = registry.counter("edge.http_errors")
        self._queue_wait_seconds = registry.histogram("edge.queue_wait_seconds")
        self._compute_seconds = registry.histogram("edge.compute_seconds")
        self._request_seconds = registry.histogram("edge.request_seconds")
        self._batch_size = registry.histogram(
            "edge.batch_size", buckets=DEFAULT_SIZE_BUCKETS
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start the flush loop."""
        if self._server is not None:
            raise EdgeServiceError("edge server already started")
        self._idle = asyncio.Event()
        self._idle.set()
        self._coalescer.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful drain: admitted work completes, then everything closes."""
        if self._server is None:
            return
        self._draining = True
        # Flush everything already parked — every admitted request still
        # gets its real response — then wait for handlers to finish
        # writing those responses out.
        await self._coalescer.drain()
        await self._idle.wait()
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        # Remaining connection tasks are idle keep-alive readers (any
        # in-flight request finished above); cancel and collect them.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        self._compute.shutdown(wait=True)

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Dispatch (event-loop thread)
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        seq = self._dispatch_seq
        self._dispatch_seq += 1
        return seq

    async def _dispatch_batch(self, batch) -> None:
        """Coalescer callback: run one assembled batch on the compute thread."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        self._queue_wait_seconds.observe_many(
            [now - item.enqueued_at for item in batch]
        )
        self._batch_size.observe(len(batch))
        users = [item.payload.user for item in batch]
        seq = self._next_seq()
        responses = await loop.run_in_executor(
            self._compute, partial(self.service.submit_batch, users)
        )
        self._compute_seconds.observe(loop.time() - now)
        for index, (item, response) in enumerate(zip(batch, responses)):
            if not item.future.done():
                item.future.set_result((response, seq, index))

    async def _dispatch_event(self, event: StreamEvent) -> "tuple[bool, int]":
        loop = asyncio.get_running_loop()
        seq = self._next_seq()
        changed = await loop.run_in_executor(
            self._compute, partial(self.service.submit_edge_event, event)
        )
        return changed, seq

    def _reject(self, user: int, reason: str, status: int) -> bytes:
        """Audit a transport rejection and frame its typed response."""
        self._reject_counters[reason].inc()
        self.telemetry.ledger.edge_reject(
            user, reason=reason, stamp=self.service.stamp, clock=self.service.clock
        )
        return http.response_bytes(
            status,
            {"error": reason, "user": user, "status": "rejected"},
            extra_headers={"Retry-After": "0"},
        )

    # ------------------------------------------------------------------
    # Routes (event-loop thread)
    # ------------------------------------------------------------------
    async def _handle_recommend(self, request: http.HttpRequest) -> bytes:
        if request.method == "GET":
            payload = dict(request.query)
        elif request.method == "POST":
            payload = request.json()
        else:
            return http.response_bytes(405, {"error": "method_not_allowed"})
        if "epsilon" in payload:
            # recommend_batch takes one epsilon for the whole batch, and
            # coalescing merges strangers' requests — silently applying
            # one caller's override to everyone would be wrong, so the
            # edge refuses overrides outright.
            return http.response_bytes(
                400, {"error": "epsilon overrides are not supported at the edge"}
            )
        try:
            user = int(payload["user"])
        except (KeyError, TypeError, ValueError):
            raise http.ProtocolError(
                "recommend needs an integer 'user' (JSON body or query string)"
            ) from None
        if user < 0 or user >= self.service.graph.num_nodes:
            return http.response_bytes(
                400, {"error": "unknown_user", "user": user}
            )

        # Admission, checked in refusal-cost order: drain state first,
        # then global queue pressure, then the per-user fairness cap.
        if self._draining:
            return self._reject(user, REASON_DRAINING, 503)
        if self._coalescer.depth >= self.queue_limit:
            return self._reject(user, REASON_QUEUE_FULL, 503)
        if self._inflight.get(user, 0) >= self.user_inflight:
            return self._reject(user, REASON_INFLIGHT_CAP, 429)

        loop = asyncio.get_running_loop()
        started = loop.time()
        self._requests_counter.inc()
        self._inflight[user] = self._inflight.get(user, 0) + 1
        try:
            future = self._coalescer.submit(_Recommend(user))
            try:
                response, seq, index = await future
            except BudgetExhaustedError as error:
                return self._budget_reject(user, needed=error.needed)
        finally:
            left = self._inflight[user] - 1
            if left:
                self._inflight[user] = left
            else:
                del self._inflight[user]
        self._request_seconds.observe(loop.time() - started)
        if response.status == STATUS_NO_CANDIDATES:
            # Audited by the engine's labelled refusal row; no retry helps
            # until the graph changes, so no Retry-After.
            self._no_candidates_counter.inc()
            return http.response_bytes(
                409,
                {"error": STATUS_NO_CANDIDATES, "user": user, "status": response.status,
                 "batch_seq": seq, "batch_index": index},
            )
        if not response.served:
            return self._budget_reject(
                user,
                needed=self.service.release_cost(user),
                batch_seq=seq,
                batch_index=index,
            )
        self._served_counter.inc()
        return http.response_bytes(
            200,
            {
                "user": response.user,
                "recommendations": list(response.recommendations),
                "epsilon_spent": response.epsilon_spent,
                "mechanism": response.mechanism,
                "status": response.status,
                "cache_hit": response.cache_hit,
                "batch_seq": seq,
                "batch_index": index,
            },
        )

    def _budget_reject(
        self,
        user: int,
        *,
        needed: float,
        batch_seq: "int | None" = None,
        batch_index: "int | None" = None,
    ) -> bytes:
        """429 for a privacy refusal, with remaining-budget hints.

        The engine already audited the refusal (a ``refusal`` ledger
        row), so no ``edge_reject`` row here — one refusal, one row.
        """
        self._budget_429_counter.inc()
        body = {
            "error": "budget_exhausted",
            "user": user,
            "status": "rejected",
            "needed": needed,
            "remaining_budget": self.service.remaining_budget(user),
        }
        if self.service.window is not None:
            body["window_remaining"] = self.service.window_remaining(user)
        if batch_seq is not None:
            body["batch_seq"] = batch_seq
            body["batch_index"] = batch_index
        return http.response_bytes(429, body, extra_headers={"Retry-After": "1"})

    async def _handle_edge_event(self, request: http.HttpRequest) -> bytes:
        if request.method != "POST":
            return http.response_bytes(405, {"error": "method_not_allowed"})
        if not self._mutable:
            return http.response_bytes(
                404, {"error": "mutations need a MutableSocialGraph"}
            )
        payload = request.json()
        kind = payload.get("kind")
        if kind not in (KIND_ADD, KIND_REMOVE):
            raise http.ProtocolError(
                f"event kind must be {KIND_ADD!r} or {KIND_REMOVE!r}, got {kind!r}"
            )
        try:
            u, v = int(payload["u"]), int(payload["v"])
        except (KeyError, TypeError, ValueError):
            raise http.ProtocolError(
                "edge-event needs integer 'u' and 'v'"
            ) from None
        try:
            time = float(payload.get("time", self.service.clock))
            if not math.isfinite(time):
                raise ValueError(time)
        except (TypeError, ValueError):
            raise http.ProtocolError(
                "edge-event 'time' must be a finite number"
            ) from None
        for node in (u, v):
            if node < 0 or node >= self.service.graph.num_nodes:
                return http.response_bytes(
                    400, {"error": "unknown_node", "node": node}
                )
        if self._draining:
            return self._reject(u, REASON_DRAINING, 503)
        changed, seq = await self._dispatch_event(
            StreamEvent(time=time, kind=kind, u=u, v=v)
        )
        self._events_counter.inc()
        return http.response_bytes(
            200, {"applied": bool(changed), "dispatch_seq": seq}
        )

    async def _handle_metrics(self, request: http.HttpRequest) -> bytes:
        loop = asyncio.get_running_loop()
        # collect_metrics folds buffered telemetry and scrapes cache
        # state — engine-side work, so it runs on the compute thread
        # where it serializes against batches and mutations.
        registry = await loop.run_in_executor(
            self._compute, self.service.collect_metrics
        )
        registry.gauge("edge.queue_depth").set(self._coalescer.depth)
        registry.gauge("edge.draining").set(float(self._draining))
        if request.query.get("format") == "json":
            # The {"metrics": snapshot} shape `repro-social metrics`
            # already reads from --telemetry-out dumps.
            return http.response_bytes(200, {"metrics": registry.snapshot()})
        return http.response_bytes(
            200,
            registry.to_prometheus(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _route(self, request: http.HttpRequest) -> bytes:
        if request.path == "/recommend":
            return await self._handle_recommend(request)
        if request.path == "/edge-event":
            return await self._handle_edge_event(request)
        if request.path == "/metrics":
            if request.method != "GET":
                return http.response_bytes(405, {"error": "method_not_allowed"})
            return await self._handle_metrics(request)
        if request.path == "/healthz":
            return http.response_bytes(
                200, {"status": "ok", "draining": self._draining}
            )
        return http.response_bytes(404, {"error": "no such route", "path": request.path})

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _begin_request(self) -> None:
        self._active_requests += 1
        self._idle.clear()

    def _end_request(self) -> None:
        self._active_requests -= 1
        if self._active_requests == 0:
            self._idle.set()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                request = await http.read_request(reader)
                if request is None:
                    break
                self._begin_request()
                try:
                    payload = await self._route(request)
                except http.ProtocolError as error:
                    self._http_errors_counter.inc()
                    payload = http.response_bytes(400, {"error": str(error)})
                except asyncio.CancelledError:
                    raise
                except Exception as error:  # noqa: BLE001 - boundary: report, don't die
                    self._http_errors_counter.inc()
                    payload = http.response_bytes(
                        500, {"error": "internal", "detail": str(error)}
                    )
                finally:
                    self._end_request()
                writer.write(payload)
                await writer.drain()
                if not request.keep_alive:
                    break
        except http.ProtocolError:
            # Malformed framing: nothing sane to answer on this socket.
            pass
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass


# ----------------------------------------------------------------------
# Thread-hosted server (sync callers: tests, CLI, benchmark)
# ----------------------------------------------------------------------
class EdgeServerHandle:
    """A running :class:`EdgeServer` on a background event-loop thread."""

    def __init__(self, server: EdgeServer, loop, stop_event, thread) -> None:
        self.server = server
        self._loop = loop
        self._stop_event = stop_event
        self._thread = thread

    @property
    def url(self) -> str:
        return self.server.url

    def stop(self) -> None:
        """Signal graceful drain and wait for the server thread to exit."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join()

    def __enter__(self) -> "EdgeServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(service, **kwargs) -> EdgeServerHandle:
    """Start an :class:`EdgeServer` on its own thread; returns once bound.

    The caller's thread stays synchronous (tests, the benchmark, and the
    load generator drive the server over real sockets); the handle's
    :meth:`~EdgeServerHandle.stop` runs the full graceful drain.
    """
    server = EdgeServer(service, **kwargs)
    started = threading.Event()
    holder: dict = {}

    def runner() -> None:
        async def main() -> None:
            holder["loop"] = asyncio.get_running_loop()
            holder["stop"] = asyncio.Event()
            try:
                await server.start()
            except Exception as error:  # noqa: BLE001 - ship to the caller
                holder["error"] = error
                started.set()
                return
            started.set()
            await holder["stop"].wait()
            await server.stop()

        asyncio.run(main())

    thread = threading.Thread(target=runner, name="edge-server", daemon=True)
    thread.start()
    started.wait()
    if "error" in holder:
        thread.join()
        raise holder["error"]
    return EdgeServerHandle(server, holder["loop"], holder["stop"], thread)
