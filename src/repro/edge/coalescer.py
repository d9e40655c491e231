"""Request coalescing: micro-batch concurrent submissions for the edge.

The serving layer's throughput lever is ``recommend_batch`` — one graph
pass and one RNG-spawn fan-out amortized over many users (PR 2 measured
~7x over per-request calls). But HTTP clients arrive one request at a
time. The :class:`CoalescingQueue` closes that gap: concurrent
``submit()`` calls park on futures while a single flush task assembles
them into batches, dispatching when either ``max_batch`` requests are
waiting or the oldest has waited ``flush_seconds``. Under load the
dispatch await itself widens batches — requests arriving while a batch
computes accumulate for the next one — so batch size adapts to pressure
without tuning.

The queue is deliberately ignorant of HTTP and of the service: payloads
are opaque, and ``dispatch`` is an async callback owned by the server
(which offloads compute to its single worker thread and fulfils the
futures). Everything here runs on the event-loop thread, so there is no
locking — ``submit`` and ``_take_batch`` interleave only at await
points.

Cancellation: a future cancelled while queued (client disconnected) is
silently skipped at batch-assembly time — it consumes no compute and
never poisons the batch it would have joined. Cancellation *after*
dispatch cannot claw back compute; the dispatcher just discards the
result (``future.done()`` guard).
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass

from ..errors import EdgeServiceError

__all__ = ["CoalescingQueue", "QueuedItem"]


@dataclass
class QueuedItem:
    """One parked submission: opaque payload + the future its caller awaits."""

    payload: object
    future: asyncio.Future
    enqueued_at: float  #: loop.time() at submit — queue-wait = dispatch - this


@dataclass
class CoalescerStats:
    """Flush-loop counters, read by the server's metrics collection."""

    batches: int = 0
    items: int = 0
    cancelled_in_queue: int = 0


class CoalescingQueue:
    """Micro-batching queue: ``submit()`` → future, flushed at N or T.

    Parameters
    ----------
    dispatch:
        ``async dispatch(batch: list[QueuedItem]) -> None``. Must fulfil
        (or fail) every non-cancelled future in the batch. Awaited by
        the flush loop, so batches are dispatched strictly one at a
        time in assembly order — the ordering guarantee the edge's
        bit-identity replay contract rests on.
    max_batch:
        Flush as soon as this many requests are waiting. ``1`` disables
        coalescing entirely (every request is its own batch) — the
        benchmark's baseline mode.
    flush_seconds:
        Flush a partial batch once its *oldest* request has waited this
        long. ``0`` flushes whatever is present on every loop pass.
    """

    def __init__(
        self,
        dispatch,
        *,
        max_batch: int = 16,
        flush_seconds: float = 0.002,
    ) -> None:
        if max_batch < 1:
            raise EdgeServiceError(f"max_batch must be >= 1, got {max_batch}")
        if flush_seconds < 0:
            raise EdgeServiceError(
                f"flush_seconds must be >= 0, got {flush_seconds}"
            )
        self._dispatch = dispatch
        self.max_batch = int(max_batch)
        self.flush_seconds = float(flush_seconds)
        self._pending: "deque[QueuedItem]" = deque()
        self._wakeup = asyncio.Event()
        self._closing = False
        self._task: "asyncio.Task | None" = None
        self.stats = CoalescerStats()

    # ------------------------------------------------------------------
    # Producer side (connection handlers)
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests parked and not yet taken into a batch."""
        return len(self._pending)

    @property
    def closing(self) -> bool:
        return self._closing

    def submit(self, payload) -> asyncio.Future:
        """Park a payload; the returned future resolves at dispatch.

        Admission control lives in the server (which checks ``depth``
        and ``closing`` *before* calling this, to reject with typed
        HTTP statuses); raising here is the backstop for direct misuse.
        """
        if self._closing:
            raise EdgeServiceError("coalescing queue is draining")
        loop = asyncio.get_running_loop()
        item = QueuedItem(payload, loop.create_future(), loop.time())
        self._pending.append(item)
        self._wakeup.set()
        return item.future

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._task is not None:
            raise EdgeServiceError("coalescing queue already started")
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def drain(self) -> None:
        """Stop accepting, flush everything already parked, then return.

        Graceful by construction: the flush loop keeps dispatching until
        the pending deque is empty, so every admitted request still gets
        its real response.
        """
        self._closing = True
        self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None

    # ------------------------------------------------------------------
    # Flush loop
    # ------------------------------------------------------------------
    def _take_batch(self) -> "list[QueuedItem]":
        batch: "list[QueuedItem]" = []
        while self._pending and len(batch) < self.max_batch:
            item = self._pending.popleft()
            if item.future.cancelled():
                self.stats.cancelled_in_queue += 1
                continue
            batch.append(item)
        return batch

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            while not self._pending:
                if self._closing:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
            deadline = self._pending[0].enqueued_at + self.flush_seconds
            while len(self._pending) < self.max_batch and not self._closing:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                self._wakeup.clear()
                try:
                    await asyncio.wait_for(self._wakeup.wait(), remaining)
                except asyncio.TimeoutError:
                    break
            batch = self._take_batch()
            if not batch:
                continue
            self.stats.batches += 1
            self.stats.items += len(batch)
            try:
                await self._dispatch(batch)
            except Exception as error:  # noqa: BLE001 - fan failure out, keep flushing
                for item in batch:
                    if not item.future.done():
                        item.future.set_exception(error)
