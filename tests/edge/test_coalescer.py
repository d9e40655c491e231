"""Tests for the request-coalescing queue."""

from __future__ import annotations

import asyncio

import pytest

from repro.edge.coalescer import CoalescingQueue
from repro.errors import EdgeServiceError


def _echo_dispatcher(batches):
    """Dispatch callback recording each batch, echoing (payload, size, index)."""

    async def dispatch(batch):
        batches.append([item.payload for item in batch])
        for index, item in enumerate(batch):
            if not item.future.done():
                item.future.set_result((item.payload, len(batch), index))

    return dispatch


class TestFlushTriggers:
    def test_full_batch_flushes_without_waiting_for_deadline(self):
        async def scenario():
            batches = []
            queue = CoalescingQueue(
                _echo_dispatcher(batches), max_batch=4, flush_seconds=30.0
            )
            queue.start()
            futures = [queue.submit(n) for n in range(4)]
            results = await asyncio.wait_for(asyncio.gather(*futures), 5.0)
            await queue.drain()
            return batches, results

        batches, results = asyncio.run(scenario())
        # One batch of 4, long before the 30 s deadline.
        assert batches == [[0, 1, 2, 3]]
        assert [payload for payload, _, _ in results] == [0, 1, 2, 3]
        assert [index for _, _, index in results] == [0, 1, 2, 3]
        assert all(size == 4 for _, size, _ in results)

    def test_deadline_flushes_partial_batch(self):
        async def scenario():
            batches = []
            queue = CoalescingQueue(
                _echo_dispatcher(batches), max_batch=64, flush_seconds=0.01
            )
            queue.start()
            futures = [queue.submit(n) for n in range(2)]
            results = await asyncio.wait_for(asyncio.gather(*futures), 5.0)
            await queue.drain()
            return batches, results

        batches, results = asyncio.run(scenario())
        assert batches == [[0, 1]]  # flushed at the deadline, well short of 64
        assert all(size == 2 for _, size, _ in results)

    def test_batches_preserve_submission_order(self):
        async def scenario():
            batches = []
            queue = CoalescingQueue(
                _echo_dispatcher(batches), max_batch=3, flush_seconds=0.005
            )
            queue.start()
            futures = [queue.submit(n) for n in range(8)]
            await asyncio.wait_for(asyncio.gather(*futures), 5.0)
            await queue.drain()
            return batches

        batches = asyncio.run(scenario())
        assert [p for batch in batches for p in batch] == list(range(8))
        assert all(len(batch) <= 3 for batch in batches)


class TestCancellation:
    def test_cancelled_request_skipped_without_poisoning_batch(self):
        async def scenario():
            batches = []
            queue = CoalescingQueue(
                _echo_dispatcher(batches), max_batch=16, flush_seconds=0.05
            )
            queue.start()
            keep_a = queue.submit("a")
            doomed = queue.submit("doomed")
            keep_b = queue.submit("b")
            doomed.cancel()
            results = await asyncio.wait_for(
                asyncio.gather(keep_a, keep_b), 5.0
            )
            await queue.drain()
            return batches, results, queue.stats

        batches, results, stats = asyncio.run(scenario())
        # The cancelled entry never reached the dispatcher, and the
        # survivors were batched together (size 2) with dense indices.
        assert batches == [["a", "b"]]
        assert results == [("a", 2, 0), ("b", 2, 1)]
        assert stats.cancelled_in_queue == 1
        assert stats.items == 2 and stats.batches == 1


class TestDrain:
    def test_drain_flushes_parked_requests(self):
        async def scenario():
            batches = []
            queue = CoalescingQueue(
                _echo_dispatcher(batches), max_batch=64, flush_seconds=60.0
            )
            queue.start()
            futures = [queue.submit(n) for n in range(3)]
            await queue.drain()  # deadline is an hour away: drain must flush
            results = [future.result() for future in futures]
            return batches, results, queue

        batches, results, queue = asyncio.run(scenario())
        assert batches == [[0, 1, 2]]
        assert [payload for payload, _, _ in results] == [0, 1, 2]
        assert queue.closing

    def test_submit_after_drain_is_refused(self):
        async def scenario():
            queue = CoalescingQueue(
                _echo_dispatcher([]), max_batch=4, flush_seconds=0.001
            )
            queue.start()
            await queue.drain()
            with pytest.raises(EdgeServiceError, match="draining"):
                queue.submit(1)

        asyncio.run(scenario())


class TestFailureIsolation:
    def test_dispatch_error_fails_the_batch_but_not_the_queue(self):
        async def scenario():
            calls = []

            async def dispatch(batch):
                calls.append([item.payload for item in batch])
                if len(calls) == 1:
                    raise ValueError("engine exploded")
                for index, item in enumerate(batch):
                    item.future.set_result(item.payload)

            queue = CoalescingQueue(dispatch, max_batch=2, flush_seconds=0.005)
            queue.start()
            first = [queue.submit(n) for n in range(2)]
            errors = await asyncio.gather(*first, return_exceptions=True)
            second = queue.submit("ok")
            survivor = await asyncio.wait_for(second, 5.0)
            await queue.drain()
            return errors, survivor

        errors, survivor = asyncio.run(scenario())
        assert all(isinstance(error, ValueError) for error in errors)
        assert survivor == "ok"


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(EdgeServiceError, match="max_batch"):
            CoalescingQueue(_echo_dispatcher([]), max_batch=0)
        with pytest.raises(EdgeServiceError, match="flush_seconds"):
            CoalescingQueue(_echo_dispatcher([]), flush_seconds=-1.0)

    def test_double_start_is_refused(self):
        async def scenario():
            queue = CoalescingQueue(_echo_dispatcher([]))
            queue.start()
            with pytest.raises(EdgeServiceError, match="already started"):
                queue.start()
            await queue.drain()

        asyncio.run(scenario())


class TestBoundedStats:
    def test_stats_hold_only_scalar_counters_after_many_dispatches(self):
        """A long-running queue keeps O(1) statistics: the per-dispatch size
        distribution belongs to the ``edge.batch_size`` histogram."""
        from dataclasses import fields

        async def scenario():
            batches = []
            queue = CoalescingQueue(
                _echo_dispatcher(batches), max_batch=1, flush_seconds=0.001
            )
            queue.start()
            await asyncio.wait_for(
                asyncio.gather(*(queue.submit(n) for n in range(300))), 10.0
            )
            await queue.drain()
            return queue.stats, batches

        stats, batches = asyncio.run(scenario())
        assert stats.batches == len(batches) == 300
        assert stats.items == 300
        values = [getattr(stats, field.name) for field in fields(stats)]
        assert all(isinstance(value, int) for value in values), values
