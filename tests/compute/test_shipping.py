"""Tests for descriptor shipping and the persistent process pool."""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.compute import (
    ProcessExecutor,
    SerialExecutor,
    Shipped,
    ThreadExecutor,
    acquire_executor_lease,
    release_executor_lease,
    contiguous_node_range,
    decode_shared,
    encode_shared,
    shipped_nbytes,
)
from repro.compute.plan import ComputePlan
from repro.errors import ComputeError
from repro.graphs import SharedSocialGraph
from repro.graphs.generators import erdos_renyi_gnm


def _graph():
    return erdos_renyi_gnm(80, 240, seed=12)


def _degree_sum(shared, item):
    # Module-level so ProcessExecutor can pickle it.
    graph = shared["graph"]
    lo, hi = item
    return int(graph.degrees()[lo:hi].sum())


def _row_sum(shared, window):
    graph = shared["graph"]
    lo, hi = window
    return float(graph.adjacency_rows(np.arange(lo, hi)).data.sum())


class TestEncodeDecode:
    def test_plain_objects_pass_through_unchanged(self):
        for value in (None, 3, "x", [1, 2], {"a": (1, 2)}):
            assert encode_shared(value) == value
            assert decode_shared(value) == value

    def test_shippable_object_becomes_placeholder(self):
        graph = _graph()
        with SharedSocialGraph.from_graph(graph) as shared:
            encoded = encode_shared({"graph": shared, "gamma": 0.5})
            assert isinstance(encoded["graph"], Shipped)
            assert encoded["gamma"] == 0.5
            decoded = decode_shared(encoded)
            assert decoded["graph"] == graph
            assert decoded["gamma"] == 0.5
            decoded["graph"].close_views()
            from repro.graphs import clear_attach_cache

            clear_attach_cache()

    def test_shipped_context_is_orders_of_magnitude_smaller(self):
        graph = erdos_renyi_gnm(2000, 20000, seed=3)
        with SharedSocialGraph.from_graph(graph) as shared:
            shipped = shipped_nbytes({"graph": shared})
            heavy = len(pickle.dumps({"graph": graph}))
            assert shipped * 100 < heavy

    def test_nested_containers_are_walked(self):
        graph = _graph()
        with SharedSocialGraph.from_graph(graph) as shared:
            encoded = encode_shared([{"inner": (shared, 1)}, "tail"])
            assert isinstance(encoded[0]["inner"][0], Shipped)
            assert encoded[1] == "tail"

    def test_identity_preserved_when_nothing_ships(self):
        context = {"a": [1, 2], "b": "plain"}
        assert encode_shared(context) is context


class TestPersistentPool:
    def test_requires_persistent_for_idle_timeout(self):
        with pytest.raises(ComputeError, match="persistent"):
            ProcessExecutor(workers=2, idle_timeout=1.0)
        with pytest.raises(ComputeError, match="idle_timeout"):
            ProcessExecutor(workers=2, persistent=True, idle_timeout=0.0)

    def test_pool_reused_across_maps_with_identical_results(self):
        graph = _graph()
        items = [(i, i + 20) for i in range(0, 80, 20)]
        with SharedSocialGraph.from_graph(graph) as shared:
            context = {"graph": shared}
            expected = SerialExecutor().map(_degree_sum, items, shared=context)
            with ProcessExecutor(workers=2, persistent=True) as executor:
                first = executor.map(_degree_sum, items, shared=context)
                pool = executor._pool
                second = executor.map(_degree_sum, items, shared=context)
                assert executor._pool is pool  # same pool object reused
            assert first == expected and second == expected
            assert executor._pool is None  # close() tore it down

    def test_fresh_context_per_call_not_stale_cache(self):
        graph = _graph()
        items = [(0, 40), (40, 80)]
        with SharedSocialGraph.from_graph(graph) as shared:
            with ProcessExecutor(workers=2, persistent=True) as executor:
                with_graph = executor.map(
                    _degree_sum, items, shared={"graph": shared}
                )
                # Same fn, different shared payload: must see the new value.
                doubled = executor.map(
                    _scaled_degree_sum,
                    items,
                    shared={"graph": shared, "factor": 2},
                )
            assert doubled == [2 * value for value in with_graph]

    def test_idle_timeout_shuts_pool_down(self):
        with ProcessExecutor(workers=2, persistent=True, idle_timeout=0.2) as executor:
            executor.map(_noop, [1, 2, 3])
            assert executor._pool is not None
            deadline = time.monotonic() + 10.0
            while executor._pool is not None and time.monotonic() < deadline:
                time.sleep(0.05)
            assert executor._pool is None
            # a later map lazily re-spins the pool
            assert executor.map(_noop, [5]) == [5]

    def test_per_call_semantics_stay_default(self):
        executor = ProcessExecutor(workers=2)
        assert executor.persistent is False
        assert executor.map(_noop, [1, 2]) == [1, 2]
        assert executor._pool is None


class TestExecutorLeases:
    def test_lease_blocks_idle_shutdown_until_released(self):
        with ProcessExecutor(workers=2, persistent=True, idle_timeout=0.2) as executor:
            executor.acquire_lease()
            try:
                executor.map(_noop, [1, 2])
                assert executor._pool is not None
                time.sleep(0.6)  # well past idle_timeout: lease pins the pool
                assert executor._pool is not None
                assert executor.map(_noop, [3]) == [3]  # still warm
            finally:
                executor.release_lease()
            # Last release hands the pool back to the idle countdown.
            deadline = time.monotonic() + 10.0
            while executor._pool is not None and time.monotonic() < deadline:
                time.sleep(0.05)
            assert executor._pool is None

    def test_nested_leases_pin_until_last_release(self):
        with ProcessExecutor(workers=2, persistent=True, idle_timeout=0.2) as executor:
            executor.acquire_lease()
            executor.acquire_lease()
            executor.map(_noop, [1, 2])  # >1 item so the pool actually spins up
            executor.release_lease()
            time.sleep(0.5)
            assert executor._pool is not None  # one lease still held
            executor.release_lease()

    def test_unmatched_release_raises(self):
        executor = ProcessExecutor(workers=2, persistent=True)
        with pytest.raises(ComputeError, match="matching acquire_lease"):
            executor.release_lease()
        executor.close()

    def test_lease_context_manager(self):
        with ProcessExecutor(workers=2, persistent=True, idle_timeout=0.2) as executor:
            with executor.lease():
                executor.map(_noop, [1, 2])
                time.sleep(0.5)
                assert executor._pool is not None
            assert executor._leases == 0

    def test_lease_is_a_noop_on_poolless_executors(self):
        # Uniform API: lifecycle code never special-cases the executor kind.
        for executor in (SerialExecutor(), ThreadExecutor(workers=2)):
            executor.acquire_lease()
            executor.release_lease()
            with executor.lease():
                pass
        per_call = ProcessExecutor(workers=2)
        per_call.acquire_lease()
        per_call.release_lease()
        per_call.release_lease()  # non-persistent: nothing to mismatch

    def test_helper_tolerates_duck_typed_executors(self):
        # Executors that predate the lease API (bare map/name/workers)
        # must keep working as edge backends.
        class Legacy:
            name = "legacy"
            workers = 1

            def map(self, fn, items, shared=None):
                return [fn(shared, item) for item in items]

        legacy = Legacy()
        acquire_executor_lease(legacy)
        release_executor_lease(legacy)
        with ProcessExecutor(workers=2, persistent=True) as executor:
            acquire_executor_lease(executor)
            assert executor._leases == 1
            release_executor_lease(executor)
            assert executor._leases == 0


def _noop(shared, item):
    return item


def _scaled_degree_sum(shared, item):
    return _degree_sum(shared, item) * shared["factor"]


class TestNodeRangeSharding:
    def test_contiguous_node_range_detects_ranges(self):
        assert contiguous_node_range(np.arange(5, 11)) == (5, 11)
        assert contiguous_node_range(np.array([3])) == (3, 4)
        assert contiguous_node_range(np.array([], dtype=np.int64)) is None
        assert contiguous_node_range(np.array([1, 3, 4])) is None
        assert contiguous_node_range(np.array([4, 3, 2])) is None

    def test_zero_copy_rows_through_executor(self):
        """End-to-end: plan chunks + shared graph + process pool."""
        graph = _graph()
        with SharedSocialGraph.from_graph(graph) as shared:
            plan = ComputePlan(graph.num_nodes, chunk_size=16)
            targets = np.arange(graph.num_nodes, dtype=np.int64)
            windows = [contiguous_node_range(chunk.take(targets)) for chunk in plan]
            assert all(window is not None for window in windows)
            context = {"graph": shared}
            serial = SerialExecutor().map(_row_sum, windows, shared=context)
            with ProcessExecutor(workers=2, persistent=True) as executor:
                pooled = executor.map(_row_sum, windows, shared=context)
            assert pooled == serial
