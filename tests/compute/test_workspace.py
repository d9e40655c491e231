"""Tests for the reusable-buffer workspace arena."""

from __future__ import annotations

import threading

import numpy as np

from repro.compute import Workspace, get_workspace, reset_workspace


class TestTake:
    def test_first_take_allocates(self):
        workspace = Workspace()
        block = workspace.take("a", (3, 4), np.float64)
        assert block.shape == (3, 4)
        assert block.dtype == np.float64
        assert workspace.takes == 1
        assert workspace.allocations == 1

    def test_same_key_same_size_reuses_storage(self):
        workspace = Workspace()
        first = workspace.take("a", (4, 8))
        second = workspace.take("a", (4, 8))
        assert second.base is first.base
        assert workspace.allocations == 1
        assert workspace.takes == 2

    def test_smaller_request_reuses_larger_buffer(self):
        workspace = Workspace()
        big = workspace.take("a", 100)
        small = workspace.take("a", (5, 5))
        assert small.base is big.base
        assert small.shape == (5, 5)
        assert workspace.allocations == 1

    def test_growth_reallocates(self):
        workspace = Workspace()
        workspace.take("a", 10)
        workspace.take("a", 20)
        assert workspace.allocations == 2

    def test_distinct_keys_never_alias(self):
        workspace = Workspace()
        a = workspace.take("a", 16, np.float64)
        b = workspace.take("b", 16, np.float64)
        a.fill(1.0)
        b.fill(2.0)
        assert float(a.sum()) == 16.0  # writing b did not clobber a

    def test_dtype_is_part_of_the_slot(self):
        workspace = Workspace()
        a64 = workspace.take("a", 8, np.float64)
        a32 = workspace.take("a", 8, np.float32)
        a64.fill(1.0)
        a32.fill(2.0)
        assert workspace.allocations == 2
        assert float(a64.sum()) == 8.0

    def test_int_shape_means_1d(self):
        workspace = Workspace()
        assert workspace.take("a", 7).shape == (7,)

    def test_resident_bytes_and_clear(self):
        workspace = Workspace()
        workspace.take("a", 100, np.float64)
        assert workspace.resident_bytes == 800
        assert workspace.num_buffers == 1
        workspace.clear()
        assert workspace.resident_bytes == 0
        # counters survive a clear (they are lifetime telemetry)
        assert workspace.takes == 1


class TestResidencyReporting:
    def test_bytes_resident_matches_property(self):
        workspace = Workspace()
        workspace.take("a", 100, np.float64)
        assert workspace.bytes_resident() == workspace.resident_bytes == 800

    def test_high_water_tracks_peak_not_current(self):
        workspace = Workspace()
        workspace.take("a", 100, np.float64)  # 800 bytes resident
        workspace.take("b", 50, np.float64)   # 1200 bytes resident
        assert workspace.high_water_bytes == 1200
        workspace.clear()
        assert workspace.bytes_resident() == 0
        assert workspace.high_water_bytes == 1200  # peak survives the clear

    def test_high_water_only_moves_on_growth(self):
        workspace = Workspace()
        workspace.take("a", 100, np.float64)
        peak = workspace.high_water_bytes
        workspace.take("a", 10, np.float64)  # reuse: no new peak
        assert workspace.high_water_bytes == peak
        workspace.take("a", 200, np.float64)  # growth reallocates
        assert workspace.high_water_bytes == 1600


class TestThreadLocal:
    def test_same_thread_gets_same_instance(self):
        assert get_workspace() is get_workspace()

    def test_reset_replaces_the_instance(self):
        before = get_workspace()
        fresh = reset_workspace()
        assert fresh is not before
        assert get_workspace() is fresh

    def test_threads_get_distinct_instances(self):
        main = get_workspace()
        seen: list[Workspace] = []

        def record():
            seen.append(get_workspace())

        worker = threading.Thread(target=record)
        worker.start()
        worker.join()
        assert seen and seen[0] is not main


class TestChunkedPipelines:
    def test_chunks_reuse_the_calling_threads_arena(self, budget_rows):
        """Chunks run inline, so a repeated chunked gamma sweep takes its
        dense score buffer from the caller's warm arena: no new
        allocations."""
        from repro.experiments.sweeps import gamma_sweep
        from repro.graphs.generators import erdos_renyi_gnp

        graph = erdos_renyi_gnp(40, 0.15, seed=6)
        budget_rows(graph.num_nodes, 6)

        def run():
            return gamma_sweep(graph, range(40), gammas=(0.0, 0.05), epsilon=1.0)

        reset_workspace()
        workspace = get_workspace()
        first = run()
        allocations, takes = workspace.allocations, workspace.takes
        assert takes > 0
        assert run() == first
        assert workspace.allocations == allocations
        assert workspace.takes > takes
        assert get_workspace() is workspace
