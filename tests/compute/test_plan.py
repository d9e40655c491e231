"""Tests for ComputePlan chunking arithmetic and the one byte budget."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compute import ComputePlan, TargetChunk, contiguous_node_range, plan
from repro.errors import ComputeError


class TestComputePlan:
    def test_default_budget_formula(self):
        """Today's formula: the most float64 rows of width num_nodes in
        4 MB, at least one — 70 rows at the wiki replica's 7,115 nodes."""
        assert plan.CHUNK_BYTES == 4_000_000
        assert plan.chunk_rows(7_115) == 70
        assert plan.chunk_rows(100_000) == 5
        for num_nodes in (1, 10, 711, 7_115, 99_999):
            assert plan.chunk_rows(num_nodes) == max(
                1, plan.CHUNK_BYTES // (8 * num_nodes)
            )

    def test_wide_graph_keeps_one_row(self):
        assert plan.chunk_rows(10**6) == 1
        assert ComputePlan(3, 10**6).chunks() == [
            TargetChunk(0, 0, 1), TargetChunk(1, 1, 2), TargetChunk(2, 2, 3)
        ]

    def test_small_batch_is_one_chunk(self):
        chunks = ComputePlan(17, 100).chunks()
        assert chunks == [TargetChunk(0, 0, 17)]

    def test_even_split(self, budget_rows):
        budget_rows(100, 4)
        layout = ComputePlan(12, 100)
        assert [(c.start, c.stop) for c in layout] == [(0, 4), (4, 8), (8, 12)]
        assert layout.num_chunks == len(layout) == 3

    def test_ragged_tail(self, budget_rows):
        budget_rows(100, 4)
        chunks = ComputePlan(10, 100).chunks()
        assert [(c.start, c.stop) for c in chunks] == [(0, 4), (4, 8), (8, 10)]
        assert chunks[-1].size == 2

    def test_chunks_cover_every_target_once(self, budget_rows):
        budget_rows(50, 7)
        covered = np.concatenate(
            [np.arange(c.start, c.stop) for c in ComputePlan(101, 50)]
        )
        np.testing.assert_array_equal(covered, np.arange(101))

    def test_budget_larger_than_items(self, budget_rows):
        budget_rows(10, 100)
        layout = ComputePlan(3, 10)
        assert layout.num_chunks == 1
        assert plan.chunk_rows(10) == 100

    def test_empty_plan(self):
        layout = ComputePlan(0, 5)
        assert layout.num_chunks == 0
        assert layout.chunks() == []

    def test_take_slices_parallel_sequences(self, budget_rows):
        budget_rows(10, 2)
        items = ["a", "b", "c", "d", "e"]
        assert [chunk.take(items) for chunk in ComputePlan(5, 10)] == [
            ["a", "b"],
            ["c", "d"],
            ["e"],
        ]

    def test_invalid_parameters(self):
        with pytest.raises(ComputeError):
            ComputePlan(-1, 10)
        with pytest.raises(TypeError):
            ComputePlan(10)

    @pytest.mark.parametrize(
        "num_items, rows",
        [(0, None), (0, 3), (1, None), (1, 1), (7, 1), (7, 3), (7, 7), (7, 100)],
    )
    def test_layout_is_contiguous_ordered_and_bounded(
        self, budget_rows, num_items, rows
    ):
        """Every layout a budget can produce: chunks tile ``[0, num_items)``
        in order, are indexed 0.., and none exceeds the budget's rows."""
        budget_rows(20, rows)
        layout = ComputePlan(num_items, 20)
        chunks = layout.chunks()
        assert [chunk.index for chunk in chunks] == list(range(len(chunks)))
        assert len(chunks) == layout.num_chunks == len(layout)
        position = 0
        for chunk in chunks:
            assert chunk.start == position and 0 < chunk.size
            assert chunk.size <= plan.chunk_rows(20)
            position = chunk.stop
        assert position == num_items
        assert layout.num_chunks == -(-num_items // plan.chunk_rows(20))

    def test_plan_carries_no_dtype(self):
        """Every dense block is float64; a plan is geometry only."""
        with pytest.raises(TypeError):
            ComputePlan(10, 4, "float32")

    def test_peak_dense_bound(self):
        """The plan's whole point: a chunk's float64 ``rows x num_nodes``
        block fits the byte budget whenever it holds more than one row."""
        for num_nodes in (100, 7_115, 100_000):
            layout = ComputePlan(1000, num_nodes)
            rows = max(chunk.size for chunk in layout)
            assert rows == 1 or 8 * rows * num_nodes <= plan.CHUNK_BYTES

    def test_budget_is_read_at_call_time(self, monkeypatch):
        layout = ComputePlan(100, 1000)
        assert layout.num_chunks == 1
        monkeypatch.setattr(plan, "CHUNK_BYTES", 8 * 1000 * 30)
        assert layout.num_chunks == 4


class TestNodeRangeSharding:
    def test_contiguous_node_range_detects_ranges(self):
        assert contiguous_node_range(np.arange(5, 11)) == (5, 11)
        assert contiguous_node_range(np.array([3])) == (3, 4)
        assert contiguous_node_range(np.array([], dtype=np.int64)) is None
        assert contiguous_node_range(np.array([1, 3, 4])) is None
        assert contiguous_node_range(np.array([4, 3, 2])) is None

    def test_duplicates_and_two_dimensional_targets_are_not_ranges(self):
        assert contiguous_node_range(np.array([2, 3, 3])) is None
        assert contiguous_node_range(np.array([2, 2, 4])) is None
        assert contiguous_node_range(np.arange(6).reshape(2, 3)) is None

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32])
    def test_any_integer_dtype_and_list_input(self, dtype):
        assert contiguous_node_range(np.arange(3, 9, dtype=dtype)) == (3, 9)
        assert contiguous_node_range([0, 1, 2]) == (0, 3)


class TestNoChunkSizeArgument:
    """The program sizes its own chunks: no entry point takes a chunk
    size, so passing one is a caller error, not a silent no-op (the
    services are covered in tests/test_docs_consistency.py)."""

    @pytest.fixture(scope="class")
    def graph(self):
        from repro.graphs.generators import erdos_renyi_gnp

        return erdos_renyi_gnp(20, 0.2, seed=1)

    def test_batched_engine(self, graph):
        from repro.accuracy.batch import evaluate_targets_batched
        from repro.mechanisms.best import BestMechanism
        from repro.utility.common_neighbors import CommonNeighbors

        with pytest.raises(TypeError):
            evaluate_targets_batched(
                graph, CommonNeighbors(), range(5), {"best": BestMechanism()},
                chunk_size=4,
            )

    def test_epsilon_sweep(self, graph):
        from repro.experiments.sweeps import epsilon_sweep
        from repro.utility.common_neighbors import CommonNeighbors

        with pytest.raises(TypeError):
            epsilon_sweep(graph, CommonNeighbors(), range(5), chunk_size=4)

    def test_gamma_sweep(self, graph):
        from repro.experiments.sweeps import gamma_sweep

        with pytest.raises(TypeError):
            gamma_sweep(graph, range(5), chunk_size=4)

    @pytest.mark.parametrize("figure_id", ["1a", "1b", "2a", "2b", "2c"])
    def test_figure_drivers(self, figure_id):
        from repro.experiments.figures import FIGURE_DRIVERS

        with pytest.raises(TypeError):
            FIGURE_DRIVERS[figure_id](chunk_size=4)
