"""Tests for ComputePlan chunking arithmetic."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compute import ComputePlan, TargetChunk, contiguous_node_range
from repro.errors import ComputeError


class TestComputePlan:
    def test_none_chunk_size_is_one_chunk(self):
        plan = ComputePlan(17)
        chunks = plan.chunks()
        assert len(chunks) == 1
        assert chunks[0] == TargetChunk(0, 0, 17)
        assert plan.effective_chunk_size == 17

    def test_even_split(self):
        plan = ComputePlan(12, 4)
        assert [(c.start, c.stop) for c in plan] == [(0, 4), (4, 8), (8, 12)]
        assert plan.num_chunks == len(plan) == 3

    def test_ragged_tail(self):
        plan = ComputePlan(10, 4)
        chunks = plan.chunks()
        assert [(c.start, c.stop) for c in chunks] == [(0, 4), (4, 8), (8, 10)]
        assert chunks[-1].size == 2

    def test_chunks_cover_every_target_once(self):
        plan = ComputePlan(101, 7)
        covered = np.concatenate(
            [np.arange(c.start, c.stop) for c in plan]
        )
        np.testing.assert_array_equal(covered, np.arange(101))

    def test_chunk_size_larger_than_items(self):
        plan = ComputePlan(3, 100)
        assert plan.num_chunks == 1
        assert plan.effective_chunk_size == 3

    def test_empty_plan(self):
        plan = ComputePlan(0, 5)
        assert plan.num_chunks == 0
        assert plan.chunks() == []

    def test_take_slices_parallel_sequences(self):
        plan = ComputePlan(5, 2)
        items = ["a", "b", "c", "d", "e"]
        assert [chunk.take(items) for chunk in plan] == [
            ["a", "b"],
            ["c", "d"],
            ["e"],
        ]

    def test_invalid_parameters(self):
        with pytest.raises(ComputeError):
            ComputePlan(-1)
        with pytest.raises(ComputeError):
            ComputePlan(10, 0)

    @pytest.mark.parametrize(
        "num_items, chunk_size",
        [(0, None), (0, 3), (1, None), (1, 1), (7, 1), (7, 3), (7, 7), (7, 100)],
    )
    def test_layout_is_contiguous_ordered_and_bounded(self, num_items, chunk_size):
        """Every layout a caller can build: chunks tile ``[0, num_items)``
        in order, are indexed 0.., and none exceeds the effective size."""
        plan = ComputePlan(num_items, chunk_size)
        chunks = plan.chunks()
        assert [chunk.index for chunk in chunks] == list(range(len(chunks)))
        assert len(chunks) == plan.num_chunks == len(plan)
        position = 0
        for chunk in chunks:
            assert chunk.start == position and 0 < chunk.size
            assert chunk.size <= plan.effective_chunk_size
            position = chunk.stop
        assert position == num_items
        expected = 0 if num_items == 0 else -(-num_items // (chunk_size or num_items))
        assert plan.num_chunks == expected

    def test_dtype_is_not_part_of_plan_equality(self):
        # Geometry defines the plan; the dtype only rides along.
        assert ComputePlan(10, 4, "float32") == ComputePlan(10, 4)
        assert ComputePlan(10, 4, "float32") != ComputePlan(10, 5, "float32")

    def test_unsupported_dtype_rejected_at_plan_time(self):
        with pytest.raises(ComputeError, match="unsupported compute dtype"):
            ComputePlan(10, 4, "int64")
        with pytest.raises(ComputeError, match="cannot resolve"):
            ComputePlan(10, 4, object())

    def test_peak_dense_bound(self):
        """The plan's whole point: no chunk exceeds chunk_size targets, so
        dense allocations are bounded by chunk_size x num_nodes."""
        plan = ComputePlan(1000, 64)
        assert max(chunk.size for chunk in plan) <= 64


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


class TestChunkSizeValidation:
    """Every batched entry point funnels chunk_size through ComputePlan, so
    a non-positive size fails with the same typed error everywhere."""

    @pytest.fixture(scope="class")
    def graph(self):
        from repro.graphs.generators import erdos_renyi_gnp

        return erdos_renyi_gnp(20, 0.2, seed=1)

    def test_recommendation_service(self, graph):
        from repro.serving import RecommendationService

        with pytest.raises(ComputeError, match="chunk_size"):
            RecommendationService(graph, chunk_size=0)

    def test_streaming_service(self, graph):
        from repro.streaming import StreamingService

        with pytest.raises(ComputeError, match="chunk_size"):
            StreamingService(graph, chunk_size=-3)

    def test_batched_engine(self, graph):
        from repro.accuracy.batch import evaluate_targets_batched
        from repro.mechanisms.best import BestMechanism
        from repro.utility.common_neighbors import CommonNeighbors

        with pytest.raises(ComputeError, match="chunk_size"):
            evaluate_targets_batched(
                graph, CommonNeighbors(), range(5), {"best": BestMechanism()},
                chunk_size=0,
            )

    def test_epsilon_sweep(self, graph):
        from repro.experiments.sweeps import epsilon_sweep
        from repro.utility.common_neighbors import CommonNeighbors

        with pytest.raises(ComputeError, match="chunk_size"):
            epsilon_sweep(graph, CommonNeighbors(), range(5), chunk_size=0)
