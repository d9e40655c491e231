"""Tests for the frozen CSR graph store (process memory or an mmap file)."""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.graphs.generators.powerlaw as powerlaw_generator
from repro.errors import NodeError, SharedGraphError
from repro.graphs import (
    CSRDescriptor,
    SharedCSR,
    SharedSocialGraph,
    SocialGraph,
)
from repro.graphs.generators import build_powerlaw_shared, erdos_renyi_gnm
from repro.graphs.shared import contiguous_node_range

BACKINGS = ["memory", "mmap"]

# Zero-copy views into an mmap store pin its mapping; pytest's assertion
# rewriter keeps sub-expression temporaries alive as test-function locals,
# which would make close() fail inside a ``with`` block. These helpers
# confine every view to a frame that exits before the store closes.


def _assert_same_matrix(shared, graph):
    assert (shared.adjacency_matrix() != graph.adjacency_matrix()).nnz == 0


def _assert_rows_match(shared, graph, targets, expect_view):
    rows = shared.adjacency_rows(targets)
    assert (rows != graph.adjacency_rows(targets)).nnz == 0
    if expect_view:  # views, not copies: the arrays alias the segment
        assert rows.indices.base is not None


def _assert_read_api_matches(shared, graph, pairs):
    last = graph.num_nodes - 1
    assert shared == graph and graph == shared
    assert shared.num_nodes == graph.num_nodes
    assert shared.num_edges == graph.num_edges
    assert shared.version == graph.version
    assert sorted(shared.edges()) == sorted(graph.edges())
    assert np.array_equal(shared.degrees(), graph.degrees())
    assert shared.max_degree() == graph.max_degree()
    for node in (0, 7, last):
        assert shared.neighbors(node) == graph.neighbors(node)
        assert shared.degree(node) == graph.degree(node)
    for u, v in pairs:
        assert shared.has_edge(u, v) == graph.has_edge(u, v)
    _assert_same_matrix(shared, graph)


def _assert_row_is_sorted_simple(graph, node):
    store = graph.store
    row = np.asarray(
        store.indices[store.indptr[node]:store.indptr[node + 1]]
    ).copy()
    assert np.all(np.diff(row) > 0)  # sorted, distinct
    assert node not in row  # no self-loops
    assert row.size == graph.degree(node)


def _assert_sealed_read_only(store):
    # sealed arrays are read-only: scribbling must fail loudly
    with pytest.raises(ValueError):
        store.indices[0] = 1


def _assert_csr_arrays_match(store, graph):
    matrix = graph.adjacency_matrix()
    assert np.array_equal(np.asarray(store.indptr).copy(), matrix.indptr)
    assert np.array_equal(np.asarray(store.indices).copy(), matrix.indices)
    assert np.array_equal(
        np.asarray(store.degrees).copy(), np.diff(matrix.indptr)
    )


def _fill_path_graph(store):
    """Write the undirected path 0-1-2 into an unsealed 3-node store."""
    store.indptr[:] = [0, 1, 3, 4]
    store.indices[:] = [1, 0, 2, 1]
    store.data[:] = 1.0
    store.degrees[:] = [1, 2, 1]


def _hold_view_and_close(store):
    view = store.indices[:2]
    with pytest.raises(SharedGraphError, match="still alive"):
        store.close()
    assert view.size == 2


def small_graph(directed: bool = False) -> SocialGraph:
    return erdos_renyi_gnm(60, 150, directed=directed, seed=5)


def mmap_powerlaw(tmp_path):
    """A small power-law graph built into the file ``tmp_path/graph.csr``."""
    return build_powerlaw_shared(
        300, 2.2, seed=3, backing="mmap", path=tmp_path / "graph.csr"
    )


def _path_for(backing, tmp_path):
    return tmp_path / "seg.csr" if backing == "mmap" else None


class TestSharedCSRLifecycle:
    @pytest.mark.parametrize("directed", [False, True])
    def test_from_graph_round_trips(self, directed):
        graph = small_graph(directed)
        store = SharedCSR.from_graph(graph)
        _assert_csr_arrays_match(store, graph)
        _assert_sealed_read_only(store)
        descriptor = store.descriptor
        assert descriptor.backing == "memory" and descriptor.name is None
        assert descriptor.num_nodes == graph.num_nodes
        assert descriptor.num_edges == graph.num_edges
        assert descriptor.version == graph.version
        assert descriptor.directed == directed

    @pytest.mark.parametrize("backing", BACKINGS)
    def test_unsealed_segment_has_no_descriptor(self, backing, tmp_path):
        store = SharedCSR.allocate(
            4, 6, directed=False, backing=backing, path=_path_for(backing, tmp_path)
        )
        try:
            with pytest.raises(SharedGraphError, match="not sealed"):
                _ = store.descriptor
        finally:
            store.close()
            store.unlink()

    def test_closed_store_raises_typed_error(self):
        store = SharedCSR.from_graph(small_graph())
        store.close()
        store.unlink()
        with pytest.raises(SharedGraphError, match="closed"):
            _ = store.descriptor

    @pytest.mark.parametrize("backing", BACKINGS)
    def test_descriptor_reads_the_sealed_header(self, backing, tmp_path):
        path = _path_for(backing, tmp_path)
        with SharedCSR.allocate(3, 4, directed=False, backing=backing, path=path) as store:
            _fill_path_graph(store)
            store.seal(version=7)
            assert store.descriptor == CSRDescriptor(
                backing=backing, name=path and str(path), num_nodes=3,
                num_edges=2, nnz=4, directed=False, version=7,
            )
            assert (store.num_nodes, store.nnz) == (3, 4)

    @pytest.mark.parametrize("directed, num_edges", [(False, 2), (True, 4)])
    def test_seal_defaults_num_edges_by_direction(self, directed, num_edges):
        with SharedCSR.allocate(3, 4, directed=directed) as store:
            _fill_path_graph(store)
            store.seal(version=0)
            assert store.descriptor.num_edges == num_edges
            assert store.descriptor.directed == directed

    def test_seal_records_explicit_num_edges(self):
        with SharedCSR.allocate(3, 4, directed=True) as store:
            _fill_path_graph(store)
            store.seal(version=1, num_edges=3)
            assert store.descriptor.num_edges == 3

    @pytest.mark.parametrize("backing", BACKINGS)
    def test_arrays_writable_until_sealed(self, backing, tmp_path):
        path = _path_for(backing, tmp_path)
        with SharedCSR.allocate(3, 4, directed=False, backing=backing, path=path) as store:
            _fill_path_graph(store)
            store.indices[0] = 1  # still assembling: writes land
            store.seal(version=0)
            _assert_sealed_read_only(store)

    @pytest.mark.parametrize("backing", BACKINGS)
    def test_nbytes_matches_the_segment_layout(self, backing, tmp_path):
        n, nnz = 60, 300
        path = _path_for(backing, tmp_path)
        with SharedCSR.allocate(n, nnz, directed=False, backing=backing, path=path) as store:
            assert store.nbytes == 8 * (8 + (n + 1) + 2 * nnz + n)
            if backing == "mmap":
                assert os.path.getsize(store.name) == store.nbytes

    def test_allocate_rejects_bad_arguments(self, tmp_path):
        with pytest.raises(SharedGraphError, match="unknown backing"):
            SharedCSR.allocate(3, 4, directed=False, backing="gpu")
        with pytest.raises(SharedGraphError, match="needs a path"):
            SharedCSR.allocate(3, 4, directed=False, backing="mmap")
        with pytest.raises(SharedGraphError, match="takes no path"):
            SharedCSR.allocate(3, 4, directed=False, path=tmp_path / "seg.csr")
        assert not (tmp_path / "seg.csr").exists()
        with pytest.raises(SharedGraphError, match="num_nodes >= 0"):
            SharedCSR.allocate(-1, 4, directed=False)
        with pytest.raises(SharedGraphError, match="nnz >= 0"):
            SharedCSR.allocate(3, -4, directed=False)

    def test_close_and_unlink_are_idempotent(self):
        store = SharedCSR.from_graph(small_graph())
        store.close()
        store.close()
        assert store.closed
        store.unlink()  # a memory store has no file: nothing to remove
        store.unlink()
        with pytest.raises(SharedGraphError, match="closed"):
            _ = store.num_nodes

    def test_memory_store_close_leaves_live_views_readable(self):
        """A memory buffer is freed with its last reference, not by close()."""
        graph = small_graph()
        store = SharedCSR.from_graph(graph)
        view = store.indices[:5]
        store.close()
        assert store.closed
        assert view.tolist() == graph.adjacency_matrix().indices[:5].tolist()


class TestMmapStore:
    """The mmap backing's lifecycle, through its one caller's builder."""

    def test_build_lives_in_the_named_file(self, tmp_path):
        with mmap_powerlaw(tmp_path) as graph:
            store = graph.store
            assert store.backing == "mmap"
            assert store.name == str(tmp_path / "graph.csr")
            assert os.path.getsize(store.name) == store.nbytes
            with build_powerlaw_shared(300, 2.2, seed=3) as in_memory:
                assert graph == in_memory
                assert graph.num_edges == in_memory.num_edges

    def test_close_and_unlink_are_idempotent(self, tmp_path):
        graph = mmap_powerlaw(tmp_path)
        store = graph.store
        graph.close()
        graph.close()
        assert store.closed
        assert os.path.exists(store.name)  # closing drops the mapping only
        graph.unlink()
        graph.unlink()
        assert not os.path.exists(store.name)
        with pytest.raises(SharedGraphError, match="closed"):
            _ = store.num_nodes

    def test_close_with_live_views_raises_typed_error(self, tmp_path):
        store = mmap_powerlaw(tmp_path).store
        try:
            _hold_view_and_close(store)
        finally:
            store.unlink()
        assert not os.path.exists(store.name)

    def test_no_file_left_after_normal_exit(self, tmp_path):
        with mmap_powerlaw(tmp_path) as graph:
            assert graph.num_nodes == 300
        assert graph.store.closed
        assert os.listdir(tmp_path) == []

    def test_no_file_left_after_exception(self, tmp_path):
        with pytest.raises(RuntimeError, match="reader failed"):
            with mmap_powerlaw(tmp_path) as graph:
                raise RuntimeError("reader failed")
        assert graph.store.closed
        assert os.listdir(tmp_path) == []

    def test_no_file_left_after_failed_build(self, tmp_path, monkeypatch):
        def fail(*args):
            raise RuntimeError("sampler failed")

        monkeypatch.setattr(powerlaw_generator, "_fill_distinct_neighbors", fail)
        with pytest.raises(RuntimeError, match="sampler failed"):
            mmap_powerlaw(tmp_path)
        assert os.listdir(tmp_path) == []

    def test_read_api_matches_heap_copy(self, tmp_path):
        with mmap_powerlaw(tmp_path) as graph:
            heap = graph.to_heap()
            edges = [(u, min(heap.neighbors(u))) for u in (0, 150, 299)]
            _assert_read_api_matches(graph, heap, edges + [(0, 0), (299, 0)])
            _assert_rows_match(
                graph, heap, np.arange(40, 90, dtype=np.int64), expect_view=True
            )
            _assert_rows_match(
                graph, heap, np.array([120, 3, 77]), expect_view=False
            )


class TestSharedSocialGraph:
    @pytest.mark.parametrize("directed", [False, True])
    def test_read_api_matches_heap_graph(self, directed):
        graph = small_graph(directed)
        with SharedSocialGraph.from_graph(graph) as shared:
            _assert_read_api_matches(shared, graph, [(0, 1), (3, 40), (59, 58)])

    def test_adjacency_matrix_shares_the_store_data(self):
        """SciPy keeps a view unless its base is a much larger ndarray, so
        a memory store carved from one would have its weights copied."""
        shared = SharedSocialGraph.from_graph(small_graph())
        assert np.shares_memory(shared.adjacency_matrix().data, shared.store.data)

    def test_adjacency_rows_zero_copy_on_node_ranges(self):
        graph = small_graph()
        with SharedSocialGraph.from_graph(graph) as shared:
            _assert_rows_match(
                shared, graph, np.arange(10, 30, dtype=np.int64), expect_view=True
            )
            _assert_rows_match(
                shared, graph, np.array([5, 3, 12]), expect_view=False
            )

    def test_adjacency_rows_validates_node_range(self):
        with SharedSocialGraph.from_graph(small_graph()) as shared:
            with pytest.raises(NodeError):
                shared.adjacency_rows(np.arange(55, 65, dtype=np.int64))

    def test_mutation_raises_frozen_error(self):
        with SharedSocialGraph.from_graph(small_graph()) as shared:
            for method in ("add_edge", "try_add_edge", "remove_edge", "try_remove_edge"):
                with pytest.raises(SharedGraphError, match="frozen"):
                    getattr(shared, method)(0, 1)

    def test_closed_graph_refuses_reads(self):
        shared = SharedSocialGraph.from_graph(small_graph())
        shared.close()
        with pytest.raises(SharedGraphError, match="closed"):
            shared.adjacency_matrix()
        with pytest.raises(SharedGraphError, match="closed"):
            shared.to_heap()

    def test_version_stamp_follows_the_source_graph(self):
        graph = small_graph()
        graph.try_add_edge(0, 59)
        graph.try_remove_edge(0, 59)
        graph.try_add_edge(1, 58)
        with SharedSocialGraph.from_graph(graph) as shared:
            assert shared.version == graph.version > 0
            assert shared.descriptor == shared.store.descriptor
            assert shared.descriptor.version == graph.version
            assert shared.to_heap().version == graph.version

    def test_to_heap_matches_and_is_mutable(self):
        graph = small_graph(directed=True)
        with SharedSocialGraph.from_graph(graph) as shared:
            heap = shared.to_heap()
            assert heap == graph
            assert heap.version == graph.version
            heap.try_add_edge(0, 59)

    def test_copy_returns_mutable_heap_graph(self):
        graph = small_graph()
        with SharedSocialGraph.from_graph(graph) as shared:
            clone = shared.copy()
            assert type(clone) is SocialGraph and clone == graph

    def test_directed_predecessor_queries_are_typed_errors(self):
        with SharedSocialGraph.from_graph(small_graph(directed=True)) as shared:
            with pytest.raises(SharedGraphError, match="predecessor"):
                shared.in_neighbors(0)
            with pytest.raises(SharedGraphError, match="predecessor"):
                shared.in_degrees()


class TestOutOfCoreBuilders:
    @pytest.mark.parametrize("backing", BACKINGS)
    def test_powerlaw_shared_is_valid_simple_digraph(self, backing, tmp_path):
        path = _path_for(backing, tmp_path)
        with build_powerlaw_shared(
            500, 2.2, seed=11, backing=backing, path=path, chunk_nodes=64
        ) as graph:
            assert graph.is_directed
            assert graph.num_nodes == 500
            assert int(graph.store.indptr[-1]) == graph.store.nnz
            for node in (0, 250, 499):
                _assert_row_is_sorted_simple(graph, node)

    def test_powerlaw_shared_is_deterministic_per_seed(self):
        with build_powerlaw_shared(300, 2.5, seed=3) as one:
            with build_powerlaw_shared(300, 2.5, seed=3) as two:
                assert one == two
            with build_powerlaw_shared(300, 2.5, seed=4) as other:
                assert not (one == other)

    def test_powerlaw_shared_chunking_keeps_degree_sequence(self):
        # Neighbor draws are consumed per chunk, so chunk_nodes is part of
        # the sampled stream's identity — but the degree sequence is drawn
        # up front and must not depend on chunking.
        with build_powerlaw_shared(400, 2.2, seed=9, chunk_nodes=37) as fine:
            with build_powerlaw_shared(400, 2.2, seed=9, chunk_nodes=400) as coarse:
                assert np.array_equal(fine.degrees(), coarse.degrees())
                assert fine.num_edges == coarse.num_edges


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
