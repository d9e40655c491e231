"""Tests for the shared-memory / memory-mapped CSR graph backing store."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.datasets import wiki_vote
from repro.errors import NodeError, SharedGraphError
from repro.graphs import (
    CSRDescriptor,
    SharedCSR,
    SharedSocialGraph,
    SocialGraph,
    load_edge_list_shared,
    read_edge_list,
)
from repro.graphs.generators import build_powerlaw_shared, erdos_renyi_gnm
from repro.graphs.shared import SEGMENT_PREFIX

BACKINGS = ["shm", "mmap"]

# Zero-copy views into a segment pin its buffer; pytest's assertion
# rewriter keeps sub-expression temporaries alive as test-function locals,
# which would make close() fail inside a ``with`` block. These helpers
# confine every view to a frame that exits before the segment closes.


def _assert_same_matrix(shared, graph):
    assert (shared.adjacency_matrix() != graph.adjacency_matrix()).nnz == 0


def _assert_rows_match(shared, graph, targets, expect_view):
    rows = shared.adjacency_rows(targets)
    assert (rows != graph.adjacency_rows(targets)).nnz == 0
    if expect_view:  # views, not copies: the arrays alias the segment
        assert rows.indices.base is not None


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


def _segment_exists(store) -> bool:
    if store.backing == "mmap":
        return os.path.exists(store.name)
    return store.name in shm_segments()


def _hold_view_and_close(store):
    view = store.indices[:2]
    with pytest.raises(SharedGraphError, match="still alive"):
        store.close()
    assert view.size == 2


def small_graph(directed: bool = False) -> SocialGraph:
    return erdos_renyi_gnm(60, 150, directed=directed, seed=5)


def shm_segments() -> "list[str]":
    try:
        return [n for n in os.listdir("/dev/shm") if n.startswith("repro_csr_")]
    except FileNotFoundError:  # non-Linux fallback: nothing to check
        return []


class TestSharedCSRLifecycle:
    @pytest.mark.parametrize("backing", BACKINGS)
    @pytest.mark.parametrize("directed", [False, True])
    def test_from_graph_round_trips(self, backing, directed, tmp_path):
        graph = small_graph(directed)
        path = tmp_path / "seg.csr" if backing == "mmap" else None
        store = SharedCSR.from_graph(graph, backing=backing, path=path)
        try:
            _assert_csr_arrays_match(store, graph)
            _assert_sealed_read_only(store)
            descriptor = store.descriptor
            assert descriptor.num_nodes == graph.num_nodes
            assert descriptor.num_edges == graph.num_edges
            assert descriptor.version == graph.version
            assert descriptor.directed == directed
        finally:
            store.close()
            store.unlink()

    def test_no_segment_left_after_normal_exit(self):
        before = shm_segments()
        graph = small_graph()
        with SharedCSR.from_graph(graph) as store:
            assert store.descriptor.nnz == graph.adjacency_matrix().nnz
        assert shm_segments() == before

    def test_unsealed_segment_has_no_descriptor(self):
        store = SharedCSR.allocate(4, 6, directed=False)
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
        path = tmp_path / "seg.csr" if backing == "mmap" else None
        with SharedCSR.allocate(3, 4, directed=False, backing=backing, path=path) as store:
            _fill_path_graph(store)
            store.seal(version=7)
            assert store.descriptor == CSRDescriptor(
                backing=backing, name=store.name, num_nodes=3, num_edges=2,
                nnz=4, directed=False, version=7,
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
        path = tmp_path / "seg.csr" if backing == "mmap" else None
        with SharedCSR.allocate(3, 4, directed=False, backing=backing, path=path) as store:
            _fill_path_graph(store)
            store.indices[0] = 1  # still assembling: writes land
            store.seal(version=0)
            _assert_sealed_read_only(store)

    @pytest.mark.parametrize("backing", BACKINGS)
    def test_nbytes_matches_the_segment_layout(self, backing, tmp_path):
        graph = small_graph()
        path = tmp_path / "seg.csr" if backing == "mmap" else None
        with SharedCSR.from_graph(graph, backing=backing, path=path) as store:
            n, nnz = graph.num_nodes, store.nnz
            assert store.nbytes == 8 * (8 + (n + 1) + 2 * nnz + n)
            if backing == "mmap":
                assert os.path.getsize(store.name) == store.nbytes

    @pytest.mark.parametrize("backing", BACKINGS)
    def test_segment_name_carries_the_leak_check_prefix(self, backing):
        with SharedCSR.from_graph(small_graph(), backing=backing) as store:
            if backing == "shm":
                assert store.name.startswith(f"{SEGMENT_PREFIX}{os.getpid()}_")
            else:
                assert os.path.isabs(store.name)
                assert os.path.basename(store.name).startswith(SEGMENT_PREFIX)
            assert _segment_exists(store)

    def test_allocate_rejects_bad_arguments(self):
        with pytest.raises(SharedGraphError, match="unknown backing"):
            SharedCSR.allocate(3, 4, directed=False, backing="gpu")
        with pytest.raises(SharedGraphError, match="num_nodes >= 0"):
            SharedCSR.allocate(-1, 4, directed=False)
        with pytest.raises(SharedGraphError, match="nnz >= 0"):
            SharedCSR.allocate(3, -4, directed=False)

    @pytest.mark.parametrize("backing", BACKINGS)
    def test_close_and_unlink_are_idempotent(self, backing, tmp_path):
        path = tmp_path / "seg.csr" if backing == "mmap" else None
        store = SharedCSR.from_graph(small_graph(), backing=backing, path=path)
        store.close()
        store.close()
        assert store.closed
        assert _segment_exists(store)  # closing drops the mapping only
        store.unlink()
        store.unlink()
        assert not _segment_exists(store)
        with pytest.raises(SharedGraphError, match="closed"):
            _ = store.num_nodes

    @pytest.mark.parametrize("backing", BACKINGS)
    def test_close_with_live_views_raises_typed_error(self, backing, tmp_path):
        path = tmp_path / "seg.csr" if backing == "mmap" else None
        store = SharedCSR.from_graph(small_graph(), backing=backing, path=path)
        try:
            _hold_view_and_close(store)
        finally:
            store.unlink()
        assert not _segment_exists(store)

    @pytest.mark.parametrize("backing", BACKINGS)
    def test_no_segment_left_after_exception(self, backing, tmp_path):
        path = tmp_path / "seg.csr" if backing == "mmap" else None
        with pytest.raises(RuntimeError, match="builder failed"):
            with SharedCSR.from_graph(small_graph(), backing=backing, path=path) as store:
                raise RuntimeError("builder failed")
        assert store.closed
        assert not _segment_exists(store)


class TestSharedSocialGraph:
    @pytest.mark.parametrize("backing", BACKINGS)
    @pytest.mark.parametrize("directed", [False, True])
    def test_read_api_matches_heap_graph(self, backing, directed, tmp_path):
        graph = small_graph(directed)
        path = tmp_path / "seg.csr" if backing == "mmap" else None
        with SharedSocialGraph.from_graph(graph, backing=backing, path=path) as shared:
            assert shared == graph and graph == shared
            assert shared.num_nodes == graph.num_nodes
            assert shared.num_edges == graph.num_edges
            assert shared.version == graph.version
            assert sorted(shared.edges()) == sorted(graph.edges())
            assert np.array_equal(shared.degrees(), graph.degrees())
            assert shared.max_degree() == graph.max_degree()
            for node in (0, 7, 59):
                assert shared.neighbors(node) == graph.neighbors(node)
                assert shared.degree(node) == graph.degree(node)
            for u, v in [(0, 1), (3, 40), (59, 58)]:
                assert shared.has_edge(u, v) == graph.has_edge(u, v)
            _assert_same_matrix(shared, graph)

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

    def test_pickle_degrades_to_in_heap_copy(self):
        graph = small_graph()
        with SharedSocialGraph.from_graph(graph) as shared:
            clone = pickle.loads(pickle.dumps(shared))
        assert type(clone) is SocialGraph
        assert clone == graph
        assert clone.num_edges == graph.num_edges
        assert clone.version == graph.version
        clone.add_edge(0, 59) if not clone.has_edge(0, 59) else None  # mutable

    def test_pickle_degrades_directed_with_predecessors(self):
        graph = small_graph(directed=True)
        with SharedSocialGraph.from_graph(graph) as shared:
            clone = pickle.loads(pickle.dumps(shared))
        assert clone == graph
        for node in range(graph.num_nodes):
            assert clone.in_neighbors(node) == graph.in_neighbors(node)

    @pytest.mark.parametrize("directed", [False, True])
    def test_pickle_degrades_mmap_backed_graph(self, directed, tmp_path):
        graph = small_graph(directed)
        with SharedSocialGraph.from_graph(
            graph, backing="mmap", path=tmp_path / "seg.csr"
        ) as shared:
            clone = pickle.loads(pickle.dumps(shared))
        assert type(clone) is SocialGraph
        assert clone == graph
        assert (clone.num_edges, clone.version) == (graph.num_edges, graph.version)

    def test_pickle_outlives_the_segment(self):
        """The pickle carries the arrays, not the segment name: it still
        loads after the creator has unlinked the segment."""
        graph = small_graph()
        with SharedSocialGraph.from_graph(graph) as shared:
            payload = pickle.dumps(shared)
        assert pickle.loads(payload) == graph

    def test_closed_graph_refuses_reads_and_pickles(self):
        shared = SharedSocialGraph.from_graph(small_graph())
        shared.close()
        shared.unlink()
        with pytest.raises(SharedGraphError, match="closed"):
            shared.adjacency_matrix()
        with pytest.raises(SharedGraphError, match="closed"):
            pickle.dumps(shared)

    @pytest.mark.parametrize("backing", BACKINGS)
    def test_version_stamp_follows_the_source_graph(self, backing):
        graph = small_graph()
        graph.try_add_edge(0, 59)
        graph.try_remove_edge(0, 59)
        graph.try_add_edge(1, 58)
        with SharedSocialGraph.from_graph(graph, backing=backing) as shared:
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
        path = tmp_path / "seg.csr" if backing == "mmap" else None
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

    def test_load_edge_list_shared_matches_read_edge_list(self, tmp_path):
        graph = erdos_renyi_gnm(80, 200, seed=2)
        path = tmp_path / "graph.txt"
        from repro.graphs import write_edge_list

        write_edge_list(graph, path)
        heap = read_edge_list(path)
        with load_edge_list_shared(path) as shared:
            assert shared == heap
            assert shared.num_edges == heap.num_edges
            assert shared.version == heap.version

    def test_load_edge_list_shared_directed(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# comment\n0 1\n1 2\n2 0\n2 0\n1 1\n")
        heap = read_edge_list(path, directed=True)
        with load_edge_list_shared(path, directed=True) as shared:
            assert shared == heap
            assert shared.num_edges == 3  # dedup + self-loop drop
