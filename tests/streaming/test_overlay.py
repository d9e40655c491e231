"""Overlay/CSR equivalence: the delta overlay must be indistinguishable
from a from-scratch :class:`SocialGraph` under every read the batched
pipelines use, for any interleaving of adds, removes, and compactions."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.datasets import toy
from repro.errors import EdgeError
from repro.graphs import SocialGraph
from repro.streaming import MutableSocialGraph
from repro.compute.kernels import excluded_rows
from repro.utility.base import candidate_nodes


def random_ops(rng, num_nodes: int, num_ops: int):
    """A reproducible interleaving of add / remove / compact operations."""
    ops = []
    for _ in range(num_ops):
        roll = rng.random()
        u, v = (int(x) for x in rng.integers(0, num_nodes, size=2))
        if roll < 0.55:
            ops.append(("add", u, v))
        elif roll < 0.9:
            ops.append(("remove", u, v))
        else:
            ops.append(("compact", -1, -1))
    return ops


def apply_ops(graph, ops, compactable: bool):
    for kind, u, v in ops:
        if kind == "add":
            graph.try_add_edge(u, v)
        elif kind == "remove":
            graph.try_remove_edge(u, v)
        elif compactable and kind == "compact":
            graph.compact()
    return graph


def assert_reads_equal(overlay: MutableSocialGraph, reference: SocialGraph, rng):
    """Every vectorized read the kernels use must match bit for bit."""
    # First, before adjacency_matrix() caches a matrix view: the walk step
    # then runs on the epoch base plus the delta.
    rows = reference.adjacency_rows(np.arange(reference.num_nodes))
    np.testing.assert_array_equal(
        overlay.adjacency_product(rows).toarray(),
        reference.adjacency_product(rows).toarray(),
    )
    assert overlay == reference
    assert overlay.num_edges == reference.num_edges
    assert overlay.max_degree() == reference.max_degree()
    np.testing.assert_array_equal(overlay.degrees(), reference.degrees())
    np.testing.assert_array_equal(
        overlay.adjacency_matrix().toarray(), reference.adjacency_matrix().toarray()
    )
    targets = rng.choice(overlay.num_nodes, size=min(10, overlay.num_nodes), replace=False)
    np.testing.assert_array_equal(
        overlay.adjacency_rows(targets).toarray(),
        reference.adjacency_matrix()[targets].toarray(),
    )
    np.testing.assert_array_equal(
        overlay.out_degrees_of(targets), reference.out_degrees_of(targets)
    )
    excluded = excluded_rows(overlay, targets)
    for row, target in enumerate(targets.tolist()):
        np.testing.assert_array_equal(
            candidate_nodes(overlay, target), candidate_nodes(reference, target)
        )
        np.testing.assert_array_equal(
            excluded.indices[excluded.indptr[row]:excluded.indptr[row + 1]],
            np.setdiff1d(np.arange(reference.num_nodes), candidate_nodes(reference, target)),
        )


class TestOverlayEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("directed", [False, True])
    def test_random_interleavings_match_from_scratch_graph(self, seed, directed):
        rng = np.random.default_rng(seed)
        num_nodes = 24
        base = SocialGraph(num_nodes, directed=directed)
        for _ in range(40):
            u, v = (int(x) for x in rng.integers(0, num_nodes, size=2))
            base.try_add_edge(u, v)
        overlay = MutableSocialGraph.from_graph(base)
        mirror = base.copy()
        ops = random_ops(rng, num_nodes, 60)
        apply_ops(overlay, ops, compactable=True)
        apply_ops(mirror, ops, compactable=False)
        # From-scratch rebuild of the final state, independent of history.
        scratch = SocialGraph.from_edges(
            list(mirror.edges()), num_nodes=num_nodes, directed=directed
        )
        assert_reads_equal(overlay, mirror, np.random.default_rng(seed + 100))
        assert_reads_equal(overlay, scratch, np.random.default_rng(seed + 200))

    def test_reads_correct_between_every_operation(self):
        """Interleave checks *between* mutations, not only at the end."""
        rng = np.random.default_rng(7)
        base = toy.paper_example_graph()
        overlay = MutableSocialGraph.from_graph(base)
        mirror = base.copy()
        for kind, u, v in random_ops(rng, base.num_nodes, 25):
            apply_ops(overlay, [(kind, u, v)], compactable=True)
            apply_ops(mirror, [(kind, u, v)], compactable=False)
            assert_reads_equal(overlay, mirror, np.random.default_rng(1))


class TestEpochAndStamp:
    def test_compact_bumps_epoch_not_version(self):
        graph = MutableSocialGraph.from_graph(toy.star(5))
        graph.add_edge(1, 2)
        version = graph.version
        graph.compact()
        assert graph.epoch == 1
        assert graph.version == version
        assert graph.delta_size == 0

    def test_stamp_monotone_under_mutations_and_compactions(self):
        graph = MutableSocialGraph.from_graph(toy.star(6))
        seen = [graph.stamp]
        for step in range(12):
            if step % 4 == 3:
                graph.compact()
            else:
                graph.try_add_edge((step * 2) % 6, (step * 3 + 1) % 6)
            seen.append(graph.stamp)
        assert seen == sorted(seen)  # never moves backwards
        assert seen[-1] > seen[0]

    def test_compact_preserves_all_reads(self):
        graph = MutableSocialGraph.from_graph(toy.paper_example_graph())
        graph.add_edge(0, 6)
        graph.remove_edge(0, 1)
        before = graph.adjacency_matrix().toarray().copy()
        graph.compact()
        np.testing.assert_array_equal(graph.adjacency_matrix().toarray(), before)
        # And mutations after the compact keep working on the new base.
        graph.add_edge(0, 1)
        assert graph.has_edge(0, 1)

    def test_delta_size_counts_logical_edges(self):
        graph = MutableSocialGraph.from_graph(toy.star(5))
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        graph.remove_edge(0, 1)
        assert graph.delta_size == 3
        graph.add_edge(0, 1)  # cancels the pending removal
        assert graph.delta_size == 2


class TestMutationSemantics:
    def test_add_remove_mirror_base_class_errors(self):
        graph = MutableSocialGraph.from_graph(toy.star(4))
        with pytest.raises(EdgeError):
            graph.add_edge(0, 1)  # duplicate
        with pytest.raises(EdgeError):
            graph.remove_edge(1, 2)  # missing
        assert graph.try_add_edge(1, 2)
        assert not graph.try_add_edge(1, 2)
        assert graph.try_remove_edge(1, 2)
        assert not graph.try_remove_edge(1, 2)

    def test_try_remove_records_one_journal_entry(self):
        graph = MutableSocialGraph.from_graph(toy.star(4))
        graph.request_score_deltas(2)
        version = graph.version
        assert graph.try_remove_edge(0, 1)
        (delta,) = graph.score_deltas_since(version, 2)  # exactly one record
        assert (delta.u, delta.v, delta.sign) == (0, 1, -1.0)

    def test_version_counts_every_mutation(self):
        graph = MutableSocialGraph.from_graph(toy.star(4))
        version = graph.version
        graph.add_edge(1, 2)
        graph.remove_edge(1, 2)
        assert graph.version == version + 2


class TestCopyAndMaterialize:
    def test_materialize_is_plain_and_equal(self):
        graph = MutableSocialGraph.from_graph(toy.paper_example_graph())
        graph.add_edge(0, 6)
        frozen = graph.materialize()
        assert type(frozen) is SocialGraph
        assert frozen == graph
        assert frozen.version == graph.version
        frozen.add_edge(6, 9)
        assert not graph.has_edge(6, 9)

    def test_copy_is_independent(self):
        graph = MutableSocialGraph.from_graph(toy.star(5))
        clone = graph.copy()
        assert isinstance(clone, MutableSocialGraph)
        clone.add_edge(1, 2)
        assert not graph.has_edge(1, 2)
        assert clone.version == graph.version + 1

    def test_from_graph_does_not_alias_source(self):
        base = toy.star(5)
        graph = MutableSocialGraph.from_graph(base)
        graph.add_edge(1, 2)
        assert not base.has_edge(1, 2)

    def test_pickle_roundtrip(self):
        """Result caches and snapshots carry the serving graph by pickle."""
        graph = MutableSocialGraph.from_graph(toy.paper_example_graph())
        graph.add_edge(0, 6)
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert clone.stamp == graph.stamp
        np.testing.assert_array_equal(
            clone.adjacency_matrix().toarray(), graph.adjacency_matrix().toarray()
        )


class TestFromEdges:
    def test_from_edges_builds_working_overlay(self):
        graph = MutableSocialGraph.from_edges([(0, 1), (1, 2), (2, 3)], num_nodes=5)
        assert isinstance(graph, MutableSocialGraph)
        reference = SocialGraph.from_edges([(0, 1), (1, 2), (2, 3)], num_nodes=5)
        assert graph == reference
        graph.add_edge(3, 4)
        np.testing.assert_array_equal(graph.degrees(), [1, 2, 2, 2, 1])
