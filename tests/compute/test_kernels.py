"""Tests for the canonical compute kernels and their target-partition stability."""

from __future__ import annotations

import numpy as np
import pytest

from scipy import sparse

from repro.compute import utility_vectors
from repro.compute.kernels import excluded_rows, footnote10_support
from repro.datasets import toy, twitter, wiki_vote
from repro.errors import UtilityError
from repro.mechanisms.exponential import ExponentialMechanism
from repro.utility.base import UtilityVector, support_rows
from repro.utility.common_neighbors import CommonNeighbors
from repro.utility.weighted_paths import WeightedPaths
from tests.conftest import chunks, engine_in_pieces, make_uniforms


@pytest.fixture(scope="module")
def graph():
    return wiki_vote(scale=0.05)


@pytest.fixture(scope="module")
def utility():
    return CommonNeighbors()


class TestSupportRows:
    def test_matches_reference_per_target(self, graph, utility):
        """Excluded rows are the complement of each target's candidates,
        and the support rows hold exactly its positive utilities."""
        targets = np.asarray([0, 5, 17, 40])
        excluded = excluded_rows(graph, targets)
        ids, values, offsets = support_rows(utility.support_scores(graph, targets), excluded)
        assert excluded.shape == (4, graph.num_nodes)
        for row, target in enumerate(targets):
            vector = utility.utility_vector(graph, target)
            keep = np.ones(graph.num_nodes, dtype=bool)
            keep[excluded.indices[excluded.indptr[row]:excluded.indptr[row + 1]]] = False
            np.testing.assert_array_equal(np.flatnonzero(keep), vector.candidates)
            support_ids, support_values = vector.support()
            np.testing.assert_array_equal(ids[offsets[row]:offsets[row + 1]], support_ids)
            np.testing.assert_array_equal(
                values[offsets[row]:offsets[row + 1]], support_values
            )

    def test_target_partition_is_bit_identical(self, graph):
        """Weighted paths' sparse score rows depend only on their own
        target: the rows of 7-target pieces, stacked, are the whole
        call's rows."""
        utility = WeightedPaths(gamma=0.05)
        targets = np.arange(30, dtype=np.int64)
        full = utility.support_scores(graph, targets)
        pieces = sparse.vstack(
            [utility.support_scores(graph, part) for part in chunks(targets, 7)],
            format="csr",
        )
        assert (full != pieces).nnz == 0

    @pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
    def test_bad_candidate_utilities_rejected(self, bad):
        scores = sparse.csr_matrix(np.asarray([[0.0, 2.0, bad, 1.0]]))
        excluded = sparse.csr_matrix(np.asarray([[1.0, 0.0, 0.0, 0.0]]))
        with pytest.raises(UtilityError):
            support_rows(scores, excluded)

    def test_bad_utilities_at_excluded_ids_ignored(self):
        scores = sparse.csr_matrix(np.asarray([[np.nan, 2.0, 0.0, -1.0]]))
        excluded = sparse.csr_matrix(np.asarray([[1.0, 0.0, 0.0, 1.0]]))
        ids, values, offsets = support_rows(scores, excluded)
        np.testing.assert_array_equal(ids, [1])
        np.testing.assert_array_equal(values, [2.0])
        np.testing.assert_array_equal(offsets, [0, 1])


class TestUtilityVectors:
    def test_matches_reference_builder(self, graph, utility):
        targets = [3, 11, 29]
        vectors = utility_vectors(graph, utility, targets)
        for target, vector in zip(targets, vectors):
            reference = utility.utility_vector(graph, target)
            assert vector.target == reference.target
            assert vector.target_degree == reference.target_degree
            np.testing.assert_array_equal(vector.candidates, reference.candidates)
            np.testing.assert_array_equal(vector.values, reference.values)

    def test_zero_signal_targets_kept(self):
        graph = toy.star(leaves=4)
        vectors = utility_vectors(graph, CommonNeighbors(), [1])
        assert len(vectors) == 1  # unfiltered: serving needs every target

    @pytest.mark.parametrize("rows", [None, 3], ids=["one-call", "3-target-calls"])
    @pytest.mark.parametrize("utility", [CommonNeighbors(), WeightedPaths(gamma=0.05)])
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_support_rows_round_trip_to_reference(self, utility, directed, rows):
        """A support-form row's dense view equals the per-target reference
        exactly, on both graph conventions, whether the targets are
        filled in one call or in 3-target calls."""
        graph = twitter(scale=0.05) if directed else wiki_vote(scale=0.05)
        assert graph.is_directed == directed
        targets = list(range(0, graph.num_nodes, max(1, graph.num_nodes // 25)))
        parts = [targets] if rows is None else chunks(targets, rows)
        vectors = [v for part in parts for v in utility_vectors(graph, utility, part)]
        assert [vector.target for vector in vectors] == targets
        for vector in vectors:
            reference = utility.utility_vector(graph, vector.target)
            assert vector.target_degree == reference.target_degree
            assert vector.num_candidates == reference.num_candidates
            np.testing.assert_array_equal(vector.candidates, reference.candidates)
            assert vector.values.dtype == np.float64
            np.testing.assert_array_equal(vector.values, reference.values)

    def test_out_of_range_targets_rejected(self, graph, utility):
        with pytest.raises(UtilityError, match="out of range"):
            utility_vectors(graph, utility, [graph.num_nodes])


class TestSupportForm:
    def test_zero_candidates_enumerate_the_bucket_in_order(self, graph, utility):
        """Rank-select over excluded + support ids lists exactly the
        zero-utility candidates, ascending — the nodes the sampler's zero
        bucket picks from."""
        for vector in utility_vectors(graph, utility, [0, 7, 40]):
            expected = vector.candidates[vector.values == 0]
            assert vector.zero_count == expected.size
            got = [vector.zero_candidate(rank) for rank in range(vector.zero_count)]
            np.testing.assert_array_equal(got, expected)
            ids, values = vector.support()
            np.testing.assert_array_equal(ids, vector.candidates[vector.values > 0])
            np.testing.assert_array_equal(values, vector.values[vector.values > 0])


class TestSampleRowsChunkStability:
    def test_per_row_uniforms_make_chunking_irrelevant(self, graph, utility):
        """A row's sample depends only on the row and its two uniforms,
        so any partition of a batch reproduces it."""
        mechanism = ExponentialMechanism(1.0, sensitivity=2.0)
        vectors = utility_vectors(graph, utility, list(range(20)))
        uniforms = make_uniforms(123, 20)

        full = mechanism.recommend_vectors(vectors, uniforms)

        chunked = np.concatenate(
            [
                mechanism.recommend_vectors(rows, draws)
                for rows, draws in zip(chunks(vectors, 6), chunks(uniforms, 6))
            ]
        )
        np.testing.assert_array_equal(full, chunked)

    def test_storage_form_is_irrelevant(self, graph, utility):
        """A dense row and its support-form twin draw the same node from
        the same uniforms."""
        mechanism = ExponentialMechanism(1.0, sensitivity=2.0)
        targets = list(range(20))
        support_rows = utility_vectors(graph, utility, targets)
        dense_rows = [utility.utility_vector(graph, t) for t in targets]
        np.testing.assert_array_equal(
            mechanism.recommend_vectors(support_rows, make_uniforms(9, 20)),
            mechanism.recommend_vectors(dense_rows, make_uniforms(9, 20)),
        )

    def test_samples_are_valid_candidates(self, graph, utility):
        mechanism = ExponentialMechanism(1.0, sensitivity=2.0)
        vectors = utility_vectors(graph, utility, list(range(10)))
        picks = mechanism.recommend_vectors(vectors, make_uniforms(0, 10))
        for vector, pick in zip(vectors, picks):
            assert pick != vector.target
            assert not graph.has_edge(vector.target, int(pick))

    def test_follows_softmax_distribution(self):
        """Inverse-CDF sampling is exactly the exponential mechanism's
        distribution (TV distance over many tiled rows)."""
        graph = toy.paper_example_graph()
        utility = CommonNeighbors()
        mechanism = ExponentialMechanism(epsilon=2.0, sensitivity=2.0)
        vector = utility_vectors(graph, utility, [0])[0]
        exact = mechanism.probabilities(vector)

        draws = 20_000
        picks = mechanism.recommend_vectors([vector] * draws, make_uniforms(5, draws))
        counts = np.bincount(picks, minlength=graph.num_nodes)[vector.candidates]
        tv_distance = 0.5 * np.abs(counts / draws - exact).sum()
        assert tv_distance < 0.03


def _engine_call(graph, utility, mechanisms, targets, **kwargs):
    from repro.accuracy.batch import evaluate_targets_batched

    return evaluate_targets_batched(
        graph,
        utility,
        targets,
        mechanisms,
        bound_epsilons=(0.5, 1.0),
        seed=17,
        **kwargs,
    )


class TestEngineChunkIdentity:
    """The acceptance property: bit-identical evaluations however the
    targets are split across engine calls."""

    @pytest.fixture(scope="class")
    def workload(self):
        graph = wiki_vote(scale=0.05)
        utility = CommonNeighbors()
        from repro.mechanisms.laplace import LaplaceMechanism

        mechanisms = {
            "exponential@0.5": ExponentialMechanism(0.5, sensitivity=2.0),
            "laplace@0.5": LaplaceMechanism(0.5, sensitivity=2.0),
        }
        targets = list(range(40))
        reference = _engine_call(graph, utility, mechanisms, targets)
        return graph, utility, mechanisms, targets, reference

    @pytest.mark.parametrize("rows", [7, 1, 13, 9, 11, 40], ids=lambda r: f"rows={r}")
    def test_bit_identical_across_target_partitions(self, workload, rows):
        """Calls on ``rows``-target pieces, concatenated, equal the one call."""
        graph, utility, mechanisms, targets, reference = workload
        pieces = engine_in_pieces(
            graph, utility, targets, mechanisms, rows, bound_epsilons=(0.5, 1.0), seed=17,
        )
        assert pieces == reference


def _kept_by_footnote_10(vectors: "list[UtilityVector]") -> "list[int]":
    """The sequential evaluator's drop rule, applied per vector."""
    return [
        row for row, vector in enumerate(vectors)
        if len(vector) >= 2 and vector.has_signal()
    ]


def _dense_row_vectors(rows) -> "list[UtilityVector]":
    """One dense vector per candidate-value row (row index as target)."""
    return [
        UtilityVector(row, np.arange(len(values)), np.asarray(values, dtype=float), 0)
        for row, values in enumerate(rows)
    ]


def _flat_support(vectors):
    supports = [vector.support()[1] for vector in vectors]
    offsets = np.cumsum([0] + [support.size for support in supports])
    flat = np.concatenate(supports) if supports else np.empty(0)
    return flat, offsets, np.asarray([len(vector) for vector in vectors])


class TestFootnote10Support:
    """The flat filter keeps exactly the rows the sequential evaluator
    keeps (footnote 10: at least two candidates and ``has_signal()``),
    with each kept row's positive utilities in order and its zero-bucket
    size."""

    def _compare(self, vectors):
        kept, values, offsets, zeros = footnote10_support(*_flat_support(vectors))
        expected = _kept_by_footnote_10(vectors)
        np.testing.assert_array_equal(kept, expected)
        for index, row in enumerate(expected):
            vector = vectors[row]
            np.testing.assert_array_equal(
                values[offsets[index]:offsets[index + 1]], vector.support()[1]
            )
            assert zeros[index] == vector.zero_count
        return kept, values, offsets, zeros

    def test_matches_reference_on_graph_rows(self, graph, utility):
        vectors = [utility.utility_vector(graph, t) for t in range(0, graph.num_nodes, 2)]
        assert self._compare(vectors)[0].size > 0

    def test_drops_zero_signal_and_single_candidate_rows(self):
        vectors = _dense_row_vectors([
            [3.0, 1.0, 0.0],
            [0.0, 0.0],    # zero signal: dropped
            [2.0, 0.0, 5.0],
            [7.0],         # one candidate: dropped
        ])
        kept, values, offsets, zeros = self._compare(vectors)
        np.testing.assert_array_equal(kept, [0, 2])
        np.testing.assert_array_equal(values, [3.0, 1.0, 2.0, 5.0])
        np.testing.assert_array_equal(offsets, [0, 2, 4])
        np.testing.assert_array_equal(zeros, [1, 1])

    def test_nothing_kept(self):
        kept, values, offsets, zeros = footnote10_support(
            np.empty(0), np.zeros(4, dtype=np.int64), np.asarray([3, 1, 0])
        )
        assert kept.size == values.size == zeros.size == 0
        np.testing.assert_array_equal(offsets, [0])
