"""Tests for the canonical compute kernels and their chunking stability."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compute import (
    ComputePlan,
    Workspace,
    fused_compact_rows,
    utility_vectors,
)
from repro.compute.kernels import candidate_mask_rows, score_rows
from repro.datasets import toy, twitter, wiki_vote
from repro.errors import UtilityError
from repro.mechanisms.exponential import ExponentialMechanism
from repro.rng import spawn_rngs
from repro.utility.base import UtilityVector
from repro.utility.common_neighbors import CommonNeighbors
from repro.utility.weighted_paths import WeightedPaths


@pytest.fixture(scope="module")
def graph():
    return wiki_vote(scale=0.05)


@pytest.fixture(scope="module")
def utility():
    return CommonNeighbors()


class TestUtilityRows:
    def test_matches_reference_per_target(self, graph, utility):
        targets = [0, 5, 17, 40]
        scores = score_rows(graph, utility, targets)
        mask = candidate_mask_rows(graph, targets)
        assert scores.shape == mask.shape == (4, graph.num_nodes)
        for row, target in enumerate(targets):
            vector = utility.utility_vector(graph, target)
            np.testing.assert_array_equal(np.flatnonzero(mask[row]), vector.candidates)
            np.testing.assert_array_equal(scores[row][vector.candidates], vector.values)

    def test_chunked_partition_is_bit_identical(self, graph, utility, budget_rows):
        targets = np.arange(30, dtype=np.int64)
        full_scores = score_rows(graph, utility, targets)
        full_mask = candidate_mask_rows(graph, targets)
        budget_rows(graph.num_nodes, 7)
        for chunk in ComputePlan(30, graph.num_nodes):
            scores = score_rows(graph, utility, chunk.take(targets))
            mask = candidate_mask_rows(graph, chunk.take(targets))
            np.testing.assert_array_equal(scores, full_scores[chunk.start : chunk.stop])
            np.testing.assert_array_equal(mask, full_mask[chunk.start : chunk.stop])


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

    @pytest.mark.parametrize("rows", [None, 3], ids=["default-budget", "3-row-budget"])
    @pytest.mark.parametrize("utility", [CommonNeighbors(), WeightedPaths(gamma=0.05)])
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_support_rows_round_trip_to_reference(
        self, utility, directed, rows, budget_rows
    ):
        """A support-form row's dense view equals the per-target reference
        exactly, on both graph conventions and at any byte budget (weighted
        paths sparsifies its dense score rows chunk by chunk)."""
        graph = twitter(scale=0.05) if directed else wiki_vote(scale=0.05)
        assert graph.is_directed == directed
        budget_rows(graph.num_nodes, rows)
        targets = list(range(0, graph.num_nodes, max(1, graph.num_nodes // 25)))
        for vector in utility_vectors(graph, utility, targets):
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
    def test_per_row_streams_make_chunking_irrelevant(
        self, graph, utility, budget_rows
    ):
        """The property per-request streams give: a row's sample depends
        only on its own stream, so any partition of a batch reproduces it."""
        mechanism = ExponentialMechanism(1.0, sensitivity=2.0)
        vectors = utility_vectors(graph, utility, list(range(20)))

        full = mechanism.recommend_vectors(vectors, spawn_rngs(123, 20))

        streams = spawn_rngs(123, 20)
        budget_rows(graph.num_nodes, 6)
        chunked = np.concatenate(
            [
                mechanism.recommend_vectors(chunk.take(vectors), chunk.take(streams))
                for chunk in ComputePlan(20, graph.num_nodes)
            ]
        )
        np.testing.assert_array_equal(full, chunked)

    def test_storage_form_is_irrelevant(self, graph, utility):
        """A dense row and its support-form twin draw the same node from
        the same stream."""
        mechanism = ExponentialMechanism(1.0, sensitivity=2.0)
        targets = list(range(20))
        support_rows = utility_vectors(graph, utility, targets)
        dense_rows = [utility.utility_vector(graph, t) for t in targets]
        np.testing.assert_array_equal(
            mechanism.recommend_vectors(support_rows, spawn_rngs(9, 20)),
            mechanism.recommend_vectors(dense_rows, spawn_rngs(9, 20)),
        )

    def test_samples_are_valid_candidates(self, graph, utility):
        mechanism = ExponentialMechanism(1.0, sensitivity=2.0)
        vectors = utility_vectors(graph, utility, list(range(10)))
        picks = mechanism.recommend_vectors(vectors, spawn_rngs(0, 10))
        for vector, pick in zip(vectors, picks):
            assert pick != vector.target
            assert not graph.has_edge(vector.target, int(pick))

    def test_follows_softmax_distribution(self):
        """Per-row-stream sampling is still exactly the exponential
        mechanism's distribution (TV distance over many tiled rows)."""
        graph = toy.paper_example_graph()
        utility = CommonNeighbors()
        mechanism = ExponentialMechanism(epsilon=2.0, sensitivity=2.0)
        vector = utility_vectors(graph, utility, [0])[0]
        exact = mechanism.probabilities(vector)

        draws = 20_000
        picks = mechanism.recommend_vectors([vector] * draws, spawn_rngs(5, draws))
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
        laplace_trials=40,
        **kwargs,
    )


class TestEngineChunkIdentity:
    """The acceptance property: bit-identical evaluations at every byte budget."""

    @pytest.fixture(scope="class")
    def workload(self):
        graph = wiki_vote(scale=0.05)
        utility = CommonNeighbors()
        from repro.mechanisms.laplace import LaplaceMechanism

        mechanisms = {
            "exponential@0.5": ExponentialMechanism(0.5, sensitivity=2.0),
            "laplace@0.5": LaplaceMechanism(0.5, sensitivity=2.0, trials=40),
        }
        targets = list(range(40))
        reference = _engine_call(graph, utility, mechanisms, targets)
        return graph, utility, mechanisms, targets, reference

    @pytest.mark.parametrize("rows", [7, 1, 13, 9, 11, 40], ids=lambda r: f"rows={r}")
    def test_bit_identical_to_default_budget(self, workload, budget_rows, rows):
        graph, utility, mechanisms, targets, reference = workload
        budget_rows(graph.num_nodes, rows)
        assert _engine_call(graph, utility, mechanisms, targets) == reference

    @pytest.mark.parametrize("rows", [8, 3])
    def test_dense_allocations_bounded_by_budget(
        self, workload, monkeypatch, budget_rows, rows
    ):
        """No stage may see more targets at once than the budget's rows —
        the memory-bound contract of the plan."""
        graph, utility, mechanisms, targets, reference = workload
        budget_rows(graph.num_nodes, rows)
        seen: list[int] = []
        original = CommonNeighbors.batch_scores

        def spying(self, graph, batch_targets, out=None):
            seen.append(len(np.asarray(batch_targets)))
            return original(self, graph, batch_targets, out=out)

        monkeypatch.setattr(CommonNeighbors, "batch_scores", spying)
        result = _engine_call(graph, utility, mechanisms, targets)
        assert result == reference
        assert seen and max(seen) <= rows


def _kept_by_footnote_10(vectors: "list[UtilityVector]") -> "list[int]":
    """The sequential evaluator's drop rule, applied per vector."""
    return [
        row for row, vector in enumerate(vectors)
        if len(vector) >= 2 and vector.has_signal()
    ]


def _mask_row_vectors(scores, mask) -> "list[UtilityVector]":
    """One vector per row of a raw score/mask pair (row index as target)."""
    vectors = []
    for row in range(scores.shape[0]):
        candidates = np.flatnonzero(mask[row])
        vectors.append(
            UtilityVector(row, candidates, scores[row][candidates], target_degree=0)
        )
    return vectors


class TestFusedCompactRows:
    """The fused filter keeps exactly the rows the sequential evaluator
    keeps (footnote 10: at least two candidates and ``has_signal()``),
    with each kept row's candidates and values in order, its maximum, and
    the same ``values / u_max`` scaling."""

    def _compare(self, vectors, scores, mask, workspace=None):
        chunk = fused_compact_rows(
            scores, mask,
            workspace=Workspace() if workspace == "fresh" else workspace,
        )
        compact = chunk.compact
        kept = _kept_by_footnote_10(vectors)
        np.testing.assert_array_equal(chunk.kept, kept)
        np.testing.assert_array_equal(compact.counts, [len(vectors[row]) for row in kept])
        np.testing.assert_array_equal(compact.offsets, np.cumsum([0] + list(compact.counts)))
        for index, row in enumerate(kept):
            vector = vectors[row]
            start, stop = compact.offsets[index], compact.offsets[index + 1]
            np.testing.assert_array_equal(chunk.candidate_row(index), vector.candidates)
            np.testing.assert_array_equal(chunk.value_row(index), vector.values)
            assert compact.u_maxes[index] == vector.u_max
            np.testing.assert_array_equal(
                compact.scaled[start:stop], vector.values / vector.u_max
            )
        return chunk

    @pytest.mark.parametrize("workspace", [None, "fresh"])
    def test_matches_reference_on_graph_rows(self, graph, utility, workspace):
        targets = np.arange(0, graph.num_nodes, 2, dtype=np.int64)
        scores = score_rows(graph, utility, targets)
        mask = candidate_mask_rows(graph, targets)
        vectors = [utility.utility_vector(graph, target) for target in targets]
        assert self._compare(vectors, scores, mask, workspace).kept.size > 0

    def test_footnote_10_filter(self):
        scores = np.asarray([[0.0, 2.0, 1.0], [0.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        mask = np.asarray(
            [[False, True, True], [False, True, True], [False, True, False]]
        )
        chunk = self._compare(_mask_row_vectors(scores, mask), scores, mask)
        # row 1: no signal; row 2: single candidate -> both dropped
        np.testing.assert_array_equal(chunk.kept, [0])
        np.testing.assert_array_equal(chunk.candidate_row(0), [1, 2])
        np.testing.assert_array_equal(chunk.value_row(0), [2.0, 1.0])
        np.testing.assert_array_equal(chunk.compact.scaled, [1.0, 0.5])

    def test_dropped_rows_exercise_the_compress_path(self):
        scores = np.asarray([
            [0.0, 3.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],   # zero signal: dropped
            [0.0, 2.0, 0.0, 5.0],
            [0.0, 7.0, 0.0, 0.0],   # one candidate: dropped
        ])
        mask = np.asarray([
            [False, True, True, True],
            [False, True, True, False],
            [True, True, False, True],
            [False, True, False, False],
        ])
        chunk = self._compare(_mask_row_vectors(scores, mask), scores, mask)
        np.testing.assert_array_equal(chunk.kept, [0, 2])

    def test_empty_mask_yields_empty_chunk(self):
        chunk = fused_compact_rows(
            np.zeros((3, 4)), np.zeros((3, 4), dtype=bool)
        )
        assert chunk.kept.size == 0
        assert chunk.compact.num_rows == 0
        assert chunk.candidate_cols.size == 0

    def test_workspace_views_are_reused_across_calls(self, graph, utility):
        workspace = Workspace()
        targets = np.arange(24, dtype=np.int64)
        scores = score_rows(graph, utility, targets)
        mask = candidate_mask_rows(graph, targets)
        first = fused_compact_rows(scores, mask, workspace=workspace)
        allocations = workspace.allocations
        second = fused_compact_rows(scores, mask, workspace=workspace)
        assert workspace.allocations == allocations  # pure reuse
        np.testing.assert_array_equal(first.compact.counts, second.compact.counts)
