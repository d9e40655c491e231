"""Tests for the utility-function abstraction and UtilityVector."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import UtilityError
from repro.utility.base import (
    UtilityFunction,
    UtilityVector,
    candidate_nodes,
    make_utility,
    utility_registry,
)
from repro.utility.common_neighbors import CommonNeighbors
from tests.conftest import make_vector


class TestUtilityVector:
    def test_basic_accessors(self, simple_vector):
        assert len(simple_vector) == 5
        assert simple_vector.u_max == 5.0
        assert simple_vector.best_candidate == 3
        assert simple_vector.total == 10.0
        assert simple_vector.has_signal()

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(UtilityError):
            UtilityVector(0, np.asarray([1, 2]), np.asarray([1.0]), 1)

    def test_negative_utilities_rejected(self):
        with pytest.raises(UtilityError):
            make_vector([1.0, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_non_finite_utilities_rejected(self, bad, dtype):
        values = np.asarray([1.0, bad, 0.0], dtype=dtype)
        with pytest.raises(UtilityError, match="finite"):
            make_vector(values)
        with pytest.raises(UtilityError, match="finite"):
            UtilityVector.from_support(0, [1, 2, 3], values, [0], 5, 1)

    def test_non_finite_scores_never_reach_the_zero_bucket(self, example_graph):
        """A utility emitting NaN must fail the batched kernel, not have its
        NaN scores filed as zero utility by the support split."""
        from repro.compute import utility_vectors

        class Broken(CommonNeighbors):
            def scores(self, graph, target):
                scores = super().scores(graph, target)
                scores[scores > 0] = np.nan
                return scores

            support_scores = UtilityFunction.support_scores

        with pytest.raises(UtilityError, match="finite"):
            utility_vectors(example_graph, Broken(), [0])

    def test_support_form_accessors(self):
        vector = UtilityVector.from_support(
            0, [3, 5, 7], [2.0, 0.0, 1.0], [0, 2, 5], 10, 2
        )
        np.testing.assert_array_equal(vector.candidates, [1, 3, 4, 6, 7, 8, 9])
        np.testing.assert_array_equal(vector.values, [0, 2, 0, 0, 1, 0, 0])
        assert len(vector) == vector.num_candidates == 7
        assert vector.zero_count == 5
        assert vector.u_max == 2.0 and vector.best_candidate == 3
        assert vector.value_of(7) == 1.0 and vector.value_of(4) == 0.0
        for excluded in (0, 5, 10):
            with pytest.raises(UtilityError):
                vector.value_of(excluded)
        empty = UtilityVector.from_support(4, [], [], [4], 6, 0)
        assert not empty.has_signal() and empty.best_candidate == 0

    def test_support_form_rejects_malformed_ids(self):
        with pytest.raises(UtilityError, match="strictly increasing"):
            UtilityVector.from_support(0, [3, 2], [1.0, 1.0], [0], 5, 1)
        with pytest.raises(UtilityError, match="strictly increasing"):
            UtilityVector.from_support(0, [2], [1.0], [0, 0], 5, 1)
        with pytest.raises(UtilityError, match="strictly increasing"):
            UtilityVector.from_support(0, [5], [1.0], [0], 5, 1)

    def test_vectors_are_immutable(self, simple_vector):
        with pytest.raises(AttributeError):
            simple_vector.target = 3

    def test_empty_vector_has_no_max(self):
        vector = make_vector([])
        with pytest.raises(UtilityError):
            _ = vector.u_max
        assert not vector.has_signal()

    def test_all_zero_has_no_signal(self):
        assert not make_vector([0.0, 0.0]).has_signal()

    def test_value_of_known_candidate(self, simple_vector):
        assert simple_vector.value_of(4) == 3.0

    def test_value_of_unknown_candidate_raises(self, simple_vector):
        with pytest.raises(UtilityError):
            simple_vector.value_of(99)

    def test_rescaled_preserves_structure(self, simple_vector):
        doubled = simple_vector.rescaled(2.0)
        assert doubled.u_max == 10.0
        assert doubled.best_candidate == simple_vector.best_candidate
        assert np.array_equal(doubled.candidates, simple_vector.candidates)

    def test_rescaled_rejects_nonpositive(self, simple_vector):
        with pytest.raises(UtilityError):
            simple_vector.rescaled(0.0)

    def test_ties_resolve_to_lowest_candidate(self):
        vector = make_vector([2.0, 2.0, 1.0])
        assert vector.best_candidate == 100


@st.composite
def _partitions(draw):
    """``(num_nodes, support, excluded)``: disjoint sorted ids, with at
    least one id left over for the zero bucket."""
    num_nodes = draw(st.integers(1, 60))
    roles = draw(st.lists(st.sampled_from("szx"), min_size=num_nodes, max_size=num_nodes))
    roles[draw(st.integers(0, num_nodes - 1))] = "z"
    support = [node for node, role in enumerate(roles) if role == "s"]
    excluded = [node for node, role in enumerate(roles) if role == "x"]
    return num_nodes, support, excluded


class TestZeroCandidate:
    """The sort-free rank-select against ``np.setdiff1d``."""

    @settings(max_examples=100, deadline=None)
    @given(_partitions())
    @example((6, [], [0, 5]))  # empty support, excluded ids at both ends
    @example((5, [0, 1, 3, 4], []))  # a bucket of one
    @example((7, [1, 2, 4], [0, 6]))  # excluded at both ends around the support
    @example((1, [], []))  # a one-node graph
    def test_property_matches_setdiff(self, partition):
        num_nodes, support, excluded = partition
        vector = UtilityVector.from_support(
            0, support, np.ones(len(support)), excluded, num_nodes, len(excluded)
        )
        bucket = np.setdiff1d(np.arange(num_nodes), support + excluded)
        assert vector.zero_count == bucket.size
        got = [vector.zero_candidate(rank) for rank in range(bucket.size)]
        np.testing.assert_array_equal(got, bucket)
        dense = UtilityVector(0, vector.candidates, vector.values, len(excluded))
        assert [dense.zero_candidate(rank) for rank in range(bucket.size)] == got

    @pytest.mark.parametrize("rank", [-1, 2])
    def test_rank_out_of_range_raises(self, rank):
        vector = UtilityVector.from_support(0, [1], [1.0], [0], 4, 0)
        with pytest.raises(UtilityError, match="out of range"):
            vector.zero_candidate(rank)


@st.composite
def _peels(draw):
    """A support-form row's partition, positive utilities for its support,
    and a non-empty sequence of distinct candidates to peel in order."""
    num_nodes, support, excluded = draw(_partitions())
    values = draw(
        st.lists(st.floats(0.25, 8.0), min_size=len(support), max_size=len(support))
    )
    candidates = sorted(set(range(num_nodes)) - set(excluded))
    nodes = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=6, unique=True))
    return num_nodes, support, values, excluded, nodes


def _assert_same_row(got: UtilityVector, want: UtilityVector) -> None:
    np.testing.assert_array_equal(got.candidates, want.candidates)
    np.testing.assert_array_equal(got.values, want.values)
    for got_part, want_part in zip(got.support(), want.support()):
        np.testing.assert_array_equal(got_part, want_part)
    assert got.zero_count == want.zero_count
    assert [got.zero_candidate(rank) for rank in range(got.zero_count)] == [
        want.zero_candidate(rank) for rank in range(want.zero_count)
    ]


class TestWithout:
    """Peeling a candidate against the dense mask it replaces."""

    @settings(max_examples=100, deadline=None)
    @given(_peels())
    @example((8, [1, 3, 6], [2.0, 1.0, 4.0], [2, 5], [1]))  # support id below an excluded id
    @example((8, [1, 3, 6], [2.0, 1.0, 4.0], [2, 5], [6]))  # support id above an excluded id
    @example((8, [1, 3, 6], [2.0, 1.0, 4.0], [2, 5], [4]))  # bucket id below an excluded id
    @example((8, [1, 3, 6], [2.0, 1.0, 4.0], [2, 5], [0, 7]))  # bucket ids at both ends
    @example((6, [], [], [0, 5], [1, 4, 2, 3]))  # empty support, peeled to nothing
    @example((5, [0, 1, 3, 4], [1.0, 1.0, 2.0, 3.0], [], [2, 0]))  # bucket of one
    def test_matches_the_dense_mask(self, peel):
        num_nodes, support, values, excluded, nodes = peel
        vector = UtilityVector.from_support(
            0, support, values, excluded, num_nodes, len(excluded)
        )
        dense = UtilityVector(0, vector.candidates, vector.values, len(excluded))
        for node in nodes:
            keep = vector.candidates != node
            mask = UtilityVector(0, vector.candidates[keep], vector.values[keep], len(excluded))
            vector, dense = vector.without(node), dense.without(node)
            assert vector.excluded is not None and dense.excluded is None
            _assert_same_row(vector, mask)
            _assert_same_row(dense, mask)
        assert vector.excluded.tolist() == sorted(excluded + nodes)

    def test_keeps_target_degree_and_metadata(self):
        vector = UtilityVector.from_support(0, [2, 4], [1.0, 2.0], [0, 1], 6, 1, {"a": 1})
        peeled = vector.without(4)
        assert (peeled.target, peeled.target_degree, peeled.metadata) == (0, 1, {"a": 1})
        assert peeled.metadata is not vector.metadata

    @pytest.mark.parametrize("node", [0, 1, 6, -1, 3])
    def test_non_candidate_raises(self, node):
        """The target, a link, ids outside the graph, and a peeled id."""
        vector = UtilityVector.from_support(0, [2, 4], [1.0, 2.0], [0, 1], 6, 1).without(3)
        dense = UtilityVector(0, vector.candidates, vector.values, 1)
        for row in (vector, dense):
            with pytest.raises(UtilityError, match="not a candidate"):
                row.without(node)


class TestCandidateNodes:
    def test_excludes_target_and_neighbors(self, example_graph):
        candidates = candidate_nodes(example_graph, 0)
        assert 0 not in candidates
        for neighbor in example_graph.neighbors(0):
            assert neighbor not in candidates
        assert set(candidates) == set(range(4, 12))

    def test_directed_excludes_out_neighbors_only(self, directed_graph):
        candidates = set(candidate_nodes(directed_graph, 1).tolist())
        # node 1 points at the sink only; everything else is a candidate
        assert candidates == {0, 2, 3, 4}


class TestUtilityVectorConstruction:
    def test_utility_vector_shape_and_metadata(self, example_graph):
        vector = CommonNeighbors().utility_vector(example_graph, 0)
        assert vector.target == 0
        assert vector.target_degree == 3
        assert vector.metadata["utility"] == "common_neighbors"
        assert len(vector) == 8

    def test_out_of_range_target_raises(self, example_graph):
        with pytest.raises(UtilityError):
            CommonNeighbors().utility_vector(example_graph, 99)


class TestRegistry:
    def test_registry_contains_all_builtins(self):
        registry = utility_registry()
        for name in (
            "common_neighbors",
            "weighted_paths",
            "adamic_adar",
            "jaccard",
            "preferential_attachment",
            "personalized_pagerank",
        ):
            assert name in registry

    def test_make_utility_by_name(self):
        utility = make_utility("weighted_paths", gamma=0.05)
        assert utility.gamma == 0.05

    def test_make_unknown_utility_raises(self):
        with pytest.raises(UtilityError, match="unknown utility"):
            make_utility("nonexistent")


#: Registered utilities that keep the per-target default ``support_scores``.
DEFAULT_SUPPORT_SCORES = sorted(
    name
    for name, cls in utility_registry().items()
    if cls.support_scores is UtilityFunction.support_scores
)


class TestDefaultSupportScores:
    def test_every_builtin_without_a_product_form_is_covered(self):
        assert {"adamic_adar", "jaccard", "personalized_pagerank"} <= set(
            DEFAULT_SUPPORT_SCORES
        )

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("name", DEFAULT_SUPPORT_SCORES)
    def test_rows_equal_utility_vector(self, name, directed):
        """Row ``j`` holds exactly the non-zeros of ``scores(targets[j])``,
        and the support-form vectors built from it equal the per-target
        ``utility_vector`` bit for bit."""
        from repro.compute import utility_vectors
        from repro.graphs.generators import erdos_renyi_gnp

        graph = erdos_renyi_gnp(40, 0.12, directed=directed, seed=3)
        utility = make_utility(name)
        targets = np.arange(0, 40, 3)
        matrix = utility.support_scores(graph, targets)
        assert matrix.shape == (targets.size, graph.num_nodes)
        assert (matrix.data != 0).all()
        for row, target in enumerate(targets):
            scores = np.asarray(utility.scores(graph, int(target)), dtype=np.float64)
            got = matrix[row].toarray().ravel()
            assert np.array_equal(got.view(np.int64), scores.view(np.int64))
        for vector in utility_vectors(graph, utility, targets):
            reference = utility.utility_vector(graph, vector.target)
            assert np.array_equal(vector.candidates, reference.candidates)
            assert np.array_equal(vector.values, reference.values)
            assert vector.target_degree == reference.target_degree

    def test_wrong_length_scores_rejected(self, example_graph):
        class Short(CommonNeighbors):
            def scores(self, graph, target):
                return super().scores(graph, target)[:-1]

            support_scores = UtilityFunction.support_scores

        with pytest.raises(UtilityError, match="shape"):
            Short().support_scores(example_graph, [0, 1])


@given(
    values=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30),
    factor=st.floats(0.01, 100.0),
)
@settings(max_examples=50, deadline=None)
def test_property_rescaling_preserves_best_candidate(values, factor):
    """Accuracy invariance under rescaling (Section 3.3) starts here."""
    vector = make_vector(values)
    rescaled = vector.rescaled(factor)
    if vector.has_signal():
        assert rescaled.best_candidate == vector.best_candidate
        assert np.isclose(rescaled.u_max, vector.u_max * factor)
