"""Unit tests for the sparse edge-delta kernels.

The anchor property: for every non-endpoint target, merging a
mutation's :class:`EdgeScoreDelta` into the pre-mutation support-form
side-car yields the post-mutation walk counts *bit for bit* — the
telescoped ``A_new^k - A_old^k`` identity holds exactly in integer
float64 arithmetic, including walks through the mutated edge more than
once, cycles back into the endpoints, and removals. The oracle is
per-target :func:`~repro.graphs.traversal.walk_counts` on the
post-mutation graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compute.incremental import (
    COMPONENTS_KEY,
    compute_edge_delta,
    patch_utility_vector,
)
from repro.compute.kernels import utility_vectors
from repro.errors import GraphError
from repro.graphs.graph import SocialGraph
from repro.graphs.traversal import walk_counts
from repro.streaming.overlay import MutableSocialGraph
from repro.utility.common_neighbors import CommonNeighbors
from repro.utility.weighted_paths import WeightedPaths


def random_overlay(rng, n=14, num_edges=30, directed=False):
    edges = set()
    for _ in range(num_edges):
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges.add((int(a), int(b)))
    return MutableSocialGraph.from_graph(
        SocialGraph.from_edges(sorted(edges), n, directed=directed)
    )


def random_flip(rng, graph):
    """Flip one random non-loop pair; return (u, v, added)."""
    n = graph.num_nodes
    u, v = rng.integers(0, n, 2)
    while u == v:
        u, v = rng.integers(0, n, 2)
    u, v = int(u), int(v)
    added = not graph.has_edge(u, v)
    if added:
        graph.add_edge(u, v)
    else:
        graph.remove_edge(u, v)
    return u, v, added


def patchable(graph, utility, target):
    return utility_vectors(graph, utility, [target], with_components=True)[0]


def side_car(vector, utility):
    """A patchable vector's ``(ids, counts)``: the row itself for one length."""
    if len(utility.walk_component_lengths()) == 1:
        ids, values = vector.support()
        return ids, values[np.newaxis]
    return vector.metadata[COMPONENTS_KEY]


def oracle_side_car(graph, utility, target):
    """``(ids, counts)`` from the target's dense walk counts: every
    candidate with a non-zero count of some length, and the exact counts
    there."""
    lengths = utility.walk_component_lengths()
    walks = walk_counts(graph, target, max(lengths))
    block = np.stack([walks[length - 1] for length in lengths])
    candidates = utility.utility_vector(graph, target).candidates
    ids = candidates[block[:, candidates].any(axis=0)]
    return ids, block[:, ids]


def assert_exact(vector, graph, utility):
    """Support, zero bucket and side-car equal the from-scratch oracles."""
    reference = utility.utility_vector(graph, vector.target)
    ids, values = vector.support()
    expected_ids, expected_values = reference.support()
    assert np.array_equal(ids, expected_ids)
    assert np.array_equal(values, expected_values)
    assert vector.zero_count == reference.zero_count
    car_ids, car_counts = side_car(vector, utility)
    oracle_ids, oracle_counts = oracle_side_car(graph, utility, vector.target)
    assert np.array_equal(car_ids, oracle_ids)
    assert np.array_equal(car_counts, oracle_counts)


UTILITIES = {
    "cn": CommonNeighbors(),
    "wp3": WeightedPaths(gamma=0.01, max_length=3),
    "wp4": WeightedPaths(gamma=0.01, max_length=4),
    "wp-gamma0": WeightedPaths(gamma=0.0, max_length=3),
}


class TestDeltaExactness:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("max_length", [2, 3, 4])
    def test_patched_side_cars_match_walk_matrices_bitwise(self, directed, max_length):
        rng = np.random.default_rng(20 * max_length + directed)
        utility = WeightedPaths(gamma=0.01, max_length=max_length)
        for _ in range(15):
            graph = random_overlay(rng, directed=directed)
            before = utility_vectors(
                graph, utility, range(graph.num_nodes), with_components=True
            )
            u, v, added = random_flip(rng, graph)
            delta = compute_edge_delta(graph, u, v, added, max_length)
            for vector in before:
                if delta.evicts(vector.target):
                    continue
                patched = patch_utility_vector(vector, [delta], utility)
                assert_exact(patched, graph, utility)

    def test_common_neighbors_row_is_its_own_side_car(self):
        rng = np.random.default_rng(3)
        graph = random_overlay(rng)
        cn = CommonNeighbors()
        before = utility_vectors(graph, cn, range(graph.num_nodes), with_components=True)
        assert all(COMPONENTS_KEY not in vector.metadata for vector in before)
        u, v, added = random_flip(rng, graph)
        delta = compute_edge_delta(graph, u, v, added, 2)
        for vector in before:
            if delta.evicts(vector.target):
                continue
            patched = patch_utility_vector(vector, [delta], cn)
            assert COMPONENTS_KEY not in patched.metadata
            assert_exact(patched, graph, cn)

    def test_deeper_delta_patches_shallower_side_car(self):
        rng = np.random.default_rng(11)
        graph = random_overlay(rng)
        cn = CommonNeighbors()
        before = utility_vectors(graph, cn, range(graph.num_nodes), with_components=True)
        u, v, added = random_flip(rng, graph)
        # Journaled for weighted paths (L=4) but patching a CN row.
        delta = compute_edge_delta(graph, u, v, added, 4)
        for vector in before:
            if not delta.evicts(vector.target):
                assert_exact(patch_utility_vector(vector, [delta], cn), graph, cn)


@st.composite
def mutation_runs(draw):
    """A random graph, a target and a run of flips that avoid its row."""
    directed = draw(st.booleans())
    n = draw(st.integers(6, 16))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda pair: pair[0] != pair[1]
    )
    edges = draw(st.lists(pairs, min_size=n, max_size=3 * n, unique=True))
    target = draw(st.integers(0, n - 1))
    flips = draw(
        st.lists(
            pairs.filter(lambda pair: target not in pair), min_size=1, max_size=8
        )
    )
    return directed, n, edges, target, flips


class TestSupportFormPatchProperty:
    """Fill and patch equal ``utility.utility_vector`` bit for bit, and the
    side-car equals the walk matrices, through adds that grow the support
    and removes that empty ids."""

    @pytest.mark.parametrize("name", sorted(UTILITIES))
    @settings(max_examples=40, deadline=None)
    @given(run=mutation_runs())
    def test_fill_then_patch_run_is_exact(self, name, run):
        utility = UTILITIES[name]
        directed, n, edges, target, flips = run
        graph = MutableSocialGraph.from_graph(
            SocialGraph.from_edges(edges, n, directed=directed)
        )
        graph.request_score_deltas(max(utility.walk_component_lengths()))
        vector = patchable(graph, utility, target)
        assert_exact(vector, graph, utility)
        version = graph.version
        for u, v in flips:
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
            else:
                graph.add_edge(u, v)
        deltas = graph.score_deltas_since(version, max(utility.walk_component_lengths()))
        if any(delta.evicts(target) for delta in deltas):
            return  # an undirected flip at the target's head changes its row
        assert_exact(patch_utility_vector(vector, deltas, utility), graph, utility)

    def test_gamma_zero_walk_support_exceeds_score_support(self):
        graph = MutableSocialGraph.from_graph(
            SocialGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)], 6)
        )
        utility = UTILITIES["wp-gamma0"]
        vector = patchable(graph, utility, 0)
        ids, counts = vector.metadata[COMPONENTS_KEY]
        assert vector.support()[0].tolist() == [2]  # length-2 walks only
        assert ids.tolist() == [2, 3]  # 0-1-2-3 counts at length 3
        graph.request_score_deltas(3)
        version = graph.version
        graph.remove_edge(2, 3)  # id 3 empties
        graph.add_edge(4, 5)  # out of reach until the next flip
        graph.add_edge(1, 5)  # 5 joins both supports, 4 (0-1-5-4) the walk one
        deltas = graph.score_deltas_since(version, 3)
        patched = patch_utility_vector(vector, deltas, utility)
        assert_exact(patched, graph, utility)
        assert patched.support()[0].tolist() == [2, 5]
        assert patched.metadata[COMPONENTS_KEY][0].tolist() == [2, 4, 5]


class TestDeltaSemantics:
    def test_evicts_is_endpoints_only(self):
        rng = np.random.default_rng(0)
        graph = random_overlay(rng, directed=True)
        u, v, added = random_flip(rng, graph)
        delta = compute_edge_delta(graph, u, v, added, 3)
        assert delta.evicts(u)
        assert not delta.evicts(v) or v == u
        undirected = random_overlay(rng, directed=False)
        u, v, added = random_flip(rng, undirected)
        delta = compute_edge_delta(undirected, u, v, added, 3)
        assert delta.evicts(u) and delta.evicts(v)

    def test_untouched_target_is_a_guaranteed_noop(self):
        rng = np.random.default_rng(1)
        graph = random_overlay(rng)
        utility = WeightedPaths(gamma=0.01, max_length=3)
        before = utility_vectors(graph, utility, range(graph.num_nodes), with_components=True)
        u, v, added = random_flip(rng, graph)
        delta = compute_edge_delta(graph, u, v, added, 3)
        for vector in before:
            if delta.evicts(vector.target) or delta.touches(vector.target):
                continue
            assert patch_utility_vector(vector, [delta], utility) is vector

    def test_forward_levels_are_sparse_and_scatter_cost_counts_them(self):
        rng = np.random.default_rng(2)
        graph = random_overlay(rng)
        u, v, added = random_flip(rng, graph)
        delta = compute_edge_delta(graph, u, v, added, 3)
        expected = 0
        for levels in delta.forward.values():
            for m, (ids, counts) in enumerate(levels):
                assert ids is not None and np.all(counts != 0)
                expected += (delta.max_length - 1 - m) * int(ids.size)
        assert delta.scatter_cost == expected > 0

    def test_touched_is_a_frozenset(self):
        rng = np.random.default_rng(5)
        graph = random_overlay(rng)
        u, v, added = random_flip(rng, graph)
        delta = compute_edge_delta(graph, u, v, added, 3)
        assert isinstance(delta.touched, frozenset)
        assert all(delta.touches(node) == (node in delta.touched) for node in range(14))

    def test_rejects_sub_quadratic_lengths(self):
        rng = np.random.default_rng(4)
        graph = random_overlay(rng)
        with pytest.raises(GraphError):
            compute_edge_delta(graph, 0, 1, True, 1)


class TestPatchUtilityVector:
    def test_patch_matches_fresh_vector_bitwise(self):
        rng = np.random.default_rng(7)
        graph = random_overlay(rng, n=20, num_edges=50)
        utility = WeightedPaths(gamma=0.01, max_length=3)
        target = 0
        vector = patchable(graph, utility, target)
        deltas = []
        for _ in range(4):
            u, v, added = random_flip(rng, graph)
            deltas.append(compute_edge_delta(graph, u, v, added, 3))
        if any(d.evicts(target) for d in deltas):
            pytest.skip("random flips hit the target; rerun with another seed")
        patched = patch_utility_vector(vector, deltas, utility)
        fresh = patchable(graph, utility, target)
        assert np.array_equal(patched.values, fresh.values)
        for mine, theirs in zip(patched.metadata[COMPONENTS_KEY], fresh.metadata[COMPONENTS_KEY]):
            assert np.array_equal(mine, theirs)

    def test_patch_returns_a_fresh_float64_row(self):
        """A patch never mutates the resident row (callers of get() share
        it) and comes back at the serving dtype, float64."""
        rng = np.random.default_rng(8)
        graph = random_overlay(rng, n=20, num_edges=50)
        utility = WeightedPaths(gamma=0.01, max_length=3)
        vector = patchable(graph, utility, 1)
        ids, counts = (array.copy() for array in vector.metadata[COMPONENTS_KEY])
        support = [array.copy() for array in vector.support()]
        u, v, added = random_flip(rng, graph)
        delta = compute_edge_delta(graph, u, v, added, 3)
        if delta.evicts(1) or not delta.touches(1):
            pytest.skip("flip hit or missed the target")
        patched = patch_utility_vector(vector, [delta], utility)
        assert patched is not vector
        assert patched.support()[1].dtype == np.float64
        assert patched.metadata[COMPONENTS_KEY][1].dtype == np.float64
        assert np.array_equal(vector.metadata[COMPONENTS_KEY][0], ids)
        assert np.array_equal(vector.metadata[COMPONENTS_KEY][1], counts)
        for mine, before in zip(vector.support(), support):
            assert np.array_equal(mine, before)
        assert_exact(patched, graph, utility)

    def test_unpatchable_inputs_return_none(self):
        rng = np.random.default_rng(9)
        graph = random_overlay(rng)
        utility = WeightedPaths(gamma=0.01, max_length=3)
        u, v, added = random_flip(rng, graph)
        delta = compute_edge_delta(graph, u, v, added, 3)
        dense = utility.utility_vector(graph, 0)
        bare = utility_vectors(graph, utility, [0])[0]  # support form, no side-car
        for vector in (dense, bare, CommonNeighbors().utility_vector(graph, 0)):
            assert patch_utility_vector(vector, [delta], utility) is None
        # An endpoint row refuses even with its side-car present.
        endpoint = patchable(graph, utility, u)
        assert patch_utility_vector(endpoint, [delta], utility) is None

    def test_empty_delta_list_returns_vector_unchanged(self):
        rng = np.random.default_rng(10)
        graph = random_overlay(rng)
        utility = CommonNeighbors()
        vector = patchable(graph, utility, 2)
        assert patch_utility_vector(vector, [], utility) is vector


class TestComponentFillPath:
    """utility_vectors(with_components=True) must not perturb values."""

    @pytest.mark.parametrize("utility", [CommonNeighbors(), WeightedPaths(gamma=0.01)])
    def test_component_fill_is_value_identical(self, utility):
        """The sparse side-car fill's rows equal the plain support fill's,
        and every side-car equals the walk matrices."""
        rng = np.random.default_rng(12)
        graph = random_overlay(rng, n=20, num_edges=60)
        targets = np.arange(graph.num_nodes, dtype=np.int64)
        plain = utility_vectors(graph, utility, targets)
        carred = utility_vectors(graph, utility, targets, with_components=True)
        assert [c.target for c in carred] == targets.tolist()
        for p, c in zip(plain, carred):
            for mine, theirs in zip(p.support(), c.support()):
                assert np.array_equal(mine, theirs)
            assert np.array_equal(p.excluded, c.excluded)
            assert p.target_degree == c.target_degree
            assert c.support()[1].dtype == np.float64
            assert COMPONENTS_KEY not in p.metadata
            ids, counts = side_car(c, utility)
            assert counts.shape == (len(utility.walk_component_lengths()), ids.size)
            assert_exact(c, graph, utility)
            # Components recombine to the row's float64 scores exactly.
            combined = utility.combine_component_rows(counts)
            assert np.array_equal(ids[combined > 0], c.support()[0])
            assert np.array_equal(combined[combined > 0], c.support()[1])

    def test_non_decomposable_utility_falls_back_silently(self):
        from repro.utility.base import make_utility

        rng = np.random.default_rng(13)
        graph = random_overlay(rng)
        utility = make_utility("graph_distance")
        assert utility.walk_component_lengths() is None
        vectors = utility_vectors(graph, utility, [0, 1], with_components=True)
        assert all(COMPONENTS_KEY not in v.metadata for v in vectors)
