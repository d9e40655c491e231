"""Unit tests for the sparse edge-delta kernels.

The anchor property: for every non-endpoint target, scattering a
mutation's :class:`EdgeScoreDelta` into the pre-mutation walk-count
components yields the post-mutation components *bit for bit* — the
telescoped ``A_new^k - A_old^k`` identity holds exactly in integer
float64 arithmetic, including walks through the mutated edge more than
once, cycles back into the endpoints, and removals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compute.incremental import (
    COMPONENTS_KEY,
    EdgeScoreDelta,
    apply_edge_delta,
    candidate_position_map,
    compute_edge_delta,
    patch_utility_vector,
)
from repro.errors import GraphError
from repro.graphs.graph import SocialGraph
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


class TestDeltaExactness:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("max_length", [2, 3, 4])
    def test_patched_components_match_recompute_bitwise(self, directed, max_length):
        rng = np.random.default_rng(20 * max_length + directed)
        utility = WeightedPaths(gamma=0.01, max_length=max_length)
        for _ in range(15):
            graph = random_overlay(rng, directed=directed)
            targets = np.arange(graph.num_nodes, dtype=np.int64)
            before = [c.copy() for c in utility.batch_score_components(graph, targets)]
            u, v, added = random_flip(rng, graph)
            delta = compute_edge_delta(graph, u, v, added, max_length)
            after = utility.batch_score_components(graph, targets)
            candidates = np.arange(graph.num_nodes, dtype=np.int64)
            for target in range(graph.num_nodes):
                if delta.evicts(target):
                    continue
                components = np.stack([level[target].copy() for level in before])
                apply_edge_delta(
                    delta, target, candidates, components,
                    candidate_position_map(candidates, graph.num_nodes),
                )
                expected = np.stack([level[target] for level in after])
                assert np.array_equal(components, expected)

    def test_common_neighbors_is_the_length2_component(self):
        rng = np.random.default_rng(3)
        graph = random_overlay(rng)
        cn = CommonNeighbors()
        targets = np.arange(graph.num_nodes, dtype=np.int64)
        before = cn.batch_score_components(graph, targets)[0].copy()
        u, v, added = random_flip(rng, graph)
        delta = compute_edge_delta(graph, u, v, added, 2)
        after = cn.batch_score_components(graph, targets)[0]
        for target in range(graph.num_nodes):
            if delta.evicts(target):
                continue
            # Slice off the diagonal like real candidate sets do (CN's
            # component zeroes it, walk counts do not).
            candidates = np.asarray(
                [c for c in range(graph.num_nodes) if c != target], dtype=np.int64
            )
            components = before[target].take(candidates)[np.newaxis].copy()
            apply_edge_delta(
                delta, target, candidates, components,
                candidate_position_map(candidates, graph.num_nodes),
            )
            assert np.array_equal(components[0], after[target].take(candidates))

    def test_deeper_delta_patches_shallower_component_block(self):
        rng = np.random.default_rng(11)
        graph = random_overlay(rng)
        cn = CommonNeighbors()
        targets = np.arange(graph.num_nodes, dtype=np.int64)
        before = cn.batch_score_components(graph, targets)[0].copy()
        u, v, added = random_flip(rng, graph)
        # Journaled for weighted paths (L=4) but patching a CN block.
        delta = compute_edge_delta(graph, u, v, added, 4)
        after = cn.batch_score_components(graph, targets)[0]
        candidates = np.arange(graph.num_nodes, dtype=np.int64)
        for target in range(graph.num_nodes):
            if delta.evicts(target):
                continue
            components = before[target][np.newaxis].copy()
            components[0, target] = 0.0  # CN components zero the diagonal
            apply_edge_delta(
                delta, target, candidates, components,
                candidate_position_map(candidates, graph.num_nodes),
            )
            expected = after[target].copy()
            assert components[0, target] == 0.0 or expected[target] == components[0, target]
            mask = candidates != target
            assert np.array_equal(components[0][mask], expected[mask])


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
        u, v, added = random_flip(rng, graph)
        delta = compute_edge_delta(graph, u, v, added, 3)
        candidates = np.arange(graph.num_nodes, dtype=np.int64)
        for target in range(graph.num_nodes):
            if delta.evicts(target) or delta.touches(target):
                continue
            components = np.ones((2, candidates.size))
            assert not apply_edge_delta(
                delta, target, candidates, components,
                candidate_position_map(candidates, graph.num_nodes),
            )
            assert np.array_equal(components, np.ones((2, candidates.size)))

    def test_scatter_cost_counts_weighted_forward_levels(self):
        rng = np.random.default_rng(2)
        graph = random_overlay(rng)
        u, v, added = random_flip(rng, graph)
        delta = compute_edge_delta(graph, u, v, added, 3)
        expected = 0
        for levels in delta.forward.values():
            for m, (ids, counts) in enumerate(levels):
                support = np.count_nonzero(counts) if ids is None else ids.size
                expected += (delta.max_length - 1 - m) * int(support)
        assert delta.scatter_cost == expected > 0

    def test_rejects_sub_quadratic_lengths(self):
        rng = np.random.default_rng(4)
        graph = random_overlay(rng)
        with pytest.raises(GraphError):
            compute_edge_delta(graph, 0, 1, True, 1)


class TestPatchUtilityVector:
    def _patchable_vector(self, graph, utility, target):
        from repro.compute.kernels import utility_vectors

        return utility_vectors(graph, utility, [target], with_components=True)[0]

    def test_patch_matches_fresh_vector_bitwise(self):
        rng = np.random.default_rng(7)
        graph = random_overlay(rng, n=20, num_edges=50)
        utility = WeightedPaths(gamma=0.01, max_length=3)
        target = 0
        vector = self._patchable_vector(graph, utility, target)
        deltas = []
        for _ in range(4):
            u, v, added = random_flip(rng, graph)
            deltas.append(compute_edge_delta(graph, u, v, added, 3))
        if any(d.evicts(target) for d in deltas):
            pytest.skip("random flips hit the target; rerun with another seed")
        patched = patch_utility_vector(
            vector, deltas, utility, graph.num_nodes
        )
        fresh = self._patchable_vector(graph, utility, target)
        assert np.array_equal(patched.values, fresh.values)
        assert np.array_equal(
            patched.metadata[COMPONENTS_KEY], fresh.metadata[COMPONENTS_KEY]
        )

    def test_patch_returns_a_fresh_float64_row(self):
        """A patch never mutates the resident row (callers of get() share
        it) and comes back at the serving dtype, float64."""
        rng = np.random.default_rng(8)
        graph = random_overlay(rng, n=20, num_edges=50)
        utility = WeightedPaths(gamma=0.01, max_length=3)
        vector = self._patchable_vector(graph, utility, 1)
        before = vector.values.copy(), vector.metadata[COMPONENTS_KEY].copy()
        u, v, added = random_flip(rng, graph)
        delta = compute_edge_delta(graph, u, v, added, 3)
        if delta.evicts(1) or not delta.touches(1):
            pytest.skip("flip hit or missed the target")
        patched = patch_utility_vector(vector, [delta], utility, graph.num_nodes)
        assert patched is not vector
        assert patched.values.dtype == np.float64
        assert np.array_equal(vector.values, before[0])
        assert np.array_equal(vector.metadata[COMPONENTS_KEY], before[1])
        fresh = self._patchable_vector(graph, utility, 1)
        assert np.array_equal(patched.values, fresh.values)

    def test_unpatchable_inputs_return_none(self):
        rng = np.random.default_rng(9)
        graph = random_overlay(rng)
        utility = WeightedPaths(gamma=0.01, max_length=3)
        bare = utility.utility_vector(graph, 0)  # no component side-car
        u, v, added = random_flip(rng, graph)
        delta = compute_edge_delta(graph, u, v, added, 3)
        assert patch_utility_vector(
            bare, [delta], utility, graph.num_nodes
        ) is None
        # An endpoint row refuses even with components present.
        endpoint = self._patchable_vector(graph, utility, u)
        assert patch_utility_vector(
            endpoint, [delta], utility, graph.num_nodes
        ) is None

    def test_empty_delta_list_returns_vector_unchanged(self):
        rng = np.random.default_rng(10)
        graph = random_overlay(rng)
        utility = CommonNeighbors()
        vector = self._patchable_vector(graph, utility, 2)
        assert patch_utility_vector(
            vector, [], utility, graph.num_nodes
        ) is vector


class TestComponentFillPath:
    """utility_vectors(with_components=True) must not perturb values."""

    @pytest.mark.parametrize("utility", [CommonNeighbors(), WeightedPaths(gamma=0.01)])
    @pytest.mark.parametrize("rows", [None, 3], ids=["default-budget", "3-row-budget"])
    def test_component_fill_is_value_identical(self, utility, rows, budget_rows):
        """The dense component fill runs in budget-sized chunks; at any
        budget its rows equal the one-pass support fill's."""
        from repro.compute.kernels import utility_vectors

        rng = np.random.default_rng(12)
        graph = random_overlay(rng, n=20, num_edges=60)
        targets = np.arange(graph.num_nodes, dtype=np.int64)
        plain = utility_vectors(graph, utility, targets)
        budget_rows(graph.num_nodes, rows)
        carred = utility_vectors(graph, utility, targets, with_components=True)
        assert [c.target for c in carred] == targets.tolist()
        for p, c in zip(plain, carred):
            assert np.array_equal(p.candidates, c.candidates)
            assert np.array_equal(p.values, c.values)
            assert p.target_degree == c.target_degree
            assert p.values.dtype == c.values.dtype == np.float64
            assert COMPONENTS_KEY not in p.metadata
            components = c.metadata[COMPONENTS_KEY]
            assert components.shape == (
                len(utility.walk_component_lengths()),
                c.candidates.size,
            )
            # Components recombine to the row's float64 scores exactly.
            combined = utility.combine_component_rows(components)
            assert np.array_equal(combined, c.values)

    def test_non_decomposable_utility_falls_back_silently(self):
        from repro.compute.kernels import utility_vectors
        from repro.utility.base import make_utility

        rng = np.random.default_rng(13)
        graph = random_overlay(rng)
        utility = make_utility("graph_distance")
        assert utility.walk_component_lengths() is None
        vectors = utility_vectors(graph, utility, [0, 1], with_components=True)
        assert all(COMPONENTS_KEY not in v.metadata for v in vectors)
