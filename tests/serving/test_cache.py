"""Tests for the version-keyed utility cache."""

from __future__ import annotations

import concurrent.futures

import numpy as np
import pytest

from repro.datasets import toy
from repro.errors import ServingError
from repro.serving import UtilityCache
from repro.streaming import MutableSocialGraph
from repro.utility import CommonNeighbors, PersonalizedPageRank


@pytest.fixture
def graph():
    return toy.paper_example_graph()


@pytest.fixture
def cache(graph):
    return UtilityCache(graph, CommonNeighbors())


class TestHitsAndMisses:
    def test_first_lookup_is_a_miss(self, cache):
        cache.get(0)
        assert cache.snapshot()["misses"] == 1
        assert cache.snapshot()["hits"] == 0

    def test_repeat_lookup_is_a_hit_and_identical(self, cache):
        first = cache.get(0)
        second = cache.get(0)
        assert second is first
        assert cache.snapshot()["hits"] == 1
        assert cache.snapshot()["hit_rate"] == 0.5

    def test_vector_matches_direct_computation(self, cache, graph):
        direct = CommonNeighbors().utility_vector(graph, 4)
        cached = cache.get(4)
        np.testing.assert_array_equal(cached.candidates, direct.candidates)
        np.testing.assert_allclose(cached.values, direct.values)


class TestInvalidation:
    def test_mutation_clears_cache(self, cache, graph):
        assert not cache.patchable  # a plain graph journals no deltas
        cache.get(0)
        cache.get(1)
        assert len(cache) == 2
        graph.try_add_edge(0, graph.num_nodes - 1)
        assert len(cache) == 0
        assert cache.snapshot()["invalidations"] == 1

    def test_recompute_after_mutation_reflects_new_graph(self, cache, graph):
        stale = cache.get(0)
        # Give some candidate an extra common neighbor with target 0.
        middle = next(iter(graph.neighbors(0)))
        # The endpoint must be a *candidate* for target 0 (not already a
        # neighbor), otherwise its utility change is invisible to the vector.
        new_edges = [
            (middle, node)
            for node in graph.nodes()
            if node not in (0, middle)
            and not graph.has_edge(middle, node)
            and not graph.has_edge(0, node)
        ]
        u, v = new_edges[0]
        graph.add_edge(u, v)
        fresh = cache.get(0)
        assert not np.array_equal(fresh.values, stale.values)
        np.testing.assert_allclose(
            fresh.values, CommonNeighbors().utility_vector(graph, 0).values
        )

    def test_remove_edge_also_invalidates(self, cache, graph):
        cache.get(0)
        u, v = next(iter(graph.edges()))
        graph.remove_edge(u, v)
        assert 0 not in cache

    def test_unchanged_graph_never_invalidates(self, cache):
        for _ in range(5):
            cache.get(0)
        assert cache.snapshot()["invalidations"] == 0
        assert cache.snapshot()["misses"] == 1


class TestSelectiveInvalidation:
    """Per-row patching when the graph journals score deltas.

    ``paper_example_graph`` has a far component (8-9, 10-11) no mutation
    near target 0's neighborhood can touch — those rows must stay
    resident and hit. Adding edge ``(1, 5)`` touches rows 0, 2, 3, 4 and
    6 (patched on read) and rewrites the candidate sets of endpoints 1
    and 5 (evicted on read).
    """

    @pytest.fixture
    def overlay(self):
        return MutableSocialGraph.from_graph(toy.paper_example_graph())

    def test_untouched_targets_stay_resident_across_a_mutation(self, overlay):
        cache = UtilityCache(overlay, CommonNeighbors())
        assert cache.patchable
        for target in (0, 4, 8, 10):
            cache.get(target)
        overlay.add_edge(1, 5)  # inside target 0's neighborhood
        assert 8 in cache and 10 in cache  # far component: untouched
        snapshot = cache.snapshot()
        assert snapshot["invalidations"] == 0
        assert snapshot["patched_rows"] == 0
        assert snapshot["selective_evictions"] == 0

    def test_resident_survivors_serve_hits_not_misses(self, overlay):
        cache = UtilityCache(overlay, CommonNeighbors())
        cache.get(8)
        overlay.add_edge(1, 5)
        misses_before = cache.snapshot()["misses"]
        vector = cache.get(8)
        assert cache.snapshot()["misses"] == misses_before
        np.testing.assert_array_equal(
            vector.values, CommonNeighbors().utility_vector(overlay, 8).values
        )

    def test_touched_rows_are_patched_and_endpoint_rows_evicted(self, overlay):
        cache = UtilityCache(overlay, CommonNeighbors())
        stale = cache.get(0)
        for target in (1, 4, 5):
            cache.get(target)
        overlay.add_edge(1, 5)  # node 5 gains a third common neighbor with 0
        for target in (0, 1, 4, 5):
            fresh = cache.get(target)
            expected = CommonNeighbors().utility_vector(overlay, target)
            np.testing.assert_array_equal(fresh.candidates, expected.candidates)
            np.testing.assert_array_equal(fresh.values, expected.values)
        assert not np.array_equal(cache.get(0).values, stale.values)
        snapshot = cache.snapshot()
        assert snapshot["patched_rows"] == 2  # rows 0 and 4
        assert snapshot["selective_evictions"] == 2  # endpoints 1 and 5
        assert snapshot["misses"] == 4 + 2
        assert snapshot["invalidations"] == 0

    def test_non_decomposable_utility_falls_back_to_full_flush(self, overlay):
        cache = UtilityCache(overlay, PersonalizedPageRank())
        assert not cache.patchable
        cache.get(8)
        cache.get(10)
        overlay.add_edge(1, 5)
        assert len(cache) == 0
        assert cache.snapshot()["invalidations"] == 1

    def test_stale_journal_evicts_the_row_when_read(self):
        overlay = MutableSocialGraph.from_graph(
            toy.paper_example_graph(), journal_limit=2
        )
        cache = UtilityCache(overlay, CommonNeighbors())
        cache.get(8)
        for u, v in ((1, 5), (2, 6), (3, 4)):  # overflow the 2-entry journal
            overlay.add_edge(u, v)
        assert 8 not in cache
        assert cache.snapshot()["selective_evictions"] == 1
        assert cache.snapshot()["invalidations"] == 0

    def test_survivors_persist_across_compaction(self, overlay):
        cache = UtilityCache(overlay, CommonNeighbors())
        cache.get(8)
        overlay.add_edge(1, 5)
        overlay.compact()
        assert 8 in cache
        assert cache.snapshot()["invalidations"] == 0

    @pytest.mark.parametrize("max_length", [2, 3, 4])
    def test_cache_requests_delta_depth_for_its_utility(self, overlay, max_length):
        from repro.utility import WeightedPaths

        utility = (
            CommonNeighbors()
            if max_length == 2
            else WeightedPaths(gamma=0.05, max_length=max_length)
        )
        version = overlay.version
        UtilityCache(overlay, utility)
        overlay.add_edge(1, 5)
        (delta,) = overlay.score_deltas_since(version, max_length)
        assert delta.max_length == max_length


class TestBoundedCache:
    def test_eviction_at_capacity(self, graph):
        cache = UtilityCache(graph, CommonNeighbors(), max_entries=2)
        cache.get(0)
        cache.get(1)
        cache.get(2)  # evicts the oldest (0)
        assert len(cache) == 2
        assert 0 not in cache
        assert 1 in cache and 2 in cache

    def test_overwrite_at_capacity_evicts_nothing(self, graph):
        cache = UtilityCache(graph, CommonNeighbors(), max_entries=2)
        cache.get(0)
        cache.get(1)
        cache.put(1, cache.get_resident(1))  # overwrite, not insert
        assert len(cache) == 2
        assert 0 in cache and 1 in cache

    def test_max_entries_validated(self, graph):
        with pytest.raises(ServingError):
            UtilityCache(graph, CommonNeighbors(), max_entries=0)


class TestTrueLRU:
    def test_hot_entry_refreshed_by_get_survives(self, graph):
        """Regression: eviction used to follow *insertion* order, so a hot
        user re-read every batch could still be evicted by cold inserts.
        A ``get`` hit must move the entry to most-recently-used."""
        cache = UtilityCache(graph, CommonNeighbors(), max_entries=2)
        cache.get(0)  # hot user
        cache.get(1)
        cache.get(0)  # hit: must refresh recency, not leave 0 oldest
        cache.get(2)  # evicts the true LRU (1), not the oldest insert (0)
        assert 0 in cache
        assert 1 not in cache
        assert 2 in cache

    def test_get_resident_also_refreshes_recency(self, graph):
        """The batched path reads through ``get_resident``; those reads are
        uses and must protect hot users from eviction too."""
        cache = UtilityCache(graph, CommonNeighbors(), max_entries=2)
        cache.get(0)
        cache.get(1)
        cache.get_resident(0)
        cache.get(2)
        assert 0 in cache
        assert 1 not in cache

    def test_put_overwrite_refreshes_recency(self, graph):
        cache = UtilityCache(graph, CommonNeighbors(), max_entries=2)
        vector0 = cache.get(0)
        cache.get(1)
        cache.put(0, vector0)  # overwrite counts as a use
        cache.get(2)
        assert 0 in cache
        assert 1 not in cache

    def test_eviction_order_under_mixed_traffic(self, graph):
        cache = UtilityCache(graph, CommonNeighbors(), max_entries=3)
        for target in (0, 1, 2):
            cache.get(target)
        cache.get(0)  # LRU order now 1, 2, 0
        cache.get(1)  # LRU order now 2, 0, 1
        cache.get(3)  # evicts 2
        assert 2 not in cache
        assert all(t in cache for t in (0, 1, 3))


class TestConcurrentAccess:
    def test_parallel_gets_lose_no_stats_and_serve_correct_vectors(self, graph):
        """Hammer one cache from a thread pool: every lookup must be counted
        exactly once (no lost increments) and every returned vector must
        equal the direct computation."""
        cache = UtilityCache(graph, CommonNeighbors(), max_entries=4)
        targets = [t % 8 for t in range(200)]

        def lookup(target):
            return target, cache.get(target)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lookup, targets))

        snap = cache.snapshot()
        assert snap["hits"] + snap["misses"] == len(targets)
        utility = CommonNeighbors()
        for target, vector in results:
            np.testing.assert_array_equal(
                vector.values, utility.utility_vector(graph, target).values
            )

    def test_parallel_gets_respect_capacity(self, graph):
        cache = UtilityCache(graph, CommonNeighbors(), max_entries=3)
        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(cache.get, [t % 10 for t in range(120)]))
        assert len(cache) <= 3


class TestResidencyHelpers:
    def test_missing_preserves_order(self, cache):
        cache.get(3)
        assert cache.missing([1, 3, 5]) == [1, 5]

    def test_get_resident_does_not_touch_stats(self, cache):
        cache.get(0)
        hits_before = cache.snapshot()["hits"]
        cache.get_resident(0)
        assert cache.snapshot()["hits"] == hits_before

    def test_get_resident_raises_on_absent(self, cache):
        with pytest.raises(KeyError):
            cache.get_resident(9)


class TestCopySemantics:
    def test_copied_graph_cannot_serve_stale_rows(self, graph):
        """Regression for SocialGraph.copy() dropping the version counter:
        a copy that restarted at 0 and was mutated back to the version a
        cache had already seen would satisfy the version check with
        different edges."""
        graph.add_edge(0, 7)
        graph.add_edge(0, 8)
        cache = UtilityCache(graph, CommonNeighbors())
        before = cache.get(1)
        clone = graph.copy()
        assert clone.version == graph.version
        clone.remove_edge(0, 7)
        clone.add_edge(5, 7)
        # Re-point the cache at the mutated copy, as a service swap would.
        cache._graph = clone
        after = cache.get(1)
        direct = CommonNeighbors().utility_vector(clone, 1)
        assert np.array_equal(after.values, direct.values)
        assert cache.snapshot()["invalidations"] >= 1 or not np.array_equal(
            before.values, after.values
        )


class TestSnapshot:
    """The single atomic statistics read the serving layer scrapes."""

    def test_snapshot_keys_and_consistency(self, cache):
        cache.get(0)
        cache.get(0)
        cache.get(1)
        snap = cache.snapshot()
        assert snap == {
            "hits": 1,
            "misses": 2,
            "invalidations": 0,
            "selective_evictions": 0,
            "patched_rows": 0,
            "resident": 2,
            "hit_rate": 1 / 3,
        }

    def test_record_lookups_folds_into_stats_atomically(self, cache):
        cache.record_lookups(7, 3)
        snap = cache.snapshot()
        assert snap["hits"] == 7 and snap["misses"] == 3
        assert snap["hit_rate"] == 0.7

    def test_record_lookups_rejects_negative_tallies(self, cache):
        with pytest.raises(ServingError):
            cache.record_lookups(-1, 0)
        with pytest.raises(ServingError):
            cache.record_lookups(0, -1)

    def test_concurrent_bulk_and_single_lookups_lose_nothing(self, graph):
        """record_lookups from many threads races against get(): every tally
        must land — the racy ``stats.hits += n`` this replaced could lose
        increments under exactly this interleaving."""
        cache = UtilityCache(graph, CommonNeighbors())
        cache.get(0)  # make target 0 resident: every later get is a hit

        def bulk(_):
            cache.record_lookups(2, 1)
            cache.get(0)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(bulk, range(200)))
        snap = cache.snapshot()
        assert snap["hits"] == 200 * 2 + 200
        assert snap["misses"] == 200 * 1 + 1

    def test_snapshot_is_a_pure_read(self, cache, graph):
        cache.get(0)
        graph.try_add_edge(0, graph.num_nodes - 1)
        before = cache.snapshot()
        assert before["invalidations"] == 0  # not yet reconciled
        assert cache.snapshot() == before  # repeated reads do not mutate
        len(cache)  # a real lookup path reconciles
        assert cache.snapshot()["invalidations"] == 1


class TestStorageDtype:
    """Serving has one dtype: every resident row is float64, and the cache
    takes no dtype to make it otherwise."""

    def test_default_cache_stores_float64(self, graph):
        cache = UtilityCache(graph, CommonNeighbors())
        assert cache.get(0).values.dtype == np.float64

    def test_cache_takes_no_dtype(self, graph):
        with pytest.raises(TypeError):
            UtilityCache(graph, CommonNeighbors(), dtype="float32")

    def test_patchable_cache_fills_float64_component_rows(self):
        from repro.compute import COMPONENTS_KEY
        from repro.utility.weighted_paths import WeightedPaths

        overlay = MutableSocialGraph.from_graph(toy.two_communities(block_size=6))
        cache = UtilityCache(overlay, WeightedPaths(gamma=0.01))
        assert cache.patchable
        vector = cache.get(4)
        assert vector.values.dtype == np.float64
        assert vector.metadata[COMPONENTS_KEY][1].dtype == np.float64

    def test_put_is_not_copied(self, graph):
        cache = UtilityCache(graph, CommonNeighbors())
        vector = CommonNeighbors().utility_vector(graph, 2)
        cache.put(2, vector)
        assert cache.get_resident(2) is vector


class TestResidentFootprint:
    """Rows of a flushing cache are support-form: O(support + degree) bytes."""

    def test_batch_rows_stay_support_sized_at_1e5_nodes(self):
        from repro.graphs.generators.powerlaw import build_powerlaw_shared
        from repro.serving import RecommendationService

        with build_powerlaw_shared(100_000, 2.2, seed=5) as graph:
            service = RecommendationService(graph, epsilon=0.5, seed=3)
            users = list(range(0, graph.num_nodes, 1_571))
            responses = service.recommend_batch(users)
            assert all(r.served for r in responses)
            _, rows = service.cache.export_entries()
            assert sorted(target for target, _ in rows) == users
            for _, vector in rows:
                nbytes = sum(
                    value.nbytes for value in vars(vector).values()
                    if isinstance(value, np.ndarray)
                )
                support = vector.support()[0].size
                assert nbytes <= 16 * (support + vector.target_degree + 1)
                assert nbytes < graph.num_nodes * 8 // 100
