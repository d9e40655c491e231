"""Property tests for incremental cache maintenance under streaming churn.

The contract under test (ISSUE 10's tentpole): a cache row *patched*
through any interleaving of edge adds, removes, and ``compact()`` calls
is bit-identical to the row recomputed from scratch on the current
graph — for common neighbors and weighted paths, directed and
undirected, float64 and float32 — and patched rows are accounted
disjointly from selectively evicted ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compute.incremental import COMPONENTS_KEY
from repro.errors import ServingError
from repro.graphs.graph import SocialGraph
from repro.serving.cache import UtilityCache
from repro.streaming.engine import StreamingService, replay_stream
from repro.streaming.events import synthetic_event_stream
from repro.streaming.overlay import MutableSocialGraph
from repro.utility.common_neighbors import CommonNeighbors
from repro.utility.weighted_paths import WeightedPaths


def random_overlay(rng, n=30, num_edges=90, directed=False):
    edges = set()
    while len(edges) < num_edges:
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges.add((int(a), int(b)))
    return MutableSocialGraph.from_graph(
        SocialGraph.from_edges(sorted(edges), n, directed=directed)
    )


def flip_random_edge(rng, graph):
    n = graph.num_nodes
    u, v = rng.integers(0, n, 2)
    while u == v:
        u, v = rng.integers(0, n, 2)
    u, v = int(u), int(v)
    if graph.has_edge(u, v):
        graph.remove_edge(u, v)
    else:
        graph.add_edge(u, v)


class TestInterleavedPatchingProperty:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize(
        "utility",
        [CommonNeighbors(), WeightedPaths(gamma=0.01, max_length=3)],
        ids=["cn", "wp"],
    )
    def test_patched_rows_equal_from_scratch_across_compaction(
        self, directed, utility
    ):
        rng = np.random.default_rng(directed * 100 + len(utility.name))
        graph = random_overlay(rng, directed=directed)
        cache = UtilityCache(graph, utility, incremental=True)
        for target in range(graph.num_nodes):
            cache.get(target)
        for step in range(100):
            flip_random_edge(rng, graph)
            if step % 9 == 0:
                graph.compact()  # epoch rebuild must not invalidate patches
            for target in rng.integers(0, graph.num_nodes, 3):
                got = cache.get(int(target))
                want = utility.utility_vector(graph, int(target))
                assert np.array_equal(got.candidates, want.candidates)
                assert np.array_equal(got.values, want.values)
                assert got.target_degree == want.target_degree
        snap = cache.snapshot()
        assert snap["invalidations"] == 0
        assert snap["patched_rows"] > 0
        assert snap["selective_evictions"] > 0  # endpoint rows still evict

    def test_float32_patched_rows_equal_recompute_then_round(self):
        rng = np.random.default_rng(42)
        graph = random_overlay(rng)
        utility = WeightedPaths(gamma=0.01, max_length=3)
        cache = UtilityCache(graph, utility, dtype=np.float32, incremental=True)
        for target in range(graph.num_nodes):
            cache.get(target)
        for _ in range(60):
            flip_random_edge(rng, graph)
            for target in rng.integers(0, graph.num_nodes, 3):
                got = cache.get(int(target))
                want = utility.utility_vector(graph, int(target)).with_dtype(
                    np.float32
                )
                assert got.values.dtype == np.float32
                assert np.array_equal(got.values, want.values)
        assert cache.snapshot()["patched_rows"] > 0


class TestStatsDisjointness:
    def test_each_dirty_resident_row_lands_in_exactly_one_counter(self):
        rng = np.random.default_rng(6)
        graph = random_overlay(rng)
        cache = UtilityCache(graph, CommonNeighbors(), incremental=True)
        for target in range(graph.num_nodes):
            cache.get(target)
        resident_before = len(cache)
        snap_before = cache.snapshot()
        flip_random_edge(rng, graph)
        len(cache)  # force one reconciliation
        snap = cache.snapshot()
        reconciled = (
            snap["patched_rows"]
            - snap_before["patched_rows"]
            + snap["selective_evictions"]
            - snap_before["selective_evictions"]
        )
        # Every dirty resident row was handled once; nothing double-counted.
        assert reconciled == resident_before - snap["resident"] + (
            snap["patched_rows"] - snap_before["patched_rows"]
        )
        assert snap["invalidations"] == 0

    def test_zero_crossover_disables_patching_not_correctness(self):
        rng = np.random.default_rng(14)
        graph = random_overlay(rng)
        cache = UtilityCache(
            graph, CommonNeighbors(), incremental=True, patch_crossover=0.0
        )
        for target in range(graph.num_nodes):
            cache.get(target)
        for _ in range(30):
            flip_random_edge(rng, graph)
        for target in range(graph.num_nodes):
            got = cache.get(target)
            want = CommonNeighbors().utility_vector(graph, target)
            assert np.array_equal(got.values, want.values)
        snap = cache.snapshot()
        # Cost 0 <= 0 * nc only for rows no delta touches; touched rows
        # must all have been evicted and recomputed.
        assert snap["selective_evictions"] > 0

    def test_incremental_requires_decomposable_utility(self):
        rng = np.random.default_rng(15)
        graph = random_overlay(rng)
        from repro.utility.base import make_utility

        with pytest.raises(ValueError):
            UtilityCache(graph, make_utility("graph_distance"), incremental=True)


class TestJournalDegradation:
    def test_deltas_missing_for_pre_enable_mutations(self):
        rng = np.random.default_rng(16)
        graph = random_overlay(rng)
        version = graph.version
        flip_random_edge(rng, graph)  # journaled without a delta
        graph.request_score_deltas(3)
        flip_random_edge(rng, graph)
        assert graph.score_deltas_since(version, 3) is None
        later = graph.version
        flip_random_edge(rng, graph)
        deltas = graph.score_deltas_since(later, 3)
        assert deltas is not None and len(deltas) == 1

    def test_shallower_journal_cannot_serve_deeper_consumers(self):
        rng = np.random.default_rng(17)
        graph = random_overlay(rng)
        graph.request_score_deltas(2)
        version = graph.version
        flip_random_edge(rng, graph)
        assert graph.score_deltas_since(version, 2) is not None
        assert graph.score_deltas_since(version, 4) is None

    def test_plain_graph_degrades_to_selective_eviction(self):
        rng = np.random.default_rng(18)
        base = random_overlay(rng)
        cache = UtilityCache(base, CommonNeighbors(), incremental=True)
        # Simulate a graph without delta journaling by disabling the
        # tracker's deltas: a fresh overlay whose tracker never enabled
        # them answers dirty_since but not deltas_since.
        base._tracker.delta_length = None
        for target in range(base.num_nodes):
            cache.get(target)
        flip_random_edge(rng, base)
        for target in range(base.num_nodes):
            got = cache.get(target)
            want = CommonNeighbors().utility_vector(base, target)
            assert np.array_equal(got.values, want.values)
        snap = cache.snapshot()
        assert snap["patched_rows"] == 0
        assert snap["selective_evictions"] > 0


class TestServiceIntegration:
    def test_streaming_service_auto_enables_and_patches(self):
        graph = random_overlay(np.random.default_rng(19), n=60, num_edges=200)
        service = StreamingService(graph, "weighted_paths", epsilon=0.5, seed=1)
        assert service.service.incremental
        events = synthetic_event_stream(
            graph, 200, add_fraction=0.15, remove_fraction=0.1, seed=3
        )
        replay_stream(service, events, batch_size=16)
        snap = service.cache.snapshot()
        assert snap["invalidations"] == 0
        assert snap["patched_rows"] > 0

    def test_incremental_off_and_on_serve_identical_picks(self):
        # materialize(): each run wraps its own fresh copy — passing the
        # overlay itself would share mutation state across runs.
        graph = random_overlay(np.random.default_rng(21), n=60, num_edges=200).materialize()
        events = synthetic_event_stream(
            graph, 150, add_fraction=0.1, remove_fraction=0.06, seed=4
        )

        def run(**kwargs):
            service = StreamingService(
                graph, "weighted_paths", epsilon=0.5, user_budget=1e9, seed=11,
                **kwargs,
            )
            picks = []
            replay_stream(
                service,
                events,
                batch_size=16,
                on_response=lambda r: picks.append(tuple(r.recommendations)),
            )
            return picks, service

        patched_picks, patched = run(incremental=None)
        evicted_picks, evicted = run(incremental=False)
        chunked_picks, _ = run(chunk_size=8)
        assert patched.service.incremental
        assert not evicted.service.incremental
        assert patched.cache.snapshot()["patched_rows"] > 0
        assert evicted.cache.snapshot()["patched_rows"] == 0
        assert patched_picks == evicted_picks == chunked_picks

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_patching_identity_across_chunk_sizes(self, dtype):
        """Patch-on and patch-off serve the same picks, unchunked and in
        chunks of 4, at either compute dtype."""
        graph = random_overlay(np.random.default_rng(23), n=50, num_edges=160).materialize()
        events = synthetic_event_stream(
            graph, 100, add_fraction=0.12, remove_fraction=0.06, seed=8
        )

        def picks(incremental, chunk_size):
            service = StreamingService(
                graph, "weighted_paths", epsilon=0.5, user_budget=1e9, seed=2,
                incremental=incremental, chunk_size=chunk_size, dtype=dtype,
            )
            recorded = []
            replay_stream(
                service, events, batch_size=16,
                on_response=lambda r: recorded.append(tuple(r.recommendations)),
            )
            return recorded

        reference = picks(True, None)
        assert picks(False, None) == reference
        assert picks(True, 4) == reference
        assert picks(False, 4) == reference

    def test_explicit_incremental_on_plain_graph_is_harmless(self):
        from repro.serving.service import RecommendationService

        graph = SocialGraph.from_edges([(0, 1), (1, 2), (2, 3), (0, 2)], 5)
        service = RecommendationService(graph, "common_neighbors", incremental=True)
        vector = service.cache.get(1)
        assert COMPONENTS_KEY in vector.metadata
        with pytest.raises(ServingError):
            RecommendationService(graph, "graph_distance", incremental=True)

    def test_collect_metrics_exports_patched_rows_gauge(self):
        from repro.telemetry import Telemetry

        graph = random_overlay(np.random.default_rng(22), n=40, num_edges=120)
        telemetry = Telemetry()
        service = StreamingService(
            graph, "common_neighbors", epsilon=0.5, seed=2, telemetry=telemetry
        )
        events = synthetic_event_stream(
            graph, 80, add_fraction=0.2, remove_fraction=0.1, seed=5
        )
        replay_stream(service, events, batch_size=8)
        registry = service.collect_metrics()
        patched = registry.gauge("cache.patched_rows").value
        evicted = registry.gauge("cache.selective_evictions").value
        assert patched > 0
        assert patched == service.cache.snapshot()["patched_rows"]
        assert evicted == service.cache.snapshot()["selective_evictions"]
