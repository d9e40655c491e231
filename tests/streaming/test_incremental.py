"""Property tests for cache patching under streaming churn.

The contract under test: a cache row *patched* through any interleaving
of edge adds, removes, and ``compact()`` calls is bit-identical to the
row recomputed from scratch on the current graph — for common neighbors
and weighted paths, directed and undirected, float64 and float32 — and
patched rows are accounted disjointly from selectively evicted ones.
The full-flush cache, which recomputes every row after every mutation,
is the reference a patching replay must match.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.graph import SocialGraph
from repro.serving import cache as cache_module
from repro.serving.cache import UtilityCache
from repro.streaming.engine import StreamingService, replay_stream
from repro.streaming.events import synthetic_event_stream
from repro.streaming.overlay import MutableSocialGraph
from repro.utility.common_neighbors import CommonNeighbors
from repro.utility.weighted_paths import WeightedPaths
from tests.conftest import chunks


def random_overlay(rng, n=30, num_edges=90, directed=False):
    edges = set()
    while len(edges) < num_edges:
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges.add((int(a), int(b)))
    return MutableSocialGraph.from_graph(
        SocialGraph.from_edges(sorted(edges), n, directed=directed)
    )


class FlushingWeightedPaths(WeightedPaths):
    """Weighted paths declaring no walk components: its cache flushes."""

    def walk_component_lengths(self):
        return None


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
        cache = UtilityCache(graph, utility)
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

    def test_rows_of_a_batch_fill_patch_to_recompute(self):
        """Rows batch fills produced and ``put`` carry the same sparse
        side-car as a cache miss's, so they patch to the from-scratch row;
        filling the targets 3 at a time changes no row."""
        from repro.compute.kernels import utility_vectors

        rng = np.random.default_rng(42)
        graph = random_overlay(rng)
        utility = WeightedPaths(gamma=0.01, max_length=3)
        cache = UtilityCache(graph, utility)
        targets = np.arange(graph.num_nodes, dtype=np.int64)
        for part in chunks(targets, 3):
            for vector in utility_vectors(graph, utility, part, with_components=True):
                cache.put(vector.target, vector)
        for _ in range(60):
            flip_random_edge(rng, graph)
            for target in rng.integers(0, graph.num_nodes, 3):
                got = cache.get(int(target))
                want = utility.utility_vector(graph, int(target))
                assert got.values.dtype == np.float64
                assert np.array_equal(got.values, want.values)
        assert cache.snapshot()["patched_rows"] > 0


class TestStatsDisjointness:
    def test_each_dirty_resident_row_lands_in_exactly_one_counter(self):
        rng = np.random.default_rng(6)
        graph = random_overlay(rng)
        cache = UtilityCache(graph, CommonNeighbors())
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

    def test_zero_crossover_disables_patching_not_correctness(self, monkeypatch):
        monkeypatch.setattr(cache_module, "PATCH_CROSSOVER", 0.0)
        rng = np.random.default_rng(14)
        graph = random_overlay(rng)
        cache = UtilityCache(graph, CommonNeighbors())
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


class TestJournalDegradation:
    def test_deltas_missing_for_pre_enable_mutations(self):
        rng = np.random.default_rng(16)
        graph = random_overlay(rng)
        version = graph.version
        flip_random_edge(rng, graph)  # not journaled: nobody asked yet
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

    def test_stale_journal_degrades_to_per_row_eviction(self):
        rng = np.random.default_rng(18)
        graph = MutableSocialGraph.from_graph(
            random_overlay(rng).materialize(), journal_limit=1
        )
        cache = UtilityCache(graph, CommonNeighbors())
        for target in range(graph.num_nodes):
            cache.get(target)
        # Two flips overflow the one-delta journal: every resident row's
        # stamp now predates its floor.
        flip_random_edge(rng, graph)
        flip_random_edge(rng, graph)
        for target in range(graph.num_nodes):
            got = cache.get(target)
            want = CommonNeighbors().utility_vector(graph, target)
            assert np.array_equal(got.values, want.values)
        snap = cache.snapshot()
        assert snap["patched_rows"] == 0
        assert snap["invalidations"] == 0
        assert snap["selective_evictions"] == graph.num_nodes


class TestServiceIntegration:
    def test_streaming_service_auto_enables_and_patches(self):
        graph = random_overlay(np.random.default_rng(19), n=60, num_edges=200)
        service = StreamingService(graph, "weighted_paths", epsilon=0.5, seed=1)
        assert service.cache.patchable
        events = synthetic_event_stream(
            graph, 200, add_fraction=0.15, remove_fraction=0.1, seed=3
        )
        replay_stream(service, events, batch_size=16)
        snap = service.cache.snapshot()
        assert snap["invalidations"] == 0
        assert snap["patched_rows"] > 0

    def test_patching_and_full_flush_serve_identical_picks(self):
        # materialize(): each run wraps its own fresh copy — passing the
        # overlay itself would share mutation state across runs.
        graph = random_overlay(np.random.default_rng(21), n=60, num_edges=200).materialize()
        events = synthetic_event_stream(
            graph, 150, add_fraction=0.1, remove_fraction=0.06, seed=4
        )

        def run(utility, batch_size=16):
            service = StreamingService(
                graph, utility, epsilon=0.5, user_budget=1e9, seed=11
            )
            picks = []
            replay_stream(
                service,
                events,
                batch_size=batch_size,
                on_response=lambda r: picks.append(tuple(r.recommendations)),
            )
            return picks, service

        patched_picks, patched = run(WeightedPaths())
        flushed_picks, flushed = run(FlushingWeightedPaths())
        chunked_picks, _ = run(WeightedPaths(), batch_size=8)
        assert patched.cache.patchable
        assert not flushed.cache.patchable
        assert patched.cache.snapshot()["patched_rows"] > 0
        assert flushed.cache.snapshot()["patched_rows"] == 0
        assert flushed.cache.snapshot()["invalidations"] > 0
        assert patched_picks == flushed_picks == chunked_picks

    @pytest.mark.parametrize("rows", [4, 1])
    def test_patching_identity_across_batch_splits(self, rows):
        """Patching and full-flush caches serve the same picks in batches
        of 16 and in batches of a few requests."""
        graph = random_overlay(np.random.default_rng(23), n=50, num_edges=160).materialize()
        events = synthetic_event_stream(
            graph, 100, add_fraction=0.12, remove_fraction=0.06, seed=8
        )

        def picks(utility, batch_size=16):
            service = StreamingService(
                graph, utility, epsilon=0.5, user_budget=1e9, seed=2
            )
            recorded = []
            replay_stream(
                service, events, batch_size=batch_size,
                on_response=lambda r: recorded.append(tuple(r.recommendations)),
            )
            return recorded

        reference = picks(WeightedPaths())
        assert picks(FlushingWeightedPaths()) == reference
        assert picks(WeightedPaths(), rows) == reference
        assert picks(FlushingWeightedPaths(), rows) == reference

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


def row_nbytes(vector) -> int:
    """Bytes of every array a resident row holds, side-car included."""
    arrays = [value for value in vars(vector).values() if isinstance(value, np.ndarray)]
    for value in vector.metadata.values():
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, tuple):
            arrays.extend(item for item in value if isinstance(item, np.ndarray))
    return sum(array.nbytes for array in arrays)


class TestSupportFormRows:
    """A patching cache's rows cost O(support) bytes and are served and
    patched without a dense view."""

    @pytest.mark.parametrize(
        "utility",
        [CommonNeighbors(), WeightedPaths(gamma=0.01, max_length=3)],
        ids=["cn", "wp"],
    )
    def test_resident_bytes_ignore_isolated_nodes(self, utility):
        rng = np.random.default_rng(31)
        small = random_overlay(rng, n=40, num_edges=120).materialize()
        flips = [tuple(int(x) for x in rng.choice(40, 2, replace=False)) for _ in range(30)]
        reads = rng.integers(0, 40, size=(30, 4)).tolist()

        def resident_bytes(num_nodes):
            graph = MutableSocialGraph.from_graph(
                SocialGraph.from_edges(small.edges(), num_nodes)
            )
            cache = UtilityCache(graph, utility)
            for target in range(40):
                cache.get(target)
            for (u, v), targets in zip(flips, reads):
                if graph.has_edge(u, v):
                    graph.remove_edge(u, v)
                else:
                    graph.add_edge(u, v)
                for target in targets:
                    cache.get(target)
            assert cache.snapshot()["patched_rows"] > 0
            return [row_nbytes(vector) for _, vector in cache.export_entries()[1]]

        assert resident_bytes(40) == resident_bytes(40 + 100_000)

    @pytest.mark.parametrize("utility", ["common_neighbors", "weighted_paths"])
    def test_serving_patched_rows_reads_no_dense_view(self, monkeypatch, utility):
        from repro.utility.base import UtilityVector

        graph = random_overlay(np.random.default_rng(29), n=60, num_edges=200)
        service = StreamingService(graph, utility, epsilon=0.5, user_budget=1e9, seed=5)
        service.recommend_batch(list(range(60)))
        events = synthetic_event_stream(
            graph, 300, add_fraction=0.1, remove_fraction=0.1, seed=6
        )

        def dense(*args, **kwargs):
            raise AssertionError("a streaming row was read through a dense view")

        monkeypatch.setattr(UtilityVector, "values", property(dense))
        monkeypatch.setattr(UtilityVector, "candidates", property(dense))
        replay_stream(service, events, batch_size=16)
        assert service.cache.snapshot()["patched_rows"] > 0
