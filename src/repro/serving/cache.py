"""Version-keyed utility cache.

Utility vectors depend only on the graph structure, and
:class:`~repro.graphs.graph.SocialGraph` bumps ``version`` on every
mutation — so a cached vector is valid exactly as long as the graph
version it was computed at. The cache never needs explicit invalidation
calls: each lookup compares the stored version with the graph's current
one and reconciles on mismatch. A cached row follows a mutation in one
of two ways, and the cache picks between them from its inputs
(:attr:`UtilityCache.patchable`):

* **patch** — when the utility decomposes into walk components
  (:meth:`~repro.utility.base.UtilityFunction.walk_component_lengths`)
  and the graph journals typed score deltas (a
  :class:`~repro.streaming.overlay.MutableSocialGraph`), misses are
  filled with the walk-count side-car and stale rows are *patched in
  place* from the journaled sparse deltas
  (:mod:`repro.compute.incremental`). Patching is **lazy**: every
  resident row carries its own version stamp, a version sync merely
  advances the cache's watermark, and a stale row is reconciled only
  when next read — work proportional to rows *accessed*, never to rows
  merely resident, and a row read after many mutations folds the whole
  pending delta run into one patch. A row untouched by every pending
  delta just advances its stamp. A row is evicted instead when it is an
  endpoint of some pending mutation (its candidate set changed), when
  its stamp fell behind the journal, or when its summed scatter cost
  exceeds :data:`PATCH_CROSSOVER` x its candidate count (past that a
  recompute is cheaper than replaying the deltas). Patched rows count in
  ``stats.patched_rows``, evicted ones in ``selective_evictions``;
* **flush** — in every other case a version change drops the whole
  generation (``stats.invalidations``). Always correct, and a from-scratch
  recompute is exactly what a patched row must equal.

Caching matters because utilities carry no per-request randomness: the
privacy all lives in the *sampling* step, so two requests for the same
target against the same graph can legally share one utility computation.

Eviction is true LRU: every hit — ``get``, ``get_resident``, or a ``put``
overwrite — moves the entry to the most-recently-used position, so a hot
user touched every batch is never evicted in favor of a cold one (the
insertion-order eviction this replaced could do exactly that). All
bookkeeping is guarded by a lock, so the cache is safe to share across
threads: stats never lose increments and LRU order never corrupts. On a
miss the vector is computed *outside* the lock — two racing threads may
both compute the same vector (identical by determinism), but neither
blocks the cache for the duration of a graph traversal.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..compute.incremental import patch_utility_vector
from ..compute.kernels import utility_vectors
from ..errors import ServingError
from ..graphs.graph import SocialGraph
from ..utility.base import UtilityFunction, UtilityVector

#: Patch-vs-evict crossover: a stale row is patched while the summed
#: sparse scatter cost stays below this multiple of its candidate count.
#: The two sides are not priced per element alike: a scatter touches
#: ``scatter_cost`` values at memcpy speed, while recomputing the row
#: pays ``max_length - 1`` adjacency-wide matrix products *plus* the
#: fill path's per-row service overhead (milliseconds per row on the
#: wiki replica, vs microseconds per thousand scattered values). The
#: measured break-even on the wiki replica at ``max_length = 4`` sits
#: above 128 candidate-multiples; 64 keeps half that as safety margin
#: for graphs with cheaper recomputes (see DESIGN.md, "incremental
#: dataflow"). Read at call time.
PATCH_CROSSOVER = 64.0


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters exposed for monitoring.

    ``invalidations`` counts whole-generation flushes (entries present,
    version mismatch, cache not patchable); ``selective_evictions``
    counts individual stale rows a patchable cache dropped instead of
    patching — under streaming mutation the first should stay at zero
    while the second tracks the endpoint rows. ``patched_rows`` counts
    stale rows brought current by in-place delta patching (one
    increment per reconciliation, however many pending mutations it
    folded in); a row reconciled lands in exactly one of the two
    counters, never both.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    selective_evictions: int = 0
    patched_rows: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class UtilityCache:
    """Per-target utility vectors, valid for one graph version at a time.

    Parameters
    ----------
    graph:
        The live graph; its ``version`` property keys the cache.
    utility:
        The utility function whose vectors are cached.
    max_entries:
        Optional bound on resident vectors; when exceeded, the least
        recently *used* entry is evicted (hits refresh recency, so hot
        users survive arbitrary interleavings of cold traffic).

    Resident rows are float64, as the serving kernels emit them.
    """

    def __init__(
        self,
        graph: SocialGraph,
        utility: UtilityFunction,
        max_entries: "int | None" = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ServingError(f"max_entries must be >= 1, got {max_entries}")
        self._graph = graph
        self._utility = utility
        self._max_entries = max_entries
        self._entries: dict[int, UtilityVector] = {}
        # Per-row version stamps: the graph version at which each
        # resident row is known exact. Kept key-synchronized with
        # _entries; a stamp behind _cached_version marks a row of a
        # patchable cache that has not been read since the graph moved
        # (reconciled lazily by _reconcile_row).
        self._row_versions: dict[int, int] = {}
        self._cached_version = graph.version
        self._lock = threading.RLock()
        self.stats = CacheStats()
        lengths = utility.walk_component_lengths()
        request_deltas = getattr(graph, "request_score_deltas", None)
        self._delta_length = None if lengths is None else max(lengths)
        self._patchable = self._delta_length is not None and request_deltas is not None
        if self._patchable:
            # Every mutation from here on journals a delta this deep.
            request_deltas(self._delta_length)

    @property
    def patchable(self) -> bool:
        """Whether stale rows are patched from journaled deltas.

        True when the utility decomposes into walk components and the
        graph journals typed score deltas; otherwise a version change
        flushes the whole cache (module docstring).
        """
        return self._patchable

    def _sync_version(self) -> None:
        # Callers hold self._lock. A patchable cache only advances its
        # watermark: resident rows keep their own stamps and are
        # reconciled when next read (_reconcile_row), so a sync is O(1)
        # however large the mutation burst or the resident set. Any other
        # cache cannot tell which rows changed and drops them all.
        version = self._graph.version
        if self._cached_version == version:
            return
        if not self._patchable and self._entries:
            self.stats.invalidations += 1
            self._entries.clear()
            self._row_versions.clear()
        self._cached_version = version

    def _drop(self, target: int) -> None:
        del self._entries[target]
        self._row_versions.pop(target, None)

    def _reconcile_row(self, target: int) -> "UtilityVector | None":
        """The resident row brought current, or ``None`` (absent/evicted).

        Callers hold the lock and have synced. Fresh rows return as-is;
        only a patchable cache keeps stale rows. A stale row is patched
        with the journaled deltas spanning its stamp (one
        ``patched_rows`` increment regardless of how many mutations the
        run folds in) or selectively evicted when unpatchable: stamp
        behind the delta journal, endpoint of some pending mutation, no
        component side-car, or scatter cost past the crossover. Keyed
        reassignment keeps the row's LRU position — a patch is
        maintenance, not a use.
        """
        vector = self._entries.get(target)
        if vector is None:
            return None
        stamp = self._row_versions[target]
        if stamp == self._cached_version:
            return vector
        patched = None
        deltas = self._graph.score_deltas_since(stamp, self._delta_length)
        relevant = None if deltas is None else self._relevant_deltas(deltas, target)
        if relevant is not None:
            if not relevant:
                # No pending mutation reaches this row: advance its
                # stamp for free (not a patch, not a miss — the lazy
                # analogue of the row never having been dirtied).
                self._row_versions[target] = self._cached_version
                return vector
            cost = sum(d.scatter_cost for d in relevant)
            budget = PATCH_CROSSOVER * max(vector.num_candidates, 1)
            if cost <= budget:
                patched = patch_utility_vector(vector, relevant, self._utility)
        if patched is None:
            self._drop(target)
            self.stats.selective_evictions += 1
            return None
        self._entries[target] = patched
        self._row_versions[target] = self._cached_version
        if patched is not vector:
            self.stats.patched_rows += 1
        return patched

    def _relevant_deltas(self, deltas, target: int) -> "list | None":
        """The pending deltas that reach ``target``, or ``None`` (evict).

        O(1) per delta: an endpoint test and one frozenset membership.
        The run is clamped to the synced window — a mutation may land
        after this sync's version snapshot, and patching past
        ``_cached_version`` would desynchronize the stamp. The endpoint
        screen runs over *every* delta in the window: an endpoint row's
        candidate set changed even when no reverse walk reaches it.
        """
        relevant = []
        for delta in deltas:
            if delta.version > self._cached_version:
                break
            if delta.evicts(target):
                return None
            if target in delta.touched:
                relevant.append(delta)
        return relevant

    def _touch(self, target: int) -> None:
        """Move a resident vector to the most-recently-used position."""
        self._entries[target] = self._entries.pop(target)

    def __len__(self) -> int:
        with self._lock:
            self._sync_version()
            return len(self._entries)

    def __contains__(self, target: int) -> bool:
        with self._lock:
            self._sync_version()
            # Residency must be truthful: a stale row that cannot be
            # patched is not servable, so reconcile before answering.
            return self._reconcile_row(int(target)) is not None

    def get(self, target: int) -> UtilityVector:
        """Return the utility vector for ``target``, computing on miss."""
        target = int(target)
        with self._lock:
            self._sync_version()
            vector = self._reconcile_row(target)
            if vector is not None:
                self._touch(target)  # the read is a use; a patch was not
                self.stats.hits += 1
                return vector
            self.stats.misses += 1
            version = self._cached_version
        # Compute outside the lock: concurrent misses for different targets
        # proceed in parallel, and a duplicated computation for the *same*
        # target is deterministic, so whichever insert lands last is fine.
        # The fill is the batched path's kernel: a support-form row that,
        # in a patchable cache, carries the sparse walk-count side-car
        # later reads patch; the values are bit-identical either way.
        vector = utility_vectors(
            self._graph,
            self._utility,
            [target],
            with_components=self._patchable,
        )[0]
        with self._lock:
            self._sync_version()
            if self._cached_version == version:
                self._put_locked(target, vector)
        return vector

    def get_resident(self, target: int) -> UtilityVector:
        """Return a resident vector without touching hit/miss statistics.

        For internal multi-step flows (the batched path checks residency,
        fills misses in bulk, then reads everything back) where per-lookup
        accounting would double-count. Still refreshes LRU recency — a
        batch read is a use. Raises ``KeyError`` on absence.
        """
        target = int(target)
        with self._lock:
            self._sync_version()
            vector = self._reconcile_row(target)
            if vector is None:
                raise KeyError(target)
            self._touch(target)
            return vector

    def put(self, target: int, vector: UtilityVector) -> None:
        """Insert a vector computed elsewhere (e.g. by the batched path)."""
        with self._lock:
            self._sync_version()
            self._put_locked(int(target), vector)

    def _put_locked(self, target: int, vector: UtilityVector) -> None:
        if self._entries.pop(target, None) is None:  # overwrites keep length
            while (
                self._max_entries is not None
                and len(self._entries) >= self._max_entries
            ):
                self._drop(next(iter(self._entries)))
        self._entries[target] = vector
        self._row_versions[target] = self._cached_version

    def missing(self, targets: "list[int]") -> list[int]:
        """The subset of ``targets`` not currently servable (order kept).

        Each queried target is reconciled on the way through — a
        stale-but-patchable row is patched now (and is then *not*
        missing), an unpatchable one is evicted (and is). This is the
        access that makes lazy patching access-proportional on the
        batched serving path: only rows a batch actually asks for pay.
        """
        with self._lock:
            self._sync_version()
            return [int(t) for t in targets if self._reconcile_row(int(t)) is None]

    def record_lookups(self, hits: int, misses: int) -> None:
        """Fold a batch's hit/miss tallies into the stats, atomically.

        The batched serving path resolves residency via :meth:`missing`
        and accounts for the whole batch at once; bumping the public
        ``stats`` attributes from outside would race with lookups on
        other threads (read-modify-write on plain ints), so bulk
        accounting goes through the lock like every per-lookup update.
        """
        if hits < 0 or misses < 0:
            raise ServingError(f"negative lookup tallies: hits={hits}, misses={misses}")
        with self._lock:
            self.stats.hits += int(hits)
            self.stats.misses += int(misses)

    def export_entries(self) -> "tuple[int, list[tuple[int, UtilityVector]]]":
        """Resident vectors with their version key, for durable snapshots.

        Reconciles with the graph first (so the export never contains
        entries a pending version change would evict), then returns
        ``(version, pairs)`` with pairs in LRU order — least recently
        used first — so :meth:`restore_entries` rebuilds the exact
        eviction order, not just the resident set.
        """
        with self._lock:
            self._sync_version()
            # A durable snapshot is stamped with one version, so every
            # exported row must actually be at it: reconcile the full
            # resident set (the one access pattern that is not lazy).
            for target in list(self._entries):
                self._reconcile_row(target)
            return self._cached_version, list(self._entries.items())

    def restore_entries(
        self, version: int, pairs: "list[tuple[int, UtilityVector]]"
    ) -> None:
        """Adopt an :meth:`export_entries` payload as the resident set.

        Only meaningful when the graph has been restored to exactly
        ``version`` (recovery checks this before calling).
        """
        with self._lock:
            self._entries.clear()
            self._row_versions.clear()
            self._cached_version = int(version)
            for target, vector in pairs:
                self._put_locked(int(target), vector)

    def snapshot(self) -> "dict[str, float]":
        """One atomic reading of every statistic plus current residency.

        All values come from a single critical section, so the returned
        dict is internally consistent — ``hits + misses`` really is the
        lookup total at the moment ``hit_rate`` was computed, which is
        not true of reading the ``stats`` attributes one by one while
        other threads serve traffic. Pure read: does not reconcile the
        cache with the graph version, so residency reflects entries as
        last synced (monitoring must not pay for, or trigger, eviction).
        """
        with self._lock:
            stats = self.stats
            return {
                "hits": stats.hits,
                "misses": stats.misses,
                "invalidations": stats.invalidations,
                "selective_evictions": stats.selective_evictions,
                "patched_rows": stats.patched_rows,
                "resident": len(self._entries),
                "hit_rate": stats.hit_rate,
            }
