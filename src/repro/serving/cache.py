"""Version-keyed utility cache.

Utility vectors depend only on the graph structure, and
:class:`~repro.graphs.graph.SocialGraph` bumps ``version`` on every
mutation — so a cached vector is valid exactly as long as the graph
version it was computed at. The cache never needs explicit invalidation
calls: each lookup compares the stored version with the graph's current
one and reconciles on mismatch. Reconciliation has two modes:

* **selective** — when the graph journals its mutations (a
  :class:`~repro.streaming.overlay.MutableSocialGraph`) *and* the
  utility declares a dirty radius
  (:meth:`~repro.utility.base.UtilityFunction.invalidation_horizon`),
  only the targets the journal marks dirty are evicted; every other
  resident vector is bit-identical at the new version and stays. This is
  what keeps hit rates high under streaming mutation;
* **full flush** — any time the selective answer is unavailable (plain
  graph, unbounded-radius utility, journal too stale or too shallow),
  the whole generation drops. Always correct, never required to be
  cheap.

With ``incremental=True`` the selective mode gets a third, cheaper
outcome: dirty rows whose mutations journaled typed score deltas
(:mod:`repro.compute.incremental`) are *patched in place* — their
cached walk-count components absorb the sparse deltas and the row is
current at the new version without recomputation. Patching is **lazy**:
every resident row carries its own version stamp; a version sync merely
advances the stamps of rows the journal proves untouched, and a stale
(dirty) row is reconciled only when next read. Work is therefore
proportional to rows *accessed*, exactly like the eviction baseline's
recompute-on-miss — never to rows merely resident — and a row accessed
after many mutations folds the whole pending delta run into one patch.
Per stale row the cache decides patch-vs-evict at access time: rows
whose candidate set some pending mutation rewrote (the edge's
endpoints), rows cached without a component side-car, rows whose stamp
fell behind the delta journal, and rows whose summed scatter cost
exceeds ``patch_crossover x num_candidates`` (past that crossover a
dense recompute is cheaper than replaying the deltas) are evicted
exactly as before; everything else is patched and counted in
``stats.patched_rows`` — disjoint from ``selective_evictions``, which
counts only rows actually dropped.

Caching matters because utilities carry no per-request randomness: the
privacy all lives in the *sampling* step, so two requests for the same
target against the same graph can legally share one utility computation.

Eviction is true LRU: every hit — ``get``, ``get_resident``, or a ``put``
overwrite — moves the entry to the most-recently-used position, so a hot
user touched every batch is never evicted in favor of a cold one (the
insertion-order eviction this replaced could do exactly that). All
bookkeeping is guarded by a lock, so the cache is safe to share with a
:class:`~repro.compute.executors.ThreadExecutor`-driven batch path:
stats never lose increments and LRU order never corrupts. On a miss the
vector is computed *outside* the lock — two racing threads may both
compute the same vector (identical by determinism), but neither blocks
the cache for the duration of a graph traversal.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..compute.incremental import patch_utility_vector
from ..compute.kernels import utility_vectors
from ..compute.plan import resolve_dtype
from ..graphs.graph import SocialGraph
from ..utility.base import UtilityFunction, UtilityVector

#: Default patch-vs-evict crossover: patch while the summed sparse
#: scatter cost stays below this multiple of the row's candidate count.
#: The two sides are not priced per element alike: a scatter touches
#: ``scatter_cost`` values at memcpy speed, while recomputing the row
#: pays ``max_length - 1`` adjacency-wide matrix products *plus* the
#: fill path's per-row service overhead (milliseconds per row on the
#: wiki replica, vs microseconds per thousand scattered values). The
#: measured break-even on the wiki replica at ``max_length = 4`` sits
#: above 128 candidate-multiples; 64 keeps half that as safety margin
#: for graphs with cheaper recomputes (see DESIGN.md, "incremental
#: dataflow").
DEFAULT_PATCH_CROSSOVER = 64.0


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters exposed for monitoring.

    ``invalidations`` counts whole-generation flushes (entries present,
    version mismatch, no selective answer); ``selective_evictions``
    counts individual rows dropped by journal-guided invalidation —
    under streaming mutation the first should stay at zero while the
    second tracks the churn's dirty footprint. ``patched_rows`` counts
    stale rows brought current by in-place delta patching instead (one
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
    dtype:
        Storage dtype of every resident vector's values (anything
        :func:`repro.compute.plan.resolve_dtype` accepts; float64
        default). Every ``put`` normalizes through
        :meth:`~repro.utility.base.UtilityVector.with_dtype`, so a
        float32 pipeline cannot silently double its resident memory by
        caching whatever dtype a kernel happened to emit.
    incremental:
        Patch dirty rows with journaled score deltas instead of evicting
        them (module docstring). Requires a utility that decomposes into
        walk components
        (:meth:`~repro.utility.base.UtilityFunction.walk_component_lengths`);
        the graph additionally needs ``request_score_deltas`` for patches
        to ever apply — without it the cache degrades to plain selective
        eviction. Misses are then filled *with* the component side-car so
        freshly cached rows are patchable too.
    patch_crossover:
        Scatter-cost multiple of the candidate count past which a dirty
        row is evicted rather than patched (``0`` disables patching
        per-row without disabling component fills).
    """

    def __init__(
        self,
        graph: SocialGraph,
        utility: UtilityFunction,
        max_entries: "int | None" = None,
        dtype=None,
        incremental: bool = False,
        patch_crossover: float = DEFAULT_PATCH_CROSSOVER,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if patch_crossover < 0:
            raise ValueError(f"patch_crossover must be >= 0, got {patch_crossover}")
        self._graph = graph
        self._utility = utility
        self._dtype = resolve_dtype(dtype)
        self._max_entries = max_entries
        self._entries: dict[int, UtilityVector] = {}
        # Per-row version stamps (incremental mode): the graph version at
        # which each resident row is known exact. Kept key-synchronized
        # with _entries; a stamp behind _cached_version marks a row the
        # journal dirtied that has not been read since (reconciled
        # lazily by _reconcile_row).
        self._row_versions: dict[int, int] = {}
        self._cached_version = graph.version
        self._lock = threading.RLock()
        self.stats = CacheStats()
        self._incremental = bool(incremental)
        self._patch_crossover = float(patch_crossover)
        self._component_lengths = utility.walk_component_lengths()
        if self._incremental and self._component_lengths is None:
            raise ValueError(
                f"incremental caching needs a walk-decomposable utility; "
                f"{utility.name!r} declares no component lengths"
            )
        # A journaling graph must record at least this utility's dirty
        # radius for selective eviction to ever answer; requesting it up
        # front means every mutation after construction is deep enough.
        request = getattr(graph, "request_journal_horizon", None)
        if request is not None:
            request(self._invalidation_horizon())
        if self._incremental:
            request_deltas = getattr(graph, "request_score_deltas", None)
            if request_deltas is not None:
                request_deltas(max(self._component_lengths))

    def _invalidation_horizon(self) -> "int | None":
        horizon = getattr(self._utility, "invalidation_horizon", None)
        return None if horizon is None else horizon()

    def _dirty_targets(self) -> "set[int] | None":
        """Targets to evict for the pending version change, or ``None``.

        ``None`` — the journal cannot answer (or the graph keeps none) —
        means everything must go.
        """
        dirty_since = getattr(self._graph, "dirty_since", None)
        if dirty_since is None:
            return None
        horizon = self._invalidation_horizon()
        if horizon is None:
            return None
        return dirty_since(self._cached_version, horizon)

    def _score_deltas_since(self, stamp: int):
        """Ordered journaled deltas ``stamp -> now``, or ``None``."""
        if not self._incremental:
            return None
        deltas_since = getattr(self._graph, "score_deltas_since", None)
        if deltas_since is None:
            return None
        return deltas_since(stamp, max(self._component_lengths))

    def _sync_version(self) -> None:
        # Callers hold self._lock. The graph version is snapshotted once
        # up front: a mutation landing between dirty_since() and the
        # version assignment would otherwise be skipped forever (the
        # journal answer may conservatively include it, which is fine —
        # advancing past it without reconciling would not be).
        version = self._graph.version
        if self._cached_version == version:
            return
        if self._incremental:
            # Lazy reconciliation: a sync only advances the watermark.
            # Resident rows keep their own stamps and are reconciled when
            # next read (_reconcile_row): untouched rows advance for the
            # price of a journal scan, touched rows are patched or
            # evicted. The journal-can't-answer case needs no full flush
            # either — each row's deltas_since(stamp) independently
            # returns None and that row alone is dropped. Sync is O(1)
            # however large the mutation burst or the resident set.
            self._cached_version = version
            return
        dirty = self._dirty_targets() if self._entries else set()
        if dirty is None:
            self.stats.invalidations += 1
            self._entries.clear()
            self._row_versions.clear()
        else:
            for target in [t for t in dirty if t in self._entries]:
                self._drop(target)
                self.stats.selective_evictions += 1
        self._cached_version = version

    def _drop(self, target: int) -> None:
        del self._entries[target]
        self._row_versions.pop(target, None)

    def _reconcile_row(self, target: int) -> "UtilityVector | None":
        """The resident row brought current, or ``None`` (absent/evicted).

        Callers hold the lock and have synced. Fresh rows return as-is;
        a stale row is patched with the journaled deltas spanning its
        stamp (one ``patched_rows`` increment regardless of how many
        mutations the run folds in) or selectively evicted when
        unpatchable: stamp behind the delta journal, endpoint of some
        pending mutation, no component side-car, or scatter cost past the
        crossover. Keyed reassignment keeps the row's LRU position — a
        patch is maintenance, not a use.
        """
        vector = self._entries.get(target)
        if vector is None:
            return None
        stamp = self._row_versions.get(target, self._cached_version)
        if stamp == self._cached_version:
            return vector
        patched = None
        deltas = self._score_deltas_since(stamp)
        if deltas is not None:
            # A mutation may have landed after this sync's version
            # snapshot; patching past _cached_version would desynchronize
            # the stamp, so clamp the run to the synced window.
            deltas = [d for d in deltas if d.version <= self._cached_version]
            # The evicts() screen runs over *every* pending delta: an
            # endpoint row's candidate set changed even when its reverse
            # walk overlap with the delta is empty, so the touches()
            # filter below must not hide it.
            if not any(d.evicts(target) for d in deltas):
                relevant = [d for d in deltas if d.touches(target)]
                if not relevant:
                    # No pending mutation reaches this row: advance its
                    # stamp for free (not a patch, not a miss — the lazy
                    # analogue of the row never having been dirtied).
                    self._row_versions[target] = self._cached_version
                    return vector
                cost = sum(d.scatter_cost for d in relevant)
                budget = self._patch_crossover * max(vector.num_candidates, 1)
                if cost <= budget:
                    patched = patch_utility_vector(
                        vector,
                        relevant,
                        self._utility,
                        self._dtype,
                        num_nodes=self._graph.num_nodes,
                    )
        if patched is None:
            self._drop(target)
            self.stats.selective_evictions += 1
            return None
        self._entries[target] = patched
        self._row_versions[target] = self._cached_version
        if patched is not vector:
            self.stats.patched_rows += 1
        return patched

    def _touch(self, target: int) -> "UtilityVector | None":
        """Return the resident vector, moving it to most-recently-used."""
        vector = self._entries.pop(target, None)
        if vector is not None:
            self._entries[target] = vector
        return vector

    def __len__(self) -> int:
        with self._lock:
            self._sync_version()
            return len(self._entries)

    def __contains__(self, target: int) -> bool:
        with self._lock:
            self._sync_version()
            target = int(target)
            if self._incremental:
                # Residency must be truthful: a stale row that cannot be
                # patched is not servable, so reconcile before answering.
                return self._reconcile_row(target) is not None
            return target in self._entries

    def get(self, target: int) -> UtilityVector:
        """Return the utility vector for ``target``, computing on miss."""
        target = int(target)
        with self._lock:
            self._sync_version()
            if self._incremental:
                vector = self._reconcile_row(target)
                if vector is not None:
                    self._touch(target)  # the read is a use; the patch was not
            else:
                vector = self._touch(target)
            if vector is not None:
                self.stats.hits += 1
                return vector
            self.stats.misses += 1
            version = self._cached_version
        # Compute outside the lock: concurrent misses for different targets
        # proceed in parallel, and a duplicated computation for the *same*
        # target is deterministic, so whichever insert lands last is fine.
        # The fill is the batched path's kernel: a support-form row, or in
        # incremental mode a dense one carrying the walk-count side-car
        # future syncs patch; the values are bit-identical either way.
        vector = utility_vectors(
            self._graph,
            self._utility,
            [target],
            dtype=self._dtype,
            with_components=self._incremental,
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
            if self._incremental:
                vector = self._reconcile_row(target)
                if vector is not None:
                    self._touch(target)
            else:
                vector = self._touch(target)
            if vector is None:
                raise KeyError(target)
            return vector

    def put(self, target: int, vector: UtilityVector) -> None:
        """Insert a vector computed elsewhere (e.g. by the batched path).

        The vector is normalized to the cache's storage dtype first, so
        resident memory is what the service's compute dtype promises no
        matter which kernel produced the rows.
        """
        with self._lock:
            self._sync_version()
            self._put_locked(int(target), vector.with_dtype(self._dtype))

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

        In incremental mode each queried target is reconciled on the way
        through — a stale-but-patchable row is patched now (and is then
        *not* missing), an unpatchable one is evicted (and is). This is
        the access that makes lazy patching access-proportional on the
        batched serving path: only rows a batch actually asks for pay.
        """
        with self._lock:
            self._sync_version()
            if self._incremental:
                return [
                    int(t) for t in targets if self._reconcile_row(int(t)) is None
                ]
            return [int(t) for t in targets if int(t) not in self._entries]

    def record_lookups(self, hits: int, misses: int) -> None:
        """Fold a batch's hit/miss tallies into the stats, atomically.

        The batched serving path resolves residency via :meth:`missing`
        and accounts for the whole batch at once; bumping the public
        ``stats`` attributes from outside would race with lookups on
        other threads (read-modify-write on plain ints), so bulk
        accounting goes through the lock like every per-lookup update.
        """
        if hits < 0 or misses < 0:
            raise ValueError(f"negative lookup tallies: hits={hits}, misses={misses}")
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
            if self._incremental:
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
        ``version`` (recovery checks this before calling); each vector is
        re-normalized through the cache's storage dtype in case the
        snapshot was taken under a different compute configuration.
        """
        with self._lock:
            self._entries.clear()
            self._row_versions.clear()
            self._cached_version = int(version)
            for target, vector in pairs:
                self._put_locked(int(target), vector.with_dtype(self._dtype))

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
