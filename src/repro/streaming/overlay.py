"""Mutable delta-overlay graph: a frozen CSR base plus per-node deltas.

Section 8 of the paper names dynamic graphs as the main open problem
("social networks clearly change over time"), and every batched pipeline
in this repo reads the graph through two vectorized entry points —
``adjacency_rows`` / ``adjacency_matrix`` for utility products and
``out_degrees_of`` for vector assembly. On the frozen
:class:`~repro.graphs.graph.SocialGraph` those reads come from a CSR
matrix rebuilt from scratch (an O(n + m) Python sweep over the adjacency
sets) after *any* mutation, which makes serve-while-mutating workloads
quadratic in practice.

:class:`MutableSocialGraph` keeps those reads cheap under churn:

* the CSR built at the last :meth:`compact` is kept as a frozen **epoch
  base**; mutations never touch it, they only update the adjacency sets
  (inherited, O(1)) and small per-node **delta sets** of added/removed
  neighbors;
* :meth:`adjacency_rows` slices the epoch base and patches only the rows
  whose nodes carry deltas — an O(rows + delta) read, no full rebuild;
* :meth:`adjacency_matrix` (needed as the right operand of the batched
  ``A[targets] @ A`` utility products) is the epoch base plus a sparse
  delta matrix (+1 added / -1 removed), one vectorized O(m + delta) sum
  cached per version — paid at most once per mutation *batch*, never per
  read, and with no Python-level per-edge loop;
* a degree vector is maintained in place (O(1) per mutation), so
  :meth:`out_degrees_of` is a pure gather;
* :meth:`compact` makes the current matrix view (base plus delta) the
  new base, clears the deltas, and bumps the **epoch**; the mutation
  ``version`` is *not* bumped (compaction changes the representation,
  not the graph), so version-keyed utility caches stay valid across
  compaction boundaries.
  :attr:`stamp` — ``(epoch, version)`` — is strictly monotone under the
  lexicographic order;
* once a patching cache calls :meth:`request_score_deltas`, every
  mutation's typed score delta is journaled in a
  :class:`~repro.streaming.invalidation.DirtyNodeTracker`, so the cache
  can patch its stale rows from :meth:`score_deltas_since` instead of
  flushing (see :mod:`repro.streaming.invalidation`); until then the
  graph journals nothing.

The class *is a* :class:`SocialGraph` (same adjacency-set core, same
invariants), so every utility function, mechanism, kernel, and service in
the library accepts it unchanged; only the matrix/degree read paths and
the mutation hooks are overridden.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import GraphError
from ..graphs.graph import SocialGraph
from .invalidation import DEFAULT_JOURNAL_LIMIT, DirtyNodeTracker


class MutableSocialGraph(SocialGraph):
    """A :class:`SocialGraph` optimized for serve-while-mutating workloads.

    Parameters
    ----------
    num_nodes, directed:
        As for :class:`SocialGraph`.
    journal_limit:
        Maximum journaled mutations before the oldest are dropped (rows
        stamped before the dropped ones are then evicted, not patched).

    Examples
    --------
    >>> base = SocialGraph.from_edges([(0, 1), (1, 2)], num_nodes=4)
    >>> graph = MutableSocialGraph.from_graph(base)
    >>> graph.add_edge(2, 3)
    >>> graph.delta_size
    1
    >>> graph.compact()
    >>> graph.stamp
    (1, 3)
    """

    __slots__ = (
        "_epoch", "_base_csr", "_base_csr_rev", "_added", "_removed",
        "_dirty_nodes", "_dirty_in_nodes", "_dirty_flags", "_dirty_in_flags",
        "_delta_triplets", "_delta_arrays", "_delta_entries", "_live_degrees",
        "_journal_limit", "_tracker",
    )

    def __init__(
        self,
        num_nodes: int,
        directed: bool = False,
        *,
        journal_limit: int = DEFAULT_JOURNAL_LIMIT,
    ) -> None:
        super().__init__(num_nodes, directed=directed)
        self._epoch = 0
        self._base_csr: sp.csr_matrix | None = None  # built lazily, frozen per epoch
        self._base_csr_rev: sp.csr_matrix | None = None  # transpose, built lazily
        self._added: dict[int, set[int]] = {}    # node -> successors added since epoch
        self._removed: dict[int, set[int]] = {}  # node -> successors removed since epoch
        self._dirty_nodes: set[int] = set()      # nodes with any non-empty delta
        self._dirty_in_nodes: set[int] = set()   # nodes whose in-set may have changed
        # Boolean mirrors of the dirty sets, so push_counts' single-node
        # fast path can test cleanliness with one indexed read instead of
        # a set lookup per call.
        self._dirty_flags = np.zeros(self._n, dtype=bool)
        self._dirty_in_flags = np.zeros(self._n, dtype=bool)
        # The overlay delta as numeric (u, v, sign) triplets — one per
        # *applied* oriented mutation since the epoch (cancelling pairs
        # are appended with opposite signs; walk counts are exact
        # integers in float64, so they cancel exactly). push_counts uses
        # them to correct a frozen-base expansion in one bincount instead
        # of a Python loop over dirty nodes.
        self._delta_triplets: list[tuple[int, int, float]] = []
        self._delta_arrays: "list | None" = None  # [rows, cols, signs, built] buffers
        self._delta_entries = 0                  # total oriented delta entries
        self._live_degrees = np.zeros(self._n, dtype=np.int64)
        self._journal_limit = int(journal_limit)
        # Created by the first request_score_deltas: no patching consumer,
        # no journaling cost.
        self._tracker: DirtyNodeTracker | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: SocialGraph,
        *,
        journal_limit: int = DEFAULT_JOURNAL_LIMIT,
    ) -> "MutableSocialGraph":
        """Wrap a frozen graph as epoch-0 base state (the graph is copied).

        The overlay starts at the source's ``version`` (like
        :meth:`SocialGraph.copy`, so version-keyed caches cannot collide)
        with empty deltas and no journal. Its epoch base is the source's
        CSR matrix (shared, read-only; built on the source first if
        stale), and its degrees are that matrix's row lengths.
        """
        overlay = cls(
            graph.num_nodes,
            directed=graph.is_directed,
            journal_limit=journal_limit,
        )
        graph.adjacency_matrix()
        graph._copy_core_into(overlay)
        overlay._refresh_overlay_state()
        return overlay

    def _install_csr(
        self, indptr: np.ndarray, indices: np.ndarray, *, num_edges: int, version: int
    ) -> None:
        # from_edges() funnels through here; treat the bulk load as the
        # epoch-0 base state rather than journaled mutations.
        super()._install_csr(indptr, indices, num_edges=num_edges, version=version)
        self._refresh_overlay_state()

    def _refresh_overlay_state(self) -> None:
        """Reset overlay bookkeeping to 'current sets are the epoch base'.

        A current matrix view becomes the base as it is; otherwise the
        base is built from the sets on first need.
        """
        current = self._csr is not None and self._csr_version == self._version
        self._base_csr = self._csr if current else None
        self._base_csr_rev = None
        self._added.clear()
        self._removed.clear()
        self._dirty_nodes.clear()
        self._dirty_in_nodes.clear()
        self._dirty_flags = np.zeros(self._n, dtype=bool)
        self._dirty_in_flags = np.zeros(self._n, dtype=bool)
        self._delta_triplets.clear()
        self._delta_arrays = None
        self._delta_entries = 0
        if current:
            self._live_degrees = np.diff(self._csr.indptr).astype(np.int64)
        else:
            self._live_degrees = np.fromiter(
                (len(s) for s in self._succ), dtype=np.int64, count=self._n
            )
        if self._tracker is not None:
            # Consumers that enabled delta journaling keep it across a
            # journal reset — only the retained window restarts.
            self._tracker = DirtyNodeTracker(
                floor_version=self._version,
                max_length=self._tracker.delta_length,
                limit=self._tracker.limit,
            )

    def copy(self) -> "MutableSocialGraph":
        """Deep copy with fresh (empty) overlay state at the same version."""
        clone = MutableSocialGraph(
            self._n, directed=self._directed, journal_limit=self._journal_limit
        )
        self._copy_core_into(clone)
        clone._refresh_overlay_state()
        return clone

    def materialize(self) -> SocialGraph:
        """The current logical graph as a plain frozen :class:`SocialGraph`.

        Preserves the ``version`` counter (cache-key safety, as with
        :meth:`SocialGraph.copy`); drops the overlay machinery.
        """
        frozen = SocialGraph(self._n, directed=self._directed)
        self._copy_core_into(frozen)
        return frozen

    # ------------------------------------------------------------------
    # Durable serialization (epoch-base CSR round trip)
    # ------------------------------------------------------------------
    def csr_state(self) -> dict:
        """Serializable overlay state: frozen epoch-base CSR plus deltas.

        Captures the representation exactly as it stands — the epoch-base
        arrays, the per-node added/removed delta sets (empty right after
        a :meth:`compact`), and the ``(epoch, version)`` counters — so
        :meth:`restore_csr_state` round-trips it bit-identically
        *without* perturbing the compaction timeline. Durable snapshots
        rely on that: a snapshot must be purely observational, because
        auto-compaction points are a deterministic function of the event
        stream and recovery replays that stream to reproduce them.
        The returned dict is pickle-friendly (NumPy arrays, scalars, and
        plain containers).
        """
        base = self._ensure_base()
        return {
            "num_nodes": self._n,
            "directed": self._directed,
            "indptr": base.indptr.copy(),
            "indices": base.indices.copy(),
            "added": {node: sorted(adj) for node, adj in self._added.items() if adj},
            "removed": {node: sorted(adj) for node, adj in self._removed.items() if adj},
            "num_edges": self._num_edges,
            "version": self._version,
            "epoch": self._epoch,
        }

    def restore_csr_state(self, state: dict) -> None:
        """Rebuild this graph in place from a :meth:`csr_state` dict.

        Adopts the recorded ``version`` and ``epoch`` directly — restore
        changes the representation back to what the snapshot froze, not
        the logical graph, so there is **no version bump** (the same
        invariant :meth:`compact` keeps live). That is what keeps
        snapshot-resident utility-cache entries, which are keyed by the
        graph version, valid after recovery. The mutation journal starts
        fresh at the restored version: caches restored *at* that version
        have nothing to invalidate, and later mutations journal normally.
        """
        if int(state["num_nodes"]) != self._n or bool(state["directed"]) != self._directed:
            raise GraphError(
                f"csr state is for a "
                f"{'directed' if state['directed'] else 'undirected'} graph on "
                f"{state['num_nodes']} nodes; this graph is "
                f"{'directed' if self._directed else 'undirected'} on {self._n}"
            )
        indptr = np.asarray(state["indptr"], dtype=np.int64)
        indices = np.asarray(state["indices"], dtype=np.int64)
        added = {int(n): set(map(int, adj)) for n, adj in state["added"].items()}
        removed = {int(n): set(map(int, adj)) for n, adj in state["removed"].items()}
        # Live adjacency = epoch base patched by the deltas.
        self._succ = [
            set(indices[indptr[i]:indptr[i + 1]].tolist()) for i in range(self._n)
        ]
        for node, adj in added.items():
            self._succ[node].update(adj)
        for node, adj in removed.items():
            self._succ[node].difference_update(adj)
        if self._directed:
            pred: list[set[int]] = [set() for _ in range(self._n)]
            for u in range(self._n):
                for v in self._succ[u]:
                    pred[v].add(u)
            self._pred = pred
        else:
            self._pred = self._succ
        self._num_edges = int(state["num_edges"])
        self._version = int(state["version"])
        self._epoch = int(state["epoch"])
        self._degrees_version = -1
        self._degrees = None
        self._csr_version = -1
        self._csr = None
        # _refresh_overlay_state resets the deltas/journal around the
        # restored version; the recorded base and deltas are then pinned
        # back on top of it.
        self._refresh_overlay_state()
        base = sp.csr_matrix(
            (np.ones(indices.size, dtype=np.float64), indices, indptr),
            shape=(self._n, self._n),
        )
        self._base_csr = base
        self._added = added
        self._removed = removed
        self._dirty_nodes = set(added) | set(removed)
        for adjacent in added.values():
            self._dirty_in_nodes.update(adjacent)
        for adjacent in removed.values():
            self._dirty_in_nodes.update(adjacent)
        if self._dirty_nodes:
            self._dirty_flags[list(self._dirty_nodes)] = True
        if self._dirty_in_nodes:
            self._dirty_in_flags[list(self._dirty_in_nodes)] = True
        for node, adj in added.items():
            self._delta_triplets.extend((node, other, 1.0) for other in adj)
        for node, adj in removed.items():
            self._delta_triplets.extend((node, other, -1.0) for other in adj)
        self._delta_entries = sum(len(adj) for adj in added.values()) + sum(
            len(adj) for adj in removed.values()
        )
        if self._dirty_nodes:
            self._csr = None
            self._csr_version = -1
        else:
            self._csr = base
            self._csr_version = self._version

    @classmethod
    def from_csr_state(
        cls,
        state: dict,
        *,
        journal_limit: int = DEFAULT_JOURNAL_LIMIT,
    ) -> "MutableSocialGraph":
        """Build a fresh overlay graph directly from a :meth:`csr_state` dict."""
        graph = cls(
            int(state["num_nodes"]),
            directed=bool(state["directed"]),
            journal_limit=journal_limit,
        )
        graph.restore_csr_state(state)
        return graph

    # ------------------------------------------------------------------
    # Epoch / delta bookkeeping
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Compaction counter; bumps on every :meth:`compact`."""
        return self._epoch

    @property
    def stamp(self) -> "tuple[int, int]":
        """Monotone ``(epoch, version)`` stamp of the overlay state."""
        return (self._epoch, self._version)

    @property
    def delta_size(self) -> int:
        """Logical edges currently represented by the delta overlay.

        O(1): maintained as a counter by the mutation hooks (undirected
        deltas record both orientations, hence the halving), so the
        service's auto-compaction threshold check costs nothing per event.
        """
        return self._delta_entries if self._directed else self._delta_entries // 2

    @property
    def last_dirty_ball_size(self) -> "int | None":
        """Rows the most recently journaled mutation can change.

        ``None`` when nothing was journaled yet (no patching cache asked
        for deltas); the service's telemetry reads this after each
        applied mutation to histogram invalidation footprints.
        """
        return None if self._tracker is None else self._tracker.last_ball_size

    def request_score_deltas(self, max_length: int) -> None:
        """Ensure future mutations journal typed score deltas this deep.

        The first request creates the journal at the current version;
        earlier mutations stay unanswerable, so rows stamped before it
        are evicted rather than patched.
        """
        if self._tracker is None:
            self._tracker = DirtyNodeTracker(
                floor_version=self._version,
                max_length=max_length,
                limit=self._journal_limit,
            )
        else:
            self._tracker.request_score_deltas(max_length)

    def score_deltas_since(
        self, version: int, max_length: int
    ) -> "list | None":
        """Ordered typed score deltas ``version -> now``, or ``None``.

        ``None`` — no journal yet, version too stale, or some relevant
        mutation journaled too shallow a delta — means the caller must
        evict instead of patch. See
        :meth:`~repro.streaming.invalidation.DirtyNodeTracker.deltas_since`.
        """
        if self._tracker is None:
            return None
        return self._tracker.deltas_since(version, max_length)

    def successor_array(self, node: int) -> np.ndarray:
        """Out-neighbor ids of ``node`` as an int array, cheaply.

        For nodes untouched since the epoch base was pinned this is a
        *zero-copy view* into the frozen base CSR's ``indices`` — the
        fast path delta extraction (:func:`repro.compute.incremental.
        compute_edge_delta`) hits for almost every expansion node, since
        deltas are sparse. Dirty nodes (and the pre-pin state, where the
        sets are the only truth) materialize their live set. Callers
        must treat the result as read-only.
        """
        node = int(node)
        if self._base_csr is not None and node not in self._dirty_nodes:
            base = self._base_csr
            return base.indices[base.indptr[node]:base.indptr[node + 1]]
        adjacent = self._succ[node]
        array = np.fromiter(adjacent, dtype=np.int64, count=len(adjacent))
        array.sort()
        return array

    def _reverse_base(self) -> sp.csr_matrix:
        """The epoch base transposed to in-edge CSR, built on first need."""
        if self._base_csr_rev is None:
            self._base_csr_rev = self._ensure_base().T.tocsr()
        return self._base_csr_rev

    def _delta_columns(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The overlay delta triplets as (u, v, sign) column arrays, memoized.

        The triplet list is append-only between overlay resets (every
        reset path clears it and nulls this cache), so the arrays are
        maintained *incrementally*: capacity-doubling buffers plus a
        built-prefix cursor, filling only the tail appended since the
        last call instead of reconverting the whole list per mutation.
        """
        triplets = self._delta_triplets
        size = len(triplets)
        state = self._delta_arrays
        if state is None or state[0].size < size:
            capacity = max(64, 2 * size)
            rows = np.empty(capacity, dtype=np.int64)
            cols = np.empty(capacity, dtype=np.int64)
            signs = np.empty(capacity, dtype=np.float64)
            built = 0
            if state is not None:
                built = state[3]
                rows[:built] = state[0][:built]
                cols[:built] = state[1][:built]
                signs[:built] = state[2][:built]
            state = [rows, cols, signs, built]
            self._delta_arrays = state
        rows, cols, signs, built = state
        if built < size:
            for index in range(built, size):
                u, v, s = triplets[index]
                rows[index] = u
                cols[index] = v
                signs[index] = s
            state[3] = size
        return rows[:size], cols[:size], signs[:size]

    def _dual_matrix(self, use_in: bool) -> sp.csr_matrix:
        """The matrix whose left-multiply realizes a push (see push_counts)."""
        if self._directed:
            return self._ensure_base() if use_in else self._reverse_base()
        return self._ensure_base()  # symmetric: self-dual

    def _delta_correction(self, dense: np.ndarray, use_in: bool) -> "np.ndarray | None":
        """Δᵀ·c (forward) or Δ·c (reverse) over the overlay triplets, or None."""
        if not self._delta_triplets:
            return None
        rows, cols, signs = self._delta_columns()
        # Each triplet (u, v, s) moves s·c[u] to v — or s·c[v] to u when
        # pushing against edge direction.
        sources, sinks = (cols, rows) if use_in else (rows, cols)
        weights = signs * dense[sources]
        if not np.any(weights):
            return None
        return np.bincount(sinks, weights=weights, minlength=self._n)

    def _delta_correction_sparse(
        self, ids: np.ndarray, counts: np.ndarray, use_in: bool
    ) -> "np.ndarray | None":
        """:meth:`_delta_correction` for a *sparse* frontier.

        Reads the frontier values the triplet sources hit by binary
        search over the sorted ``ids`` instead of scattering the
        frontier into a dense length-``n`` vector first — the triplet
        list is far shorter than the graph, so this keeps the per-push
        correction proportional to the delta, not to ``n``.
        """
        if not self._delta_triplets:
            return None
        rows, cols, signs = self._delta_columns()
        sources, sinks = (cols, rows) if use_in else (rows, cols)
        positions = ids.searchsorted(sources)
        clipped = np.minimum(positions, ids.size - 1)
        valid = (positions < ids.size) & (ids[clipped] == sources)
        if not np.any(valid):
            return None
        weights = signs[valid] * counts[clipped[valid]]
        if not np.any(weights):
            return None
        return np.bincount(sinks[valid], weights=weights, minlength=self._n)

    def push_dense(self, counts: np.ndarray, reverse: bool = False) -> np.ndarray:
        """:meth:`push_counts` on a dense length-``n`` count vector.

        Returns a fresh dense vector (the caller may mutate it). One
        C-level CSR matvec over the frozen epoch base plus the overlay
        delta's bincount correction — the representation of choice once
        walk-count frontiers cover a sizable fraction of the graph, where
        sparse bookkeeping (nonzero extraction, id sorting) costs more
        than touching every node.
        """
        counts = np.asarray(counts, dtype=np.float64)
        use_in = reverse and self._directed
        out = self._dual_matrix(use_in).dot(counts)
        correction = self._delta_correction(counts, use_in)
        if correction is not None:
            out += correction
        return out

    def push_counts(
        self, ids: np.ndarray, counts: np.ndarray, reverse: bool = False
    ) -> "tuple[np.ndarray, np.ndarray]":
        """One exact walk-count expansion step over the live adjacency.

        Given a sparse frontier (``ids`` with multiplicities ``counts``),
        returns the sparse result of pushing every count along one edge:
        ``out[w] = Σ_{x ∈ ids, x→w} counts[x]`` (``w→x`` when ``reverse``
        on a directed graph — undirected adjacency is symmetric). This is
        one step of the walk-count recursions the incremental delta
        kernels run per mutation (:func:`repro.compute.incremental.
        compute_edge_delta`), so it must be exact and fast: the frozen
        epoch base is expanded in one vectorized pass (CSR gather for
        sparse frontiers, C-level matvec for dense ones) and the overlay
        delta is folded in as a single bincount over its (u, v, sign)
        triplets — ``A_live = A_base + Δ`` distributes over the push, and
        walk counts are exact integers in float64, so the correction is
        exact regardless of summation order. Returns ``(ids, counts)``
        with ascending unique ids.
        """
        ids = np.asarray(ids, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.float64)
        if ids.size == 0:
            return ids, counts
        use_in = reverse and self._directed
        if use_in:
            base = self._reverse_base()
            flags = self._dirty_in_flags
        else:
            base = self._ensure_base()
            flags = self._dirty_flags
        if ids.size == 1 and not flags[ids[0]]:
            # Seed expansions (most pushes per delta) touch one node; a
            # clean node's sorted base row *is* the answer — skip the
            # dense accumulator entirely.
            node = int(ids[0])
            start, stop = int(base.indptr[node]), int(base.indptr[node + 1])
            adjacent_ids = base.indices[start:stop].astype(np.int64, copy=False)
            return adjacent_ids, np.full(adjacent_ids.size, counts[0], dtype=np.float64)
        starts = base.indptr[ids].astype(np.int64, copy=False)
        sizes = base.indptr[ids + 1] - starts
        total = int(sizes.sum())
        if total > 16384:
            # Dense frontier: one C-level CSR matvec beats the gather's
            # O(total) temporaries (measured crossover ~16k gathered
            # entries on the wiki replica). The matvec needs the dual
            # matrix of the gather's: gather reads *rows* of ``base``
            # (out = baseᵀ·c), matvec multiplies from the left.
            dense = np.zeros(self._n, dtype=np.float64)
            dense[ids] = counts
            out = self._dual_matrix(use_in).dot(dense)
        else:
            out = np.zeros(self._n, dtype=np.float64)
            if total:
                # Classic CSR multi-row gather: positions[i] walks each
                # frontier node's index slice contiguously.
                positions = np.arange(total, dtype=np.int64)
                positions += np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
                out += np.bincount(
                    base.indices[positions],
                    weights=np.repeat(counts, sizes),
                    minlength=self._n,
                )
        if self._delta_triplets:
            correction = self._delta_correction_sparse(ids, counts, use_in)
            if correction is not None:
                out += correction
        nonzero = np.nonzero(out)[0]
        return nonzero, out[nonzero]

    def compact(self) -> None:
        """Fold the delta into a fresh CSR base and start a new epoch.

        The new base is :meth:`adjacency_matrix`'s fold (base plus the
        +1/-1 delta, zeros eliminated, indices sorted): one vectorized
        O(m + delta) sparse sum, cached per version, with no sweep over
        the adjacency sets. The logical graph is unchanged, so
        ``version`` stays put (caches keyed on it remain valid) while
        ``epoch`` bumps; the mutation journal is *kept* — its recorded
        deltas remain correct — so caches can still patch across the
        compaction boundary.
        """
        self._base_csr = self.adjacency_matrix()
        self._base_csr_rev = None
        self._added.clear()
        self._removed.clear()
        self._dirty_nodes.clear()
        self._dirty_in_nodes.clear()
        self._dirty_flags.fill(False)
        self._dirty_in_flags.fill(False)
        self._delta_triplets.clear()
        self._delta_arrays = None
        self._delta_entries = 0
        self._epoch += 1

    # ------------------------------------------------------------------
    # Mutation hooks
    # ------------------------------------------------------------------
    def _record_delta(self, u: int, v: int, added: bool) -> None:
        """Update one orientation's delta sets after a successful mutation."""
        into, outof = (self._added, self._removed) if added else (self._removed, self._added)
        pending = outof.get(u)
        if pending is not None and v in pending:
            pending.discard(v)  # add+remove (or remove+add) cancel within an epoch
            self._delta_entries -= 1
        else:
            into.setdefault(u, set()).add(v)
            self._delta_entries += 1
        if (
            self._added.get(u) or self._removed.get(u)
        ):
            self._dirty_nodes.add(u)
            self._dirty_flags[u] = True
        else:
            self._dirty_nodes.discard(u)
            self._dirty_flags[u] = False
        # Conservative: v's in-set may differ from the epoch base even if
        # a later cancellation restores it; staying marked only routes v
        # around push_counts' clean-node fast path.
        self._dirty_in_nodes.add(v)
        self._dirty_in_flags[v] = True
        self._delta_triplets.append((u, v, 1.0 if added else -1.0))

    def _after_mutation(self, u: int, v: int, added: bool) -> None:
        """Shared post-mutation hook: base CSR pinning, deltas, degrees, journal."""
        step = 1 if added else -1
        self._live_degrees[u] += step
        self._record_delta(u, v, added)
        if not self._directed:
            self._live_degrees[v] += step
            self._record_delta(v, u, added)
        if self._tracker is not None:
            self._tracker.record(self, u, v, added)

    def _ensure_base(self) -> sp.csr_matrix:
        """The frozen epoch-base CSR, built on first need.

        Must be captured before the first post-epoch mutation lands; the
        mutation hooks call this ahead of ``super()``'s set updates.
        """
        if self._base_csr is None:
            # No deltas yet (hooks pin the base before mutating), so the
            # current sets *are* the epoch state.
            self._base_csr = self._build_csr()
        return self._base_csr

    def add_edge(self, u: int, v: int) -> None:
        self._ensure_base()
        super().add_edge(u, v)
        self._after_mutation(int(u), int(v), added=True)

    def try_add_edge(self, u: int, v: int) -> bool:
        self._ensure_base()
        if not super().try_add_edge(u, v):
            return False
        self._after_mutation(int(u), int(v), added=True)
        return True

    def remove_edge(self, u: int, v: int) -> None:
        self._ensure_base()
        super().remove_edge(u, v)
        self._after_mutation(int(u), int(v), added=False)

    def try_remove_edge(self, u: int, v: int) -> bool:
        # Mirrors try_add_edge: membership check here, then the overridden
        # remove_edge runs the overlay hooks exactly once. Deliberately does
        # not delegate to super().try_remove_edge so correctness never
        # depends on the base class's internal call graph.
        u, v = self._check_node(u), self._check_node(v)
        if v not in self._succ[u]:
            return False
        self.remove_edge(u, v)
        return True

    # ------------------------------------------------------------------
    # Read paths
    # ------------------------------------------------------------------
    def _degrees_vector(self) -> np.ndarray:
        # Maintained in place by the mutation hooks; shared, do not mutate.
        return self._live_degrees

    def degrees(self) -> np.ndarray:
        """Vector of (out-)degrees for all nodes (a fresh, writable copy)."""
        return self._live_degrees.copy()

    def max_degree(self) -> int:
        """Maximum (out-)degree ``d_max`` — an O(n) scan of the live vector."""
        if self._n == 0:
            return 0
        return int(self._live_degrees.max())

    def _delta_matrix(self) -> sp.coo_matrix:
        """Sparse +1/-1 correction matrix representing the current delta."""
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        for node, adjacent in self._added.items():
            for other in adjacent:
                rows.append(node)
                cols.append(other)
                data.append(1.0)
        for node, adjacent in self._removed.items():
            for other in adjacent:
                rows.append(node)
                cols.append(other)
                data.append(-1.0)
        return sp.coo_matrix(
            (
                np.asarray(data, dtype=np.float64),
                (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)),
            ),
            shape=(self._n, self._n),
        )

    def adjacency_matrix(self) -> sp.csr_matrix:
        """Current ``n x n`` adjacency as CSR: epoch base plus sparse delta.

        One vectorized sparse sum (O(m + delta)) instead of the base
        class's Python sweep over every adjacency set; cached per
        ``version`` like the base implementation.
        """
        if self._csr is not None and self._csr_version == self._version:
            return self._csr
        base = self._ensure_base()
        if not self._dirty_nodes:
            current = base
        else:
            current = (base + self._delta_matrix().tocsr()).tocsr()
            current.eliminate_zeros()
            current.sort_indices()
        self._csr = current
        self._csr_version = self._version
        return current

    def adjacency_product(self, rows: sp.csr_matrix) -> sp.csr_matrix:
        """``rows @ A`` as ``rows @ base + rows @ Δ`` — no O(m) rebuild.

        Reuses the matrix view when it is current; otherwise the overlay
        delta's (u, v, sign) triplets form a sparse ``Δ`` (cancelling
        pairs sum away). Counts are exact integers, so the result equals
        ``rows @ adjacency_matrix()`` entry for entry; entries that cancel
        to zero may stay explicit, and support builders filter them.
        """
        if self._csr is not None and self._csr_version == self._version:
            return rows @ self._csr
        product = rows @ self._ensure_base()
        if self._delta_triplets:
            sources, sinks, signs = self._delta_columns()
            delta = sp.csr_matrix((signs, (sources, sinks)), shape=(self._n, self._n))
            product = product + rows @ delta
        return product

    def adjacency_rows(self, targets: "np.ndarray | list[int]") -> sp.csr_matrix:
        """CSR row slice ``A[targets]`` — O(rows + delta), no full rebuild.

        Clean targets' rows are sliced straight out of the frozen epoch
        base; only targets carrying deltas have their rows rebuilt from
        the live adjacency sets. Row ``j`` corresponds to ``targets[j]``
        with ascending column order, exactly as the base class returns.
        """
        targets = np.asarray(targets, dtype=np.int64)
        if self._csr is not None and self._csr_version == self._version:
            return self._csr[targets]
        base_rows = self._ensure_base()[targets]
        if not self._dirty_nodes:
            return base_rows
        dirty_positions = [
            j for j, t in enumerate(targets.tolist()) if t in self._dirty_nodes
        ]
        if not dirty_positions:
            return base_rows
        dirty_position_set = set(dirty_positions)
        parts: list[np.ndarray] = []
        indptr = np.zeros(targets.size + 1, dtype=np.int64)
        for j in range(targets.size):
            if j in dirty_position_set:
                live = self._succ[int(targets[j])]
                cols = np.fromiter(live, dtype=np.int64, count=len(live))
                cols.sort()
            else:
                cols = base_rows.indices[base_rows.indptr[j]:base_rows.indptr[j + 1]]
            parts.append(cols)
            indptr[j + 1] = indptr[j] + cols.size
        indices = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        ).astype(np.int64, copy=False)
        data = np.ones(indices.size, dtype=np.float64)
        return sp.csr_matrix(
            (data, indices, indptr), shape=(targets.size, self._n)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self._directed else "undirected"
        return (
            f"MutableSocialGraph(n={self._n}, m={self._num_edges}, {kind}, "
            f"epoch={self._epoch}, delta={self.delta_size})"
        )
