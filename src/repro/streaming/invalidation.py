"""The mutation journal: typed score deltas for patching cached rows.

The serving cache keeps one utility row per target, stamped with the
graph ``version`` it is exact at. For a utility that counts walks
(common neighbors is ``A^2``, weighted paths combines ``A^2 .. A^L``),
an edge flip changes a cached row by a closed-form sparse delta
(:class:`~repro.compute.incremental.EdgeScoreDelta`), and the rows it
can change are exactly the delta's ``touched`` set — every target with
a nonzero pre-mutation reverse walk count into a mutated endpoint —
plus the two endpoint rows, whose candidate sets change:

* :class:`DirtyNodeTracker` journals each mutation's delta *at
  application time* (the delta's reverse counts are recovered from the
  post-mutation graph, so computing it later, after further mutations,
  would be wrong);
* :meth:`DirtyNodeTracker.deltas_since` answers the cache's question —
  "what transforms a row stamped at ``v`` into its current value?" —
  with the ordered delta run, or ``None`` when the journal cannot
  answer (``v`` predates the retained window, or some delta was
  journaled shallower than the consumer combines). ``None`` is always
  safe: the caller evicts the row and recomputes it.

A graph creates its journal on the first
:meth:`~repro.streaming.overlay.MutableSocialGraph.request_score_deltas`,
so a graph no patching cache reads journals nothing.
"""

from __future__ import annotations

from bisect import bisect_right

from ..compute.incremental import EdgeScoreDelta, compute_edge_delta
from ..errors import GraphError

#: Default journal length bound. Beyond it the oldest deltas are dropped
#: and the answerable-version floor rises, so a row that fell far behind
#: is evicted instead of the journal growing without bound.
DEFAULT_JOURNAL_LIMIT = 512


def _check_delta_length(max_length: int) -> int:
    if max_length < 2:
        raise GraphError(f"delta max_length must be >= 2, got {max_length}")
    return int(max_length)


class DirtyNodeTracker:
    """Bounded journal of the typed score deltas of recent mutations.

    Owned by a :class:`~repro.streaming.overlay.MutableSocialGraph`, which
    calls :meth:`record` from its mutation hooks — eagerly, so every delta
    is computed on the graph it describes (see module docstring).

    Parameters
    ----------
    floor_version:
        The graph version at tracker creation; :meth:`deltas_since` can
        only answer for versions at or above the floor.
    max_length:
        Longest walk length deltas are journaled for (2 for common
        neighbors, ``max_length`` for weighted paths); raised later by
        :meth:`request_score_deltas`.
    limit:
        Maximum retained deltas; older ones are dropped and the floor
        rises (turning very stale rows into evictions).
    """

    def __init__(
        self,
        floor_version: int,
        max_length: int,
        limit: int = DEFAULT_JOURNAL_LIMIT,
    ) -> None:
        if limit < 1:
            raise GraphError(f"journal limit must be >= 1, got {limit}")
        #: Longest walk length future deltas are journaled for.
        self.delta_length = _check_delta_length(max_length)
        self.limit = int(limit)
        self._floor = int(floor_version)
        # Parallel lists in journal (= version) order. Journaled depth only
        # ever deepens, so delta max_length never decreases along them.
        self._versions: list[int] = []
        self._deltas: list[EdgeScoreDelta] = []

    @property
    def last_ball_size(self) -> "int | None":
        """Rows the most recent journaled mutation can change.

        The size of the delta's ``touched`` set plus whichever endpoint
        rows it evicts (the tail of a directed mutation, both endpoints
        of an undirected one) that it does not already contain; ``None``
        before any mutation was journaled. Telemetry's dirty-ball
        histogram reads this right after each mutation.
        """
        if not self._deltas:
            return None
        delta = self._deltas[-1]
        evicted = {node for node in (delta.u, delta.v) if delta.evicts(node)}
        return len(delta.touched) + len(evicted - delta.touched)

    def request_score_deltas(self, max_length: int) -> None:
        """Deepen delta journaling for future records.

        ``max_length`` is the longest walk length any patching consumer
        combines; requests only ever deepen (several caches may share the
        tracker). Already-journaled deltas are not retrofitted — a
        :meth:`deltas_since` query spanning them returns ``None`` and the
        caller evicts instead.
        """
        self.delta_length = max(self.delta_length, _check_delta_length(max_length))

    def record(self, graph, u: int, v: int, added: bool) -> None:
        """Journal one just-applied mutation (called by the graph's hooks)."""
        delta = compute_edge_delta(graph, u, v, added, self.delta_length)
        self._versions.append(delta.version)
        self._deltas.append(delta)
        if len(self._deltas) > self.limit:
            # The dropped delta's effects are no longer reconstructible;
            # only versions from it onward remain answerable.
            self._floor = max(self._floor, self._versions[0])
            del self._versions[0]
            del self._deltas[0]

    def deltas_since(
        self, version: int, max_length: int
    ) -> "list[EdgeScoreDelta] | None":
        """The ordered score deltas transforming ``version`` into now.

        Applying them in order to a row cached at ``version`` yields that
        row's exact current walk counts. Returns ``None`` — "cannot
        patch, evict instead" — when ``version`` predates the floor or
        some delta newer than ``version`` was journaled shallower than
        ``max_length`` (before a deeper consumer asked).
        """
        _check_delta_length(max_length)
        if version < self._floor:
            return None
        # Versions strictly increase, so "newer than version" is a
        # suffix; depth never decreases, so its first delta is its
        # shallowest.
        start = bisect_right(self._versions, version)
        if start < len(self._deltas) and self._deltas[start].max_length < max_length:
            return None
        return self._deltas[start:]
