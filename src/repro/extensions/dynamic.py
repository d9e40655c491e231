"""Dynamic (temporal) social graphs — Section 8's main future-work item.

"Social networks clearly change over time (and rather rapidly). This
raises several issues related to changing sensitivity and privacy impacts
of dynamic data."

The paper stops at posing the question; this module implements the
measurement-side treatment:

* :class:`TemporalGraph` — a sequence of edge events (add/remove with a
  timestamp) replayable into snapshots. Replay is *incremental*: a
  persistent :class:`~repro.streaming.overlay.MutableSocialGraph` cursor
  advances event by event (O(1) per event through the delta overlay), so
  querying times ``t1 <= t2 <= ...`` applies each event exactly once —
  the old rebuild-the-whole-graph-per-query path is gone. Rewinding to
  an earlier time resets the cursor from the initial graph (the one
  remaining O(n + m) path, paid only on out-of-order access);
* :class:`DynamicRecommender` — recommends at query times from the
  cursor's live view, charging every release to a shared
  :class:`~repro.extensions.accountant.PrivacyAccountant` (basic
  composition across time, the conservative baseline the paper's open
  question starts from);
* :func:`sensitivity_drift` — tracks how a utility function's analytic
  Delta f moves as the graph densifies, quantifying the "changing
  sensitivity" issue: for weighted paths, Delta f grows with d_max, so a
  mechanism calibrated at time 0 silently under-noises later.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ExperimentError, GraphError
from ..graphs.graph import SocialGraph
from ..mechanisms.base import Mechanism
from ..rng import ensure_rng
from ..streaming.overlay import MutableSocialGraph
from ..utility.base import UtilityFunction
from .accountant import PrivacyAccountant


@dataclass(frozen=True)
class EdgeEvent:
    """One timestamped edge mutation."""

    time: float
    u: int
    v: int
    add: bool = True


@dataclass
class TemporalGraph:
    """An initial graph plus a time-ordered stream of edge events."""

    initial: SocialGraph
    events: list[EdgeEvent] = field(default_factory=list)
    _cursor: MutableSocialGraph = field(init=False, repr=False, compare=False)
    _applied: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        times = [event.time for event in self.events]
        if times != sorted(times):
            raise ExperimentError("edge events must be time-ordered")
        self._reset_cursor()

    def _reset_cursor(self) -> None:
        self._cursor = MutableSocialGraph.from_graph(self.initial)
        self._applied = 0

    def at(self, time: float) -> MutableSocialGraph:
        """Live view of the graph state at ``time`` (borrowed, not owned).

        Advances the internal cursor — applying only the events between
        the previous query time and ``time`` — and returns it. The
        returned graph is *shared*: a later ``at``/``snapshot`` call may
        mutate it, so callers that need an independent graph should use
        :meth:`snapshot`. Monotone access (the common replay pattern)
        never rebuilds; rewinding resets from ``initial`` and replays the
        prefix.
        """
        if self._applied and self.events[self._applied - 1].time > time:
            self._reset_cursor()
        while self._applied < len(self.events) and self.events[self._applied].time <= time:
            event = self.events[self._applied]
            if event.add:
                self._cursor.try_add_edge(event.u, event.v)
            else:
                self._cursor.try_remove_edge(event.u, event.v)
            self._applied += 1
        return self._cursor

    def snapshot(self, time: float) -> SocialGraph:
        """Graph state after applying all events with ``event.time <= time``.

        An independent frozen :class:`SocialGraph` (mutating it never
        affects this temporal graph, and vice versa), materialized from
        the incremental cursor.
        """
        return self.at(time).materialize()

    def horizon(self) -> float:
        """Timestamp of the final event (0.0 when there are none)."""
        return self.events[-1].time if self.events else 0.0


class DynamicRecommender:
    """Per-snapshot private recommendations with a shared privacy budget.

    Each call to :meth:`recommend_at` reads the utility vector off the
    temporal graph's live cursor at that time, re-derives the sensitivity
    (so the noise tracks the *current* d_max — the "changing sensitivity"
    issue), and charges the mechanism's epsilon to the accountant.
    """

    def __init__(
        self,
        temporal: TemporalGraph,
        utility: UtilityFunction,
        mechanism_factory,
        accountant: PrivacyAccountant,
    ) -> None:
        self.temporal = temporal
        self.utility = utility
        self.mechanism_factory = mechanism_factory
        self.accountant = accountant

    def recommend_at(
        self,
        time: float,
        target: int,
        epsilon: float,
        seed: "int | np.random.Generator | None" = None,
    ) -> "tuple[int, Mechanism]":
        """One private recommendation from the graph state at ``time``.

        Returns ``(recommended node, the mechanism used)`` so callers can
        inspect the sensitivity that was applied. Raises once the
        accountant's budget is exhausted — privacy loss accumulates across
        the graph's lifetime even though each snapshot is queried once.
        """
        graph = self.temporal.at(time)
        vector = self.utility.utility_vector(graph, target)
        if not vector.has_signal():
            raise ExperimentError(
                f"target {target} has no non-zero-utility candidate at time {time}"
            )
        sensitivity = float(self.utility.sensitivity(graph, target))
        mechanism = self.mechanism_factory(epsilon, sensitivity)
        self.accountant.spend(epsilon, f"t={time} target={target}")
        rng = ensure_rng(seed)
        return mechanism.recommend(vector, seed=rng), mechanism


def sensitivity_drift(
    temporal: TemporalGraph,
    utility: UtilityFunction,
    target: int,
    times: "list[float]",
) -> list[tuple[float, float]]:
    """Delta f of ``utility`` at each requested time.

    Quantifies the paper's "changing sensitivity" concern: a mechanism
    whose noise was calibrated against the time-0 sensitivity violates its
    epsilon claim at any later time where the sensitivity has grown.
    """
    if not times:
        raise ExperimentError("at least one time is required")
    drift: list[tuple[float, float]] = []
    for time in times:
        graph = temporal.at(time)
        if not 0 <= int(target) < graph.num_nodes:
            raise GraphError(f"target {target} not in snapshot")
        drift.append((float(time), float(utility.sensitivity(graph, target))))
    return drift
