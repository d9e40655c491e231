"""Changing sensitivity on a dynamic graph — Section 8's main future-work item.

"Social networks clearly change over time (and rather rapidly). This
raises several issues related to changing sensitivity and privacy impacts
of dynamic data."

:func:`sensitivity_drift` measures that issue: it replays a time-ordered
stream of edge mutations and reads a utility function's analytic
Delta f at chosen times. For weighted paths Delta f grows with d_max, so
a mechanism calibrated at time 0 silently under-noises later. Serving
under the same mutations is :class:`~repro.streaming.StreamingService`,
which re-derives the calibration after every applied mutation.
"""

from __future__ import annotations

from ..errors import ExperimentError, GraphError
from ..graphs.graph import SocialGraph
from ..streaming.events import KIND_ADD, StreamEvent
from ..streaming.overlay import MutableSocialGraph
from ..utility.base import UtilityFunction


def sensitivity_drift(
    graph: SocialGraph,
    events: "list[StreamEvent]",
    utility: UtilityFunction,
    target: int,
    times: "list[float]",
) -> list[tuple[float, float]]:
    """Delta f of ``utility`` at each requested time.

    Replays the mutations among ``events`` on one
    :class:`~repro.streaming.overlay.MutableSocialGraph` copy of
    ``graph``, applying every one with ``event.time <= time`` before
    reading the sensitivity at ``time``; queries are skipped, and
    duplicate adds and missing removals are no-ops. Each mutation is
    applied once and nothing rewinds, so neither the events' times nor
    ``times`` may decrease (:class:`~repro.errors.ExperimentError`).

    Quantifies the paper's "changing sensitivity" concern: a mechanism
    whose noise was calibrated against the time-0 sensitivity violates its
    epsilon claim at any later time where the sensitivity has grown.
    """
    if not times:
        raise ExperimentError("at least one time is required")
    mutations = [event for event in events if event.is_mutation]
    for name, clock in (("events", [event.time for event in mutations]), ("times", times)):
        if any(later < earlier for earlier, later in zip(clock, clock[1:])):
            raise ExperimentError(f"{name} must not go back in time")
    live = MutableSocialGraph.from_graph(graph)
    if not 0 <= int(target) < live.num_nodes:
        raise GraphError(f"target {target} not in graph")
    applied = 0
    drift: list[tuple[float, float]] = []
    for time in times:
        while applied < len(mutations) and mutations[applied].time <= time:
            event = mutations[applied]
            if event.kind == KIND_ADD:
                live.try_add_edge(event.u, event.v)
            else:
                live.try_remove_edge(event.u, event.v)
            applied += 1
        drift.append((float(time), float(utility.sensitivity(live, target))))
    return drift
