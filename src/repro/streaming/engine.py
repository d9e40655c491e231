"""Serving while the graph mutates: the replay driver and its summary.

Mutations, window budgets and write-ahead journaling belong to
:class:`~repro.serving.service.RecommendationService` itself: over a
:class:`~repro.streaming.overlay.MutableSocialGraph` it applies edge
events (O(1) per event, plus one journaled score delta when a patching
cache reads the graph), auto-compacts the overlay, and admits, charges
and commits every request — single, top-k or batch — against the
lifetime budget and, with ``window=`` set, a
:class:`~repro.serving.budgets.SlidingWindowAccountant` per user.

:func:`replay_stream` drives such a service through a
:mod:`~repro.streaming.events` stream — flushing query batches whenever
a mutation arrives so graph state and answers interleave exactly as the
stream dictates — and returns a :class:`StreamReplaySummary`.

:class:`StreamingService` is the same service built from a plain graph:
it copies the graph into a :class:`MutableSocialGraph` first. The
end-to-end benchmark (``perfbench/``) builds it by that name and reads
``.service``, and traces ``SlidingWindowAccountant`` through this module,
so both names stay here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import ServingError
from ..graphs.graph import SocialGraph
from ..serving.budgets import SlidingWindowAccountant
from ..serving.records import STATUS_NO_CANDIDATES
from ..serving.service import RecommendationService
from .events import StreamEvent
from .overlay import MutableSocialGraph

__all__ = [
    "SlidingWindowAccountant",
    "StreamReplaySummary",
    "StreamingService",
    "replay_stream",
]


class StreamingService(RecommendationService):
    """A :class:`RecommendationService` over a :class:`MutableSocialGraph`.

    A plain :class:`SocialGraph` is copied into an overlay; passing an
    overlay uses it directly, shared with the caller. Every other
    argument is :class:`RecommendationService`'s.
    """

    def __init__(self, graph: "SocialGraph | MutableSocialGraph", *args, **kwargs) -> None:
        if not isinstance(graph, MutableSocialGraph):
            graph = MutableSocialGraph.from_graph(graph)
        super().__init__(graph, *args, **kwargs)

    @property
    def service(self) -> "StreamingService":
        """The service itself (read by name by the end-to-end benchmark)."""
        return self


@dataclass(frozen=True)
class StreamReplaySummary:
    """Aggregate statistics from one :func:`replay_stream` run.

    All counters cover *this replay only* (a service can replay several
    streams; earlier runs never leak into a later summary).
    ``num_mutations`` counts the stream's mutation events —
    ``num_mutations + num_queries == num_events`` always —
    while ``num_mutations_applied`` counts those that actually changed
    the graph (duplicate adds / missing removals are tolerated no-ops
    when replaying against a drifted graph).
    """

    num_events: int
    num_queries: int
    num_served: int
    num_rejected: int
    num_no_candidates: int
    num_mutations: int
    num_mutations_applied: int
    num_compactions: int
    wall_seconds: float
    events_per_second: float
    cache_hit_rate: float
    total_epsilon_spent: float
    final_epoch: int
    final_version: int

    def render(self) -> str:
        """Human-readable multi-line summary for CLI output."""
        return "\n".join(
            [
                f"  events:          {self.num_events} "
                f"({self.num_mutations} mutations, {self.num_queries} queries)",
                f"  applied:         {self.num_mutations_applied} mutations "
                "changed the graph",
                f"  served:          {self.num_served}",
                f"  rejected:        {self.num_rejected} (budget exhausted)",
                f"  no candidates:   {self.num_no_candidates}",
                f"  wall time:       {self.wall_seconds:.3f} s",
                f"  throughput:      {self.events_per_second:,.0f} events/sec",
                f"  cache hit rate:  {self.cache_hit_rate:.1%}",
                f"  epsilon spent:   {self.total_epsilon_spent:.2f} (all users)",
                f"  compactions:     {self.num_compactions}",
                f"  final stamp:     (epoch={self.final_epoch}, "
                f"version={self.final_version})",
            ]
        )


def replay_stream(
    service: RecommendationService,
    events: "list[StreamEvent]",
    *,
    batch_size: int = 64,
    on_response=None,
) -> StreamReplaySummary:
    """Drive a service over a :class:`MutableSocialGraph` through an event stream.

    Queries accumulate into batches of up to ``batch_size`` and flush
    through :meth:`~RecommendationService.recommend_batch` with their own
    per-event timestamps (so batching never shifts window-budget
    accounting); any mutation event flushes the pending batch *first*,
    so every query is answered from exactly the graph state the stream
    prescribes at its timestamp. Returns throughput / cache / budget
    statistics.

    ``on_response`` (optional) receives every
    :class:`~repro.serving.records.RecommendationResponse` in query
    order. This is how the bit-identity gates (benchmark and tests)
    capture the recommendation sequence *through the production replay
    loop itself* — re-implementing the interleaving rules elsewhere
    could silently diverge from what replay actually does.
    """
    if batch_size < 1:
        raise ServingError(f"batch_size must be >= 1, got {batch_size}")
    served = rejected = no_candidates = queries = mutations = 0
    hits = 0
    epsilon_spent = 0.0
    applied_before = service.mutations_applied
    compactions_before = service.compactions
    pending: list[int] = []
    pending_times: list[float] = []

    def flush() -> None:
        nonlocal served, rejected, no_candidates, hits, epsilon_spent
        if not pending:
            return
        for response in service.recommend_batch(pending, at=pending_times):
            if response.served:
                served += 1
                hits += int(response.cache_hit)
                epsilon_spent += response.epsilon_spent
            elif response.status == STATUS_NO_CANDIDATES:
                no_candidates += 1
            else:
                rejected += 1
            if on_response is not None:
                on_response(response)
        pending.clear()
        pending_times.clear()

    started = time.perf_counter()
    for event in events:
        if event.is_mutation:
            mutations += 1
            flush()
            service.apply_edge_event(event)
        else:
            queries += 1
            pending.append(event.user)
            pending_times.append(event.time)
            if len(pending) >= batch_size:
                flush()
    flush()
    wall = time.perf_counter() - started
    return StreamReplaySummary(
        num_events=len(events),
        num_queries=queries,
        num_served=served,
        num_rejected=rejected,
        num_no_candidates=no_candidates,
        num_mutations=mutations,
        num_mutations_applied=service.mutations_applied - applied_before,
        num_compactions=service.compactions - compactions_before,
        wall_seconds=wall,
        events_per_second=len(events) / wall if wall > 0 else float("inf"),
        cache_hit_rate=hits / served if served else 0.0,
        total_epsilon_spent=epsilon_spent,
        final_epoch=service.epoch,
        final_version=service.graph.version,
    )
