"""Reproducible streaming event workloads: edge churn mixed with queries.

The serving workload generator (:func:`repro.serving.workload.
synthetic_workload`) produces pure request traffic; a streaming system
faces an *arrival mix* — edge additions, edge removals, and
recommendation queries interleaved on one clock. :func:`synthetic_event_
stream` draws such a stream over any graph, tracking the evolving edge
set so every mutation event is applicable when replayed in order (adds
name absent pairs, removals name present edges), and every query follows
the same Zipf popularity skew as the serving workload.

The companion replay driver lives in :mod:`repro.streaming.engine`
(:func:`~repro.streaming.engine.replay_stream`). The same events drive
:func:`~repro.extensions.dynamic.sensitivity_drift` and the naive
rebuild-per-event baseline in ``benchmarks/bench_streaming.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ServingError
from ..graphs.graph import SocialGraph
from ..rng import ensure_rng

#: Event kinds carried by a :class:`StreamEvent`.
KIND_ADD = "add"
KIND_REMOVE = "remove"
KIND_QUERY = "query"


@dataclass(frozen=True)
class StreamEvent:
    """One timestamped arrival: an edge mutation or a recommendation query.

    ``u``/``v`` are the edge endpoints for mutation events; ``user`` is
    the requesting user for query events; the unused fields stay ``-1``.
    ``time`` must be finite: the streaming clock follows it, and an
    infinite clock would expire every sliding-window spend on arrival.
    """

    time: float
    kind: str
    u: int = -1
    v: int = -1
    user: int = -1

    def __post_init__(self) -> None:
        if not math.isfinite(self.time):
            raise ServingError(f"stream event time must be finite, got {self.time!r}")
        if self.kind not in (KIND_ADD, KIND_REMOVE, KIND_QUERY):
            raise ServingError(f"unknown stream event kind {self.kind!r}")
        if self.kind == KIND_QUERY:
            if self.user < 0:
                raise ServingError("query events need a user")
        elif self.u < 0 or self.v < 0:
            raise ServingError(f"{self.kind} events need both edge endpoints")

    @property
    def is_mutation(self) -> bool:
        """Whether this event changes the graph (add or remove)."""
        return self.kind != KIND_QUERY


def synthetic_event_stream(
    graph: SocialGraph,
    num_events: int,
    *,
    add_fraction: float = 0.05,
    remove_fraction: float = 0.05,
    zipf_exponent: float = 1.1,
    seed: "int | np.random.Generator | None" = None,
    start_time: float = 0.0,
    time_step: float = 1.0,
) -> "list[StreamEvent]":
    """Draw a time-ordered mix of edge adds, edge removals, and queries.

    The generator simulates the edge set as it goes, so replaying the
    stream in order against a graph that started from ``graph`` applies
    cleanly: additions pick uniformly random currently-absent pairs,
    removals pick uniformly random currently-present edges (skipped, and
    re-drawn as queries, if the simulated graph runs out of edges).
    Query users follow the same ``rank^-zipf_exponent`` popularity skew
    as :func:`repro.serving.workload.synthetic_workload`. Timestamps are
    ``start_time + i * time_step``, strictly increasing.
    """
    if num_events < 0:
        raise ServingError(f"num_events must be non-negative, got {num_events}")
    if graph.num_nodes < 2:
        raise ServingError("event streams need a graph with at least 2 nodes")
    if add_fraction < 0 or remove_fraction < 0 or add_fraction + remove_fraction > 1:
        raise ServingError(
            "add/remove fractions must be non-negative and sum to at most 1, "
            f"got add={add_fraction}, remove={remove_fraction}"
        )
    if zipf_exponent < 0:
        raise ServingError(f"zipf_exponent must be non-negative, got {zipf_exponent}")
    if time_step <= 0:
        raise ServingError(f"time_step must be positive, got {time_step}")
    rng = ensure_rng(seed)
    num_nodes = graph.num_nodes

    # Simulated edge state, kept as a canonical-pair set plus a list for
    # O(1) uniform removal sampling (swap-and-pop).
    directed = graph.is_directed
    def canonical(u: int, v: int) -> "tuple[int, int]":
        return (u, v) if directed or u <= v else (v, u)

    edge_list: list[tuple[int, int]] = [canonical(u, v) for u, v in graph.edges()]
    edge_index = {pair: i for i, pair in enumerate(edge_list)}

    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    weights = ranks ** (-zipf_exponent)
    weights /= weights.sum()
    identity = rng.permutation(num_nodes)  # which user holds each popularity rank

    kinds = rng.choice(
        [KIND_ADD, KIND_REMOVE, KIND_QUERY],
        size=int(num_events),
        p=[add_fraction, remove_fraction, 1.0 - add_fraction - remove_fraction],
    )
    # One vectorized draw for every potential query (mutations that cannot
    # apply degrade into queries, so every slot may need a rank) instead of
    # an O(num_nodes) rng.choice(p=...) scan per event.
    query_ranks = rng.choice(num_nodes, size=int(num_events), p=weights)
    events: list[StreamEvent] = []
    for step, kind in enumerate(kinds):
        time = start_time + step * time_step
        if kind == KIND_ADD:
            pair = None
            for _ in range(64):  # absent pairs dominate on sparse graphs
                u, v = (int(x) for x in rng.integers(0, num_nodes, size=2))
                if u != v and canonical(u, v) not in edge_index:
                    pair = canonical(u, v)
                    break
            if pair is None:
                kind = KIND_QUERY  # graph is (near-)complete; query instead
            else:
                edge_index[pair] = len(edge_list)
                edge_list.append(pair)
                events.append(StreamEvent(time, KIND_ADD, u=pair[0], v=pair[1]))
                continue
        if kind == KIND_REMOVE:
            if not edge_list:
                kind = KIND_QUERY  # nothing left to remove; query instead
            else:
                slot = int(rng.integers(0, len(edge_list)))
                pair = edge_list[slot]
                last = edge_list[-1]
                edge_list[slot] = last
                edge_index[last] = slot
                edge_list.pop()
                del edge_index[pair]
                events.append(StreamEvent(time, KIND_REMOVE, u=pair[0], v=pair[1]))
                continue
        rank = int(query_ranks[step])
        events.append(StreamEvent(time, KIND_QUERY, user=int(identity[rank])))
    return events

