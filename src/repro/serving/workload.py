"""Synthetic request traffic and replay harness.

The paper evaluates mechanisms target-by-target; a serving system faces a
*stream*: many users, popularity skew (a few heavy requesters), repeat
visits that should hit the utility cache, and background graph churn that
must invalidate it. :func:`synthetic_workload` generates such a stream
over any graph, and :func:`replay` drives a
:class:`~repro.serving.service.RecommendationService` through it in
batches, returning throughput / cache / budget statistics. This is the
engine behind the ``repro-social serve-sim`` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass
import time

import numpy as np

from ..errors import ServingError
from ..graphs.graph import SocialGraph
from ..rng import ensure_rng
from .records import RecommendationRequest
from .service import RecommendationService


def synthetic_workload(
    graph: SocialGraph,
    num_requests: int,
    *,
    zipf_exponent: float = 1.1,
    seed: "int | np.random.Generator | None" = None,
) -> list[RecommendationRequest]:
    """Draw a popularity-skewed request stream over the graph's users.

    Users are ranked by a random permutation and drawn with probability
    proportional to ``rank^-zipf_exponent`` — the classic web-traffic
    skew: a small head of users issues most requests (and exercises the
    cache), a long tail appears once.
    """
    if num_requests < 0:
        raise ServingError(f"num_requests must be non-negative, got {num_requests}")
    if graph.num_nodes == 0:
        raise ServingError("cannot generate a workload for an empty graph")
    if zipf_exponent < 0:
        raise ServingError(f"zipf_exponent must be non-negative, got {zipf_exponent}")
    rng = ensure_rng(seed)
    ranks = np.arange(1, graph.num_nodes + 1, dtype=np.float64)
    weights = ranks ** (-zipf_exponent)
    weights /= weights.sum()
    identity = rng.permutation(graph.num_nodes)  # which user holds each rank
    drawn = rng.choice(graph.num_nodes, size=int(num_requests), p=weights)
    return [RecommendationRequest(user=int(identity[rank])) for rank in drawn]


@dataclass(frozen=True)
class ReplaySummary:
    """Aggregate statistics from one :func:`replay` run."""

    num_requests: int
    num_served: int
    num_rejected: int
    wall_seconds: float
    requests_per_second: float
    cache_hit_rate: float
    total_epsilon_spent: float
    unique_users: int
    graph_mutations: int

    def render(self) -> str:
        """Human-readable multi-line summary for CLI output."""
        return "\n".join(
            [
                f"  requests:        {self.num_requests}",
                f"  served:          {self.num_served}",
                f"  rejected:        {self.num_rejected} (budget exhausted)",
                f"  unique users:    {self.unique_users}",
                f"  wall time:       {self.wall_seconds:.3f} s",
                f"  throughput:      {self.requests_per_second:,.0f} recs/sec",
                f"  cache hit rate:  {self.cache_hit_rate:.1%}",
                f"  epsilon spent:   {self.total_epsilon_spent:.2f} (all users)",
                f"  graph mutations: {self.graph_mutations}",
            ]
        )


def replay(
    service: RecommendationService,
    requests: list[RecommendationRequest],
    *,
    batch_size: int = 64,
    mutate_every: int = 0,
    seed: "int | np.random.Generator | None" = None,
) -> ReplaySummary:
    """Drive the service through a request stream in vectorized batches.

    Parameters
    ----------
    service:
        The service under test; its budgets and cache accumulate.
    requests:
        Single-recommendation requests (``k == 1``), e.g. from
        :func:`synthetic_workload`.
    batch_size:
        Requests per :meth:`~RecommendationService.recommend_batch` call.
    mutate_every:
        If positive, add one random edge to the graph after every
        ``mutate_every`` batches — simulating live graph churn and
        exercising version-keyed cache invalidation.
    seed:
        Randomness for the mutation edges only.
    """
    if batch_size < 1:
        raise ServingError(f"batch_size must be >= 1, got {batch_size}")
    if any(request.k != 1 for request in requests):
        raise ServingError("replay only supports single-recommendation requests")
    if any(request.epsilon is not None for request in requests):
        raise ServingError(
            "replay batches share the service's default epsilon; "
            "per-request epsilon overrides are not supported"
        )
    rng = ensure_rng(seed)
    graph = service.graph
    served = rejected = hits = mutations = 0
    epsilon_spent = 0.0
    users_seen: set[int] = set()
    started = time.perf_counter()
    for batch_index in range(0, len(requests), batch_size):
        batch = requests[batch_index:batch_index + batch_size]
        responses = service.recommend_batch([request.user for request in batch])
        for response in responses:
            users_seen.add(response.user)
            if response.served:
                served += 1
                hits += int(response.cache_hit)
                epsilon_spent += response.epsilon_spent
            else:
                rejected += 1
        if mutate_every and (batch_index // batch_size + 1) % mutate_every == 0:
            u, v = (int(x) for x in rng.integers(0, graph.num_nodes, size=2))
            if graph.try_add_edge(u, v):
                mutations += 1
    wall = time.perf_counter() - started
    return ReplaySummary(
        num_requests=len(requests),
        num_served=served,
        num_rejected=rejected,
        wall_seconds=wall,
        requests_per_second=len(requests) / wall if wall > 0 else float("inf"),
        cache_hit_rate=hits / served if served else 0.0,
        total_epsilon_spent=epsilon_spent,
        unique_users=len(users_seen),
        graph_mutations=mutations,
    )
