"""Online serving layer: batched, budget-aware private recommendations.

The paper analyzes one private recommendation in isolation; this package
turns the library's mechanisms into a *service* that answers repeated
requests from many users the way a production system must:

* :class:`RecommendationService` — ``recommend`` (one user, ``k``
  picks by peeling) and ``recommend_batch`` (one pick for each of many
  users) endpoints over a graph + utility + mechanism, every request
  admitted, drawn, charged, recorded and committed on one path; over a
  :class:`~repro.streaming.overlay.MutableSocialGraph` it also applies
  graph mutations and journals to a write-ahead log;
* :class:`BudgetManager` — per-user lifetime epsilon budgets (sequential
  composition: ``k`` picks cost ``k`` releases), refusing requests
  *before* any budget is spent; :class:`SlidingWindowAccountant` — the
  optional per-user budget over a trailing window of the event clock;
* :class:`UtilityCache` — utility vectors keyed by the graph's mutation
  version, so an unchanged graph never recomputes;
* batched hot path — the shared :mod:`repro.compute` kernels in float64,
  run inline: a batch's missing utility rows from one sparse kernel
  call (one product for common neighbors, sparse walk rows for
  weighted paths), exponential-mechanism sampling in one inverse-CDF
  pass from two uniforms per request;
* :func:`synthetic_workload` / :func:`replay` — skewed traffic generation
  and a replay harness reporting throughput, cache, and budget statistics.
"""

from .budgets import BudgetManager, SlidingWindowAccountant
from .cache import CacheStats, UtilityCache
from .records import (
    STATUS_NO_CANDIDATES,
    STATUS_REJECTED,
    STATUS_SERVED,
    RecommendationResponse,
)
from .service import RecommendationService
from .workload import ReplaySummary, replay, synthetic_workload

__all__ = [
    "BudgetManager",
    "CacheStats",
    "RecommendationResponse",
    "RecommendationService",
    "ReplaySummary",
    "STATUS_NO_CANDIDATES",
    "STATUS_REJECTED",
    "STATUS_SERVED",
    "SlidingWindowAccountant",
    "UtilityCache",
    "replay",
    "synthetic_workload",
]
