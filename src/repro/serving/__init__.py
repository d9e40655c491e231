"""Online serving layer: batched, budget-aware private recommendations.

The paper analyzes one private recommendation in isolation; this package
turns the library's mechanisms into a *service* that answers repeated
requests from many users the way a production system must:

* :class:`RecommendationService` — ``recommend`` (one user, ``k``
  picks by peeling) and ``recommend_batch`` (one pick for each of many
  users) endpoints over a graph + utility + mechanism;
* :class:`BudgetManager` — per-user lifetime epsilon budgets (sequential
  composition: ``k`` picks cost ``k`` releases), refusing requests
  *before* any budget is spent;
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

from .budgets import BudgetManager
from .cache import CacheStats, UtilityCache
from .records import (
    STATUS_NO_CANDIDATES,
    STATUS_REJECTED,
    STATUS_SERVED,
    RecommendationRequest,
    RecommendationResponse,
)
from .service import RecommendationService
from .workload import ReplaySummary, replay, synthetic_workload

__all__ = [
    "BudgetManager",
    "CacheStats",
    "RecommendationRequest",
    "RecommendationResponse",
    "RecommendationService",
    "ReplaySummary",
    "STATUS_NO_CANDIDATES",
    "STATUS_REJECTED",
    "STATUS_SERVED",
    "UtilityCache",
    "replay",
    "synthetic_workload",
]
