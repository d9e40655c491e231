"""Online serving layer: batched, budget-aware private recommendations.

The paper analyzes one private recommendation in isolation; this package
turns the library's mechanisms into a *service* that answers repeated
requests from many users the way a production system must:

* :class:`RecommendationService` — ``recommend`` / ``recommend_batch`` /
  ``recommend_top_k`` endpoints over a graph + utility + mechanism;
* :class:`BudgetManager` — per-user lifetime epsilon budgets (sequential
  composition), refusing requests *before* any budget is spent;
* :class:`UtilityCache` — utility vectors keyed by the graph's mutation
  version, so an unchanged graph never recomputes;
* batched hot path — the shared :mod:`repro.compute` kernels, run inline
  in :class:`~repro.compute.plan.ComputePlan` chunks (``chunk_size=`` on
  the service): utility rows from one sparse product per chunk,
  exponential-mechanism sampling via per-request Gumbel-max streams —
  bit-identical results for every chunk size;
* :func:`synthetic_workload` / :func:`replay` — skewed traffic generation
  and a replay harness reporting throughput, cache, and budget statistics.
"""

from .budgets import BudgetManager
from .cache import CacheStats, UtilityCache
from .records import (
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
    "STATUS_REJECTED",
    "STATUS_SERVED",
    "UtilityCache",
    "replay",
    "synthetic_workload",
]
