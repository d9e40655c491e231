"""Request and response types for the serving layer.

The paper's model produces a single sampled node; a service wraps that in
explicit request/response envelopes so every release is attributable:
who asked, what was returned, how much privacy budget it cost and which
mechanism produced it. The per-request trail a deployment needs to
*prove* its cumulative epsilon claims is the privacy ledger's row
(:class:`~repro.telemetry.ledger.PrivacyLedger`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ServingError

#: Response status values.
STATUS_SERVED = "served"
STATUS_REJECTED = "rejected"
#: The user has no candidate: every other node is already a neighbor.
STATUS_NO_CANDIDATES = "no_candidates"


@dataclass(frozen=True)
class RecommendationRequest:
    """One user's ask for ``k`` private recommendations.

    ``epsilon`` optionally overrides the service's default per-release
    epsilon (e.g. a client willing to spend more budget for a better
    answer); ``None`` means "use the service default".
    """

    user: int
    k: int = 1
    epsilon: "float | None" = None
    request_id: "int | None" = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ServingError(f"k must be >= 1, got {self.k}")
        if self.epsilon is not None and not self.epsilon > 0:
            raise ServingError(f"epsilon override must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class RecommendationResponse:
    """What the service returned for one request.

    ``recommendations`` is empty and ``status`` is ``"rejected"`` when the
    user's remaining privacy budget could not cover the release, or
    ``"no_candidates"`` when there is no node to recommend (batch
    endpoints refuse per-user instead of failing the whole batch).
    """

    user: int
    recommendations: tuple[int, ...]
    epsilon_spent: float
    mechanism: str
    status: str = STATUS_SERVED
    cache_hit: bool = False

    @property
    def served(self) -> bool:
        """Whether the request was actually answered."""
        return self.status == STATUS_SERVED
