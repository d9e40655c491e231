"""The response type and status values of the serving layer.

The paper's model produces a single sampled node; a service wraps that in
an explicit response envelope so every release is attributable: who
asked, what was returned, how much privacy budget it cost and which
mechanism produced it. The per-request trail a deployment needs to
*prove* its cumulative epsilon claims is the privacy ledger's row
(:class:`~repro.telemetry.ledger.PrivacyLedger`).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Response status values.
STATUS_SERVED = "served"
STATUS_REJECTED = "rejected"
#: The user has no candidate: every other node is already a neighbor.
STATUS_NO_CANDIDATES = "no_candidates"


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
