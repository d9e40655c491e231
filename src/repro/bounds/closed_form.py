"""Closed-form comparison of the Laplace and Exponential mechanisms at n = 2
(Appendix E, Lemma 3).

Lemma 3: for two candidates with utilities ``u1 >= u2`` and i.i.d. Laplace
noise of scale ``b = 1/epsilon`` (location 0),

``P[u1 + X1 > u2 + X2] = 1 - (1/2) e^{-eps d} - (eps d / 4) e^{-eps d}``

with ``d = u1 - u2``. The paper derives this via the characteristic function
of the Laplace difference (the density of ``X1 + X2`` is
``(eps/4)(1 + eps|x|) e^{-eps |x|}``) and notes it is, to their knowledge,
the first explicit closed form. The Exponential mechanism instead picks
candidate 1 with probability ``e^{eps u1} / (e^{eps u1} + e^{eps u2})`` —
a logistic in ``d`` — so the two mechanisms are *not* isomorphic, even
though their accuracies are experimentally indistinguishable (Section 7.2).

Sensitivity generalization: with utility sensitivity ``Delta f`` the
effective parameter is ``eps/Delta f`` everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import BoundError


def laplace_win_probability(u1: float, u2: float, epsilon: float, sensitivity: float = 1.0) -> float:
    """Lemma 3's closed form for ``P[candidate 1 wins]`` under Laplace noise."""
    if epsilon <= 0:
        raise BoundError(f"epsilon must be positive, got {epsilon}")
    if sensitivity <= 0:
        raise BoundError(f"sensitivity must be positive, got {sensitivity}")
    if u1 < u2:
        return 1.0 - laplace_win_probability(u2, u1, epsilon, sensitivity)
    z = (epsilon / sensitivity) * (u1 - u2)
    # Factored as 1 - tail with tail <= 1/2: subtracting the two tail
    # terms one by one rounds tiny positive gaps below their limit of 1/2.
    return 1.0 - 0.5 * math.exp(-z) * (1.0 + 0.5 * z)


def exponential_win_probability(u1: float, u2: float, epsilon: float, sensitivity: float = 1.0) -> float:
    """Exponential-mechanism probability of candidate 1 at n = 2 (logistic)."""
    if epsilon <= 0:
        raise BoundError(f"epsilon must be positive, got {epsilon}")
    if sensitivity <= 0:
        raise BoundError(f"sensitivity must be positive, got {sensitivity}")
    z = (epsilon / sensitivity) * (u1 - u2)
    # Stable logistic: 1 / (1 + e^{-z}).
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    return math.exp(z) / (1.0 + math.exp(z))


def laplace_difference_pdf(x: float, epsilon: float) -> float:
    """Density of ``X1 - X2`` (equivalently ``X1 + X2``) at ``x``.

    From the proof of Lemma 3 (via formula 859.011 of Dwight's tables):
    ``f(x) = (eps/4) (1 + eps |x|) e^{-eps |x|}``. Symmetric in ``x``.
    """
    if epsilon <= 0:
        raise BoundError(f"epsilon must be positive, got {epsilon}")
    z = epsilon * abs(x)
    return 0.25 * epsilon * (1.0 + z) * math.exp(-z)


def laplace_difference_cdf(x: float, epsilon: float) -> float:
    """CDF of ``X1 - X2``: ``1 - (1/4) e^{-eps x}(2 + eps x)`` for ``x >= 0``."""
    if epsilon <= 0:
        raise BoundError(f"epsilon must be positive, got {epsilon}")
    if x < 0:
        return 1.0 - laplace_difference_cdf(-x, epsilon)
    z = epsilon * x
    return 1.0 - 0.25 * math.exp(-z) * (2.0 + z)


@dataclass(frozen=True)
class MechanismComparison:
    """Side-by-side n = 2 win probabilities for one utility gap."""

    gap: float
    epsilon: float
    laplace: float
    exponential: float

    @property
    def difference(self) -> float:
        """Laplace minus Exponential; non-zero values witness non-equivalence."""
        return self.laplace - self.exponential


def compare_mechanisms_two_candidates(
    gaps: "list[float]", epsilon: float, sensitivity: float = 1.0
) -> list[MechanismComparison]:
    """Evaluate both closed forms over a sweep of utility gaps.

    The paper invites the reader to "verify the two are not equivalent
    through value substitution"; this function is that verification, used by
    the Appendix E benchmark and the property tests (the difference is zero
    at gap 0, positive for moderate gaps, and vanishes as the gap grows).
    """
    return [
        MechanismComparison(
            gap=float(gap),
            epsilon=float(epsilon),
            laplace=laplace_win_probability(gap, 0.0, epsilon, sensitivity),
            exponential=exponential_win_probability(gap, 0.0, epsilon, sensitivity),
        )
        for gap in gaps
    ]
