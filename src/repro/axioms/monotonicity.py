"""Monotonicity property checker (Definition 4).

An algorithm is monotonic when higher-utility candidates receive strictly
higher recommendation probability. The Exponential and Laplace mechanisms
satisfy it, and their probabilities are exact; sampled estimates
(:meth:`~repro.mechanisms.base.Mechanism.estimate_probabilities`) can
locally invert, which the checker tolerates via a slack parameter sized
to sampling error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mechanisms.base import Mechanism
from ..utility.base import UtilityVector


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of a monotonicity check on one (mechanism, vector) pair."""

    mechanism_name: str
    num_pairs_checked: int
    violations: int
    worst_violation: float
    slack: float

    @property
    def holds(self) -> bool:
        """Whether no utility-ordered pair had its probabilities inverted."""
        return self.violations == 0


def check_probability_monotonicity(
    utilities: np.ndarray,
    probabilities: np.ndarray,
    slack: float = 0.0,
    strict: bool = False,
) -> MonotonicityReport:
    """Verify ``u_i > u_j  =>  p_i > p_j - slack`` over all distinct pairs.

    With ``strict=False`` (default) only *inversions* are violations —
    suitable for Monte-Carlo estimates where ties are sampling artifacts.
    With ``strict=True`` the check enforces Definition 4 literally: a tie
    ``p_i == p_j`` between distinct utility levels is a violation too (this
    is how R_best, which gives probability 0 to every non-argmax candidate,
    fails the paper's monotonicity requirement).

    Works on the *distinct utility levels* rather than all O(n^2) pairs:
    sort by utility, compare the maximum probability of each lower level
    against the minimum probability of each strictly higher level.
    """
    utilities = np.asarray(utilities, dtype=np.float64)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    order = np.argsort(utilities)
    sorted_u = utilities[order]
    sorted_p = probabilities[order]
    levels, starts = np.unique(sorted_u, return_index=True)
    violations = 0
    worst = 0.0
    pairs = 0
    # min probability at-or-above each level boundary, scanned from the top
    for index in range(len(levels) - 1):
        low_slice = slice(starts[index], starts[index + 1])
        high_slice = slice(starts[index + 1], None)
        max_low = float(sorted_p[low_slice].max())
        min_high = float(sorted_p[high_slice].min())
        pairs += 1
        gap = max_low - min_high
        if strict:
            # Definition 4 literally: higher utility must mean strictly
            # higher probability, so a tie (gap == 0) also violates.
            violated = gap >= -slack
        else:
            violated = gap > slack
        if violated:
            violations += 1
            worst = max(worst, gap)
    return MonotonicityReport(
        mechanism_name="(raw probabilities)",
        num_pairs_checked=pairs,
        violations=violations,
        worst_violation=worst,
        slack=float(slack),
    )


def check_mechanism_monotonicity(
    mechanism: Mechanism,
    vector: UtilityVector,
    slack: float = 0.0,
) -> MonotonicityReport:
    """Monotonicity of a mechanism's exact probabilities."""
    probabilities = mechanism.probabilities(vector)
    report = check_probability_monotonicity(vector.values, probabilities, slack=slack)
    return MonotonicityReport(
        mechanism_name=mechanism.name,
        num_pairs_checked=report.num_pairs_checked,
        violations=report.violations,
        worst_violation=report.worst_violation,
        slack=report.slack,
    )
