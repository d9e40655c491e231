"""Privacy-budget accounting via sequential composition.

The paper analyzes a *single* recommendation; real systems recommend
repeatedly, and every release consumes privacy budget. Appendix A notes
that the lower bounds only strengthen for multiple recommendations —
this module provides the bookkeeping side: a
:class:`PrivacyAccountant` that tracks cumulative epsilon under basic
sequential composition (the sum of per-release epsilons, the
composition theorem the paper's differential-privacy references [7, 8]
establish) and refuses releases that would exceed the budget. The
serving layer needs only the running sum, so
:class:`~repro.serving.budgets.BudgetManager` keeps one spent float per
user instead; this class is the per-release Appendix A API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PrivacyParameterError


@dataclass(frozen=True)
class BudgetEntry:
    """One recorded privacy expenditure."""

    epsilon: float
    label: str


@dataclass
class PrivacyAccountant:
    """Tracks cumulative epsilon under basic sequential composition.

    Parameters
    ----------
    budget:
        Total epsilon available. ``spend`` raises once the budget would be
        exceeded, so a recommendation pipeline cannot silently leak more
        than intended.

    Examples
    --------
    >>> accountant = PrivacyAccountant(budget=1.0)
    >>> accountant.spend(0.4, "friend suggestion #1")
    >>> accountant.remaining
    0.6
    >>> accountant.can_spend(0.7)
    False
    """

    budget: float
    entries: list[BudgetEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.budget > 0:
            raise PrivacyParameterError(f"budget must be positive, got {self.budget}")

    @property
    def spent(self) -> float:
        """Total epsilon consumed so far."""
        return float(sum(entry.epsilon for entry in self.entries))

    @property
    def remaining(self) -> float:
        """Budget still available."""
        return self.budget - self.spent

    def can_spend(self, epsilon: float) -> bool:
        """Whether a release of ``epsilon`` fits in the remaining budget."""
        if epsilon < 0:
            raise PrivacyParameterError(f"epsilon must be non-negative, got {epsilon}")
        return epsilon <= self.remaining + 1e-12

    def spend(self, epsilon: float, label: str = "") -> None:
        """Record a release; raise if it would exceed the budget."""
        if epsilon < 0:
            raise PrivacyParameterError(f"epsilon must be non-negative, got {epsilon}")
        if not self.can_spend(epsilon):
            raise PrivacyParameterError(
                f"release of epsilon={epsilon} exceeds remaining budget "
                f"{self.remaining:.6f} (spent {self.spent:.6f} of {self.budget})"
            )
        self.entries.append(BudgetEntry(epsilon=float(epsilon), label=label))

    def split_evenly(self, releases: int) -> float:
        """Per-release epsilon that spends the *remaining* budget evenly.

        The natural way to run k recommendations under one budget; combined
        with Theorem 2 it quantifies how quickly repeated recommendations
        become useless: each of k releases gets budget/k, and accuracy
        decays accordingly.
        """
        if releases < 1:
            raise PrivacyParameterError(f"releases must be >= 1, got {releases}")
        return self.remaining / releases
