"""Per-user privacy budget management.

Appendix A of the paper notes the lower bounds only strengthen under
multiple recommendations; operationally that means every user needs a
lifetime epsilon budget and every release must be charged against it.
Under basic sequential composition a user's privacy loss is one number,
the running sum of charged epsilons, so :class:`BudgetManager` keeps
exactly that — one spent float per user — and converts "would exceed"
conditions into :class:`~repro.errors.BudgetExhaustedError` *before* any
randomness is drawn: a refused request spends nothing and leaks nothing.
The per-charge history lives in the privacy ledger
(:class:`~repro.telemetry.ledger.PrivacyLedger`) and the write-ahead log.
"""

from __future__ import annotations

from ..errors import BudgetExhaustedError, DurabilityError, PrivacyParameterError


def _validated_budget(budget: float, what: str) -> float:
    if not budget > 0:
        raise PrivacyParameterError(f"{what} must be positive, got {budget}")
    return float(budget)


class BudgetManager:
    """Per-user lifetime epsilon spend under one default budget.

    Parameters
    ----------
    default_budget:
        Lifetime epsilon granted to every user not configured explicitly.
    overrides:
        Optional ``{user: budget}`` map for users with non-default budgets
        (e.g. users who opted into a stricter privacy tier). Each override
        must be positive, like ``default_budget``.
    """

    def __init__(
        self,
        default_budget: float,
        overrides: "dict[int, float] | None" = None,
    ) -> None:
        self.default_budget = _validated_budget(default_budget, "default_budget")
        self._overrides = {
            int(u): _validated_budget(b, f"budget override for user {u}")
            for u, b in (overrides or {}).items()
        }
        self._spent: dict[int, float] = {}  # first-charge order

    def budget_for(self, user: int) -> float:
        """The lifetime budget configured for ``user``."""
        return self._overrides.get(int(user), self.default_budget)

    def spent(self, user: int) -> float:
        """Epsilon charged to ``user`` so far (0 if never charged)."""
        return self._spent.get(int(user), 0.0)

    def remaining(self, user: int) -> float:
        """Budget the user has left (full budget if never charged)."""
        return self.budget_for(user) - self.spent(user)

    def can_spend(self, user: int, epsilon: float) -> bool:
        """Whether a release of ``epsilon`` fits the user's remaining budget."""
        if epsilon < 0:
            raise PrivacyParameterError(f"epsilon must be non-negative, got {epsilon}")
        return epsilon <= self.remaining(user) + 1e-12

    def check(self, user: int, epsilon: float) -> None:
        """Raise :class:`BudgetExhaustedError` unless ``epsilon`` is affordable."""
        if not self.can_spend(user, epsilon):
            raise BudgetExhaustedError(
                user=int(user),
                needed=float(epsilon),
                remaining=self.remaining(user),
                budget=self.budget_for(user),
            )

    def charge(self, user: int, epsilon: float) -> None:
        """Record an actually-made release; raise if it would overspend."""
        user = int(user)
        if not self.can_spend(user, epsilon):
            raise PrivacyParameterError(
                f"release of epsilon={epsilon} exceeds user {user}'s remaining "
                f"budget {self.remaining(user):.6f} (spent {self.spent(user):.6f} "
                f"of {self.budget_for(user)})"
            )
        self._spent[user] = self.spent(user) + float(epsilon)

    def users_seen(self) -> list[int]:
        """Users charged at least once, in first-charge order."""
        return list(self._spent)

    # ------------------------------------------------------------------
    # Durable serialization
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """The budget configuration plus every user's spent (pickle-friendly).

        The ``spent`` map keeps first-charge order, so a restored manager
        is indistinguishable from the original, :meth:`users_seen`
        included.
        """
        return {
            "default_budget": self.default_budget,
            "overrides": dict(self._overrides),
            "spent": dict(self._spent),
        }

    def restore_state(self, state: dict) -> None:
        """Replace every user's spent with the one in an :meth:`export_state` dict.

        The budget *configuration* (default and overrides) must match this
        manager's: recovery rebuilds the service from the recorded config,
        so a mismatch means the snapshot and the builder disagree about
        how much epsilon users were ever granted — refusing loudly beats
        silently serving under the wrong budgets.
        """
        overrides = {int(u): float(b) for u, b in state["overrides"].items()}
        if float(state["default_budget"]) != self.default_budget or overrides != self._overrides:
            raise DurabilityError(
                "durable budget state was recorded under a different budget "
                f"configuration (default {state['default_budget']!r} vs "
                f"{self.default_budget!r})"
            )
        self._spent = {int(user): float(spent) for user, spent in state["spent"].items()}
