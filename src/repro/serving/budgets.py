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

:class:`SlidingWindowAccountant` is the second, optional budget: the
companion impossibility results for continual observation motivate
bounding the epsilon spent within any trailing window of the event
clock, not only over a lifetime. A service with ``window=`` set keeps
one per user, checked and charged beside the lifetime spend.
"""

from __future__ import annotations

from collections import deque

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


class SlidingWindowAccountant:
    """Epsilon accounting over a trailing window of the event clock.

    Unlike the lifetime :class:`~repro.serving.budgets.BudgetManager`
    spend, entries *expire*: a release recorded at time
    ``t`` stops counting against the budget once the clock passes
    ``t + window``. ``budget`` therefore bounds the spend inside every
    window-length interval — the budget-over-time regime of continual
    observation — rather than the all-time total.

    Reads (:meth:`spent` / :meth:`remaining` / :meth:`can_spend`) are
    *pure*: they filter entries against the queried time without
    advancing any clock, so probing a far-future time can never expire a
    spend that an earlier-timestamped query should still be charged for.
    Only :meth:`spend` moves state; its accounting clock is monotone —
    an out-of-order release is recorded at the latest time already seen,
    which keeps every release sequence's windowed spend bounded by
    ``budget`` under the accounting clock.
    """

    def __init__(self, budget: float, window: float) -> None:
        if not budget > 0:
            raise PrivacyParameterError(f"budget must be positive, got {budget}")
        if not window > 0:
            raise PrivacyParameterError(f"window must be positive, got {window}")
        self.budget = float(budget)
        self.window = float(window)
        self._entries: deque[tuple[float, float]] = deque()  # (time, epsilon)
        self._clock = float("-inf")

    @property
    def retained_spent(self) -> float:
        """Epsilon summed over every physically retained entry.

        Unlike :meth:`spent` this takes no ``now`` and applies no window
        filter — it is exactly "charges recorded minus entries expired",
        the quantity the privacy ledger's net window spend must match
        (:meth:`repro.telemetry.ledger.PrivacyLedger.assert_consistent`).
        """
        return float(sum(epsilon for _, epsilon in self._entries))

    def spent(self, now: float) -> float:
        """Epsilon still counting against the window at time ``now``.

        Pure: counts every retained entry newer than ``now - window``
        (including entries recorded at later accounting times — for a
        stale ``now`` that is the conservative direction).
        """
        horizon = float(now) - self.window
        return float(
            sum(epsilon for time, epsilon in self._entries if time > horizon)
        )

    def remaining(self, now: float) -> float:
        """Window budget left at time ``now`` (pure)."""
        return self.budget - self.spent(now)

    def can_spend(self, epsilon: float, now: float) -> bool:
        """Whether a release of ``epsilon`` fits the window at ``now`` (pure)."""
        if epsilon < 0:
            raise PrivacyParameterError(f"epsilon must be non-negative, got {epsilon}")
        return epsilon <= self.remaining(now) + 1e-12

    def spend(self, epsilon: float, now: float) -> "list[tuple[float, float]]":
        """Record a release at ``now``; return the ``(time, epsilon)`` entries it expired.

        Raises when the window cannot cover the release. The entry is
        recorded at ``max(now, latest accounting time)`` — the accounting
        clock never runs backwards — and entries a full window older than
        that clock are physically dropped (they can no longer affect any
        admission: admission checks count them only for ``now`` values at
        least a window behind the clock, where the monotone recording
        time makes the check conservative anyway). The dropped entries
        are returned oldest first, because the ledger must journal every
        hand-back: there is no other observable trace of the drop.
        """
        if not self.can_spend(epsilon, now):
            raise PrivacyParameterError(
                f"release of epsilon={epsilon} exceeds remaining window budget "
                f"{self.remaining(now):.6f} (window={self.window}, budget={self.budget})"
            )
        self._clock = max(self._clock, float(now))
        self._entries.append((self._clock, float(epsilon)))
        horizon = self._clock - self.window
        expired = []
        while self._entries and self._entries[0][0] <= horizon:
            expired.append(self._entries.popleft())
        return expired
