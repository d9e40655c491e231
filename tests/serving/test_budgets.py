"""Tests for per-user privacy budget management."""

from __future__ import annotations

import pytest

from repro.errors import BudgetExhaustedError, DurabilityError, PrivacyParameterError
from repro.serving import BudgetManager


class TestConfiguration:
    def test_default_budget_applies_to_everyone(self):
        budgets = BudgetManager(2.0)
        assert budgets.budget_for(0) == 2.0
        assert budgets.budget_for(999) == 2.0

    def test_overrides_win(self):
        budgets = BudgetManager(2.0, overrides={7: 0.5})
        assert budgets.budget_for(7) == 0.5
        assert budgets.remaining(7) == 0.5

    def test_budget_must_be_positive(self):
        with pytest.raises(PrivacyParameterError):
            BudgetManager(0.0)


class TestSpending:
    def test_remaining_before_first_touch(self):
        budgets = BudgetManager(3.0)
        assert budgets.remaining(4) == 3.0
        assert budgets.users_seen() == []

    def test_charge_reduces_remaining(self):
        budgets = BudgetManager(3.0)
        budgets.charge(4, 1.0)
        assert budgets.spent(4) == 1.0
        assert budgets.remaining(4) == pytest.approx(2.0)
        assert budgets.users_seen() == [4]

    def test_checks_allocate_nothing(self):
        budgets = BudgetManager(1.0)
        assert budgets.can_spend(4, 0.5)
        budgets.check(5, 0.5)
        with pytest.raises(BudgetExhaustedError):
            budgets.check(6, 2.0)
        assert budgets.spent(7) == 0.0
        assert budgets.users_seen() == []

    def test_overspend_charge_raises(self):
        budgets = BudgetManager(1.0)
        budgets.charge(0, 0.75)
        with pytest.raises(PrivacyParameterError, match="exceeds"):
            budgets.charge(0, 0.5)
        assert budgets.spent(0) == 0.75

    def test_state_roundtrips_in_first_charge_order(self):
        budgets = BudgetManager(3.0, overrides={2: 1.0})
        for user, epsilon in ((9, 0.5), (2, 0.25), (9, 0.5)):
            budgets.charge(user, epsilon)
        state = budgets.export_state()
        assert state == {
            "default_budget": 3.0, "overrides": {2: 1.0}, "spent": {9: 1.0, 2: 0.25},
        }
        clone = BudgetManager(3.0, overrides={2: 1.0})
        clone.restore_state(state)
        assert clone.users_seen() == [9, 2]
        assert clone.remaining(2) == budgets.remaining(2)

    def test_restore_refuses_a_different_configuration(self):
        state = BudgetManager(3.0).export_state()
        with pytest.raises(DurabilityError):
            BudgetManager(2.0).restore_state(state)

    def test_users_are_independent(self):
        budgets = BudgetManager(1.0)
        budgets.charge(0, 1.0)
        assert not budgets.can_spend(0, 0.5)
        assert budgets.can_spend(1, 0.5)


class TestExhaustion:
    def test_check_raises_with_details(self):
        budgets = BudgetManager(1.0)
        budgets.charge(2, 0.8)
        with pytest.raises(BudgetExhaustedError) as excinfo:
            budgets.check(2, 0.5)
        error = excinfo.value
        assert error.user == 2
        assert error.needed == 0.5
        assert error.remaining == pytest.approx(0.2)
        assert error.budget == 1.0

    def test_check_leaves_accountant_consistent(self):
        """A refused request must not record any expenditure."""
        budgets = BudgetManager(1.0)
        budgets.charge(2, 0.8)
        with pytest.raises(BudgetExhaustedError):
            budgets.check(2, 0.5)
        assert budgets.spent(2) == 0.8
        assert budgets.users_seen() == [2]

    def test_exact_budget_fits(self):
        budgets = BudgetManager(1.0)
        budgets.check(0, 1.0)  # should not raise
        budgets.charge(0, 1.0)
        assert budgets.remaining(0) == pytest.approx(0.0)
