"""Tests for the privacy ledger: entries, totals, reconciliation."""

from __future__ import annotations

import pytest

from repro.errors import LedgerInconsistencyError
from repro.serving.budgets import BudgetManager
from repro.streaming.engine import SlidingWindowAccountant
from repro.telemetry import (
    KIND_CHARGE,
    KIND_REFUSAL,
    KIND_WINDOW_CHARGE,
    KIND_WINDOW_EXPIRY,
    PrivacyLedger,
)


def row(kind, user, epsilon=0.0, *, mechanism="", stamp=(0, 0), clock=0.0,
        label="", needed=0.0):
    """One ready-typed ledger row: the LedgerEntry fields minus ``seq``."""
    epoch, version = stamp
    return (kind, user, float(epsilon), mechanism, epoch, version,
            float(clock), label, float(needed))


class TestEntries:
    def test_charges_get_dense_sequence_numbers(self):
        ledger = PrivacyLedger()
        ledger.append_batch([
            row(KIND_CHARGE, 1, 0.5, mechanism="exponential", stamp=(0, 3), clock=1.0),
            row(KIND_CHARGE, 2, 0.25),
        ])
        first, second = ledger.entries()
        assert (first.seq, second.seq) == (0, 1)
        assert first.kind == KIND_CHARGE
        assert (first.epoch, first.version) == (0, 3)
        assert len(ledger) == 2

    def test_refusal_spends_nothing_but_keeps_needed(self):
        ledger = PrivacyLedger()
        ledger.append_batch([row(KIND_REFUSAL, 7, needed=0.5, mechanism="exponential")])
        (entry,) = ledger.entries()
        assert entry.kind == KIND_REFUSAL
        assert entry.epsilon == 0.0
        assert entry.needed == 0.5
        assert ledger.num_refusals() == 1
        assert ledger.totals(KIND_CHARGE) == {}

    def test_window_kinds_are_distinct_streams(self):
        ledger = PrivacyLedger()
        ledger.append_batch([
            row(KIND_CHARGE, 1, 0.5),
            row(KIND_WINDOW_CHARGE, 1, 0.5, clock=1.0),
            row(KIND_WINDOW_EXPIRY, 1, 0.5, clock=11.0),
        ])
        assert ledger.totals(KIND_CHARGE) == {1: 0.5}
        assert ledger.totals(KIND_WINDOW_CHARGE) == {1: 0.5}
        assert ledger.totals(KIND_WINDOW_EXPIRY) == {1: 0.5}

    def test_entries_filter_by_kind_in_arrival_order(self):
        ledger = PrivacyLedger()
        ledger.append_batch([row(KIND_CHARGE, 1, 0.1), row(KIND_REFUSAL, 2)])
        ledger.append_batch([row(KIND_CHARGE, 3, 0.2)])
        assert [entry.user for entry in ledger.entries(KIND_CHARGE)] == [1, 3]
        assert [entry.seq for entry in ledger.entries()] == [0, 1, 2]

    def test_as_dicts_roundtrips_every_field(self):
        ledger = PrivacyLedger()
        ledger.append_batch([
            row(KIND_CHARGE, 4, 0.5, mechanism="laplace", stamp=(2, 9), clock=3.5, label="x"),
        ])
        (row_dict,) = ledger.as_dicts()
        assert row_dict == {
            "seq": 0, "kind": "charge", "user": 4, "epsilon": 0.5,
            "mechanism": "laplace", "epoch": 2, "version": 9, "clock": 3.5,
            "label": "x", "needed": 0.0,
        }


class TestLifetimeReconciliation:
    def test_matching_ledger_and_accountants_pass(self):
        budgets = BudgetManager(10.0)
        ledger = PrivacyLedger()
        for user, epsilon in ((1, 0.5), (1, 0.25), (2, 1.0)):
            budgets.charge(user, epsilon)
            ledger.append_batch([row(KIND_CHARGE, user, epsilon)])
        ledger.assert_consistent(budgets=budgets)

    def test_unrecorded_charge_is_detected(self):
        budgets = BudgetManager(10.0)
        ledger = PrivacyLedger()
        budgets.charge(1, 0.5)  # spent but never journaled
        with pytest.raises(LedgerInconsistencyError):
            ledger.assert_consistent(budgets=budgets)

    def test_phantom_ledger_entry_is_detected(self):
        budgets = BudgetManager(10.0)
        ledger = PrivacyLedger()
        ledger.append_batch([row(KIND_CHARGE, 1, 0.5)])  # journaled but never spent
        with pytest.raises(LedgerInconsistencyError):
            ledger.assert_consistent(budgets=budgets)

    def test_refusals_do_not_affect_reconciliation(self):
        budgets = BudgetManager(1.0)
        ledger = PrivacyLedger()
        ledger.append_batch([row(KIND_REFUSAL, 1, needed=2.0)])
        ledger.assert_consistent(budgets=budgets)


class TestWindowReconciliation:
    def test_net_window_spend_matches_retained(self):
        accountant = SlidingWindowAccountant(1.0, window=10.0)
        ledger = PrivacyLedger()
        expired_total = 0
        for now in (0.0, 5.0, 20.0):
            expired = accountant.spend(0.4, now)
            expired_total += len(expired)
            ledger.append_batch(
                [row(KIND_WINDOW_EXPIRY, 5, epsilon, clock=when) for when, epsilon in expired]
                + [row(KIND_WINDOW_CHARGE, 5, 0.4, clock=now)]
            )
        assert expired_total  # the jump to t=20 expired the early entries
        ledger.assert_consistent(window_accountants={5: accountant})

    def test_missing_expiry_entry_is_detected(self):
        accountant = SlidingWindowAccountant(1.0, window=10.0)
        ledger = PrivacyLedger()
        accountant.spend(0.4, 0.0)
        ledger.append_batch([row(KIND_WINDOW_CHARGE, 5, 0.4, clock=0.0)])
        accountant.spend(0.4, 20.0)  # expires the first entry, never journaled
        ledger.append_batch([row(KIND_WINDOW_CHARGE, 5, 0.4, clock=20.0)])
        with pytest.raises(LedgerInconsistencyError):
            ledger.assert_consistent(window_accountants={5: accountant})

    def test_unknown_user_with_nonzero_net_is_detected(self):
        ledger = PrivacyLedger()
        ledger.append_batch([row(KIND_WINDOW_CHARGE, 9, 0.4)])
        with pytest.raises(LedgerInconsistencyError):
            ledger.assert_consistent(window_accountants={})


class TestSlidingWindowExpiry:
    def test_retained_spent_tracks_physical_entries(self):
        accountant = SlidingWindowAccountant(1.0, window=10.0)
        accountant.spend(0.3, 0.0)
        accountant.spend(0.3, 5.0)
        assert accountant.retained_spent == pytest.approx(0.6)
        accountant.spend(0.3, 20.0)  # both earlier entries expire
        assert accountant.retained_spent == pytest.approx(0.3)

    def test_spend_returns_each_dropped_entry_once(self):
        accountant = SlidingWindowAccountant(1.0, window=10.0)
        assert accountant.spend(0.3, 0.0) == []
        assert accountant.spend(0.3, 1.0) == []
        assert accountant.spend(0.3, 50.0) == [(0.0, 0.3), (1.0, 0.3)]
        assert accountant.spend(0.3, 51.0) == []
        assert accountant.retained_spent == pytest.approx(0.6)
