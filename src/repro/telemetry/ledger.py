"""Append-only privacy-spend ledger, reconcilable against the budgets.

The paper's whole contribution is a privacy/accuracy trade-off, which
makes epsilon the system's scarcest resource. Sequential composition
(Appendix A) needs one number per user — the running sum of charged
epsilons, which :class:`~repro.serving.budgets.BudgetManager` keeps —
and one auditable record per decision. A :class:`PrivacyLedger` is that
record: every charge, every refusal, and every sliding-window expiry
lands here as one row stamped with the graph's ``(epoch, version)`` and
the event clock (for service decisions, the request id), in arrival
order. It is the only per-request record the serving layer keeps.

Balances and journal are kept honest against each other by
:meth:`PrivacyLedger.assert_consistent`: the summed lifetime charges per
user must equal that user's spent balance, and the net window spend
(charges minus expiries) must equal what each
:class:`~repro.serving.budgets.SlidingWindowAccountant` physically
retains. A mismatch raises
:class:`~repro.errors.LedgerInconsistencyError` — it means a release
happened that the audit trail cannot prove, the exact failure mode a
private recommender must never ship with. The tests run this check after
mixed serve/mutate/refuse replays; the durability
layer (:mod:`repro.durability`) persists exactly these entries — the
service's one flush hands the same row tuples to
:meth:`~repro.durability.wal.WriteAheadLog.buffer_rows`, so a ledger
rebuilt by recovery is entry-for-entry identical to the live one and
:meth:`~repro.serving.service.RecommendationService.verify_ledger`
reconciles after a restore.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from ..errors import LedgerInconsistencyError

__all__ = [
    "KIND_CHARGE",
    "KIND_EDGE_REJECT",
    "KIND_REFUSAL",
    "KIND_WINDOW_CHARGE",
    "KIND_WINDOW_EXPIRY",
    "LedgerEntry",
    "PrivacyLedger",
]

#: Entry kinds. Lifetime spends are ``charge``; sliding-window accounting
#: adds a parallel ``window_charge``/``window_expiry`` pair per release
#: (a window entry stops counting once the clock passes it — the expiry
#: records that hand-back). ``refusal`` entries always carry epsilon 0
#: spent; ``needed`` preserves what the refused release would have cost.
#: ``edge_reject`` entries record transport-level rejections at the HTTP
#: edge (queue full, in-flight cap, draining) that never reached an
#: accountant: they spend nothing and never affect reconciliation, but
#: they close the audit gap between privacy refusals and dropped
#: connections — every request a client saw refused has a row somewhere.
KIND_CHARGE = "charge"
KIND_REFUSAL = "refusal"
KIND_WINDOW_CHARGE = "window_charge"
KIND_WINDOW_EXPIRY = "window_expiry"
KIND_EDGE_REJECT = "edge_reject"


class LedgerEntry(NamedTuple):
    """One immutable privacy-accounting event.

    A named tuple rather than a frozen dataclass: the ledger appends one
    of these per request on the serving hot path, and tuple construction
    is several times cheaper than a frozen dataclass's per-field
    ``object.__setattr__`` init while keeping the same immutability.
    """

    seq: int              #: ledger-assigned arrival index (dense, from 0)
    kind: str             #: one of the ``KIND_*`` constants
    user: int
    epsilon: float        #: spent (charge), returned (expiry), or 0 (refusal)
    mechanism: str
    epoch: int            #: graph compaction epoch at record time
    version: int          #: graph mutation version at record time
    clock: float          #: event/service clock at record time
    label: str = ""
    needed: float = 0.0   #: for refusals: the epsilon the release would have cost

    def as_dict(self) -> dict:
        return {
            "seq": self.seq, "kind": self.kind, "user": self.user,
            "epsilon": self.epsilon, "mechanism": self.mechanism,
            "epoch": self.epoch, "version": self.version, "clock": self.clock,
            "label": self.label, "needed": self.needed,
        }


class PrivacyLedger:
    """Thread-safe append-only journal of privacy-accounting events.

    Internally the journal holds *rows* — plain tuples of the
    :class:`LedgerEntry` fields minus ``seq`` — and materializes entries
    only when read (``seq`` is just a row's index, so it never needs
    storing). Appends happen once per request on the serving hot path
    while reads happen once per scrape or reconciliation, so the entry
    construction cost belongs on the read side.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rows: "list[tuple]" = []  # LedgerEntry fields minus seq

    def append_batch(self, rows) -> None:
        """Journal many events under one lock acquisition.

        ``rows`` is an iterable of ``(kind, user, epsilon, mechanism,
        epoch, version, clock, label, needed)`` tuples in arrival order —
        the :class:`LedgerEntry` fields minus ``seq``, **already
        correctly typed** (``user``/``epoch``/``version`` int, epsilons
        and ``clock`` float). The serving layer buffers its per-request
        events as these rows and flushes them here once per batch, making
        the flush a single lock acquisition and one list extend — the
        per-entry method-dispatch cost is measurable at thousands of
        requests per second.
        """
        with self._lock:
            self._rows.extend(rows)

    def edge_reject(
        self, user: int, *, reason: str = "", mechanism: str = "",
        stamp: "tuple[int, int]" = (0, 0), clock: float = 0.0,
    ) -> LedgerEntry:
        """Record a transport-level rejection at the HTTP edge.

        ``reason`` (``"queue_full"``, ``"inflight_cap"``, ``"draining"``)
        lands in the entry's ``label``. Spends nothing and reconciles
        trivially — the row exists so the edge can prove that *no*
        refused client was ever dropped without a trace.
        """
        epoch, version = stamp
        row = (
            KIND_EDGE_REJECT, int(user), 0.0, mechanism,
            int(epoch), int(version), float(clock), reason, 0.0,
        )
        with self._lock:
            seq = len(self._rows)
            self._rows.append(row)
        return tuple.__new__(LedgerEntry, (seq,) + row)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def entries(self, kind: "str | None" = None) -> "tuple[LedgerEntry, ...]":
        """Entries in arrival order (optionally one kind only)."""
        with self._lock:
            rows = list(self._rows)
        new = tuple.__new__
        if kind is None:
            return tuple(
                new(LedgerEntry, (seq,) + row) for seq, row in enumerate(rows)
            )
        return tuple(
            new(LedgerEntry, (seq,) + row)
            for seq, row in enumerate(rows)
            if row[0] == kind
        )

    def raw_rows(self) -> "list[tuple]":
        """The underlying rows (:class:`LedgerEntry` fields minus ``seq``).

        The durability layer compares these against the rows recovered
        from the write-ahead log: equality here is exactly the
        "entry-for-entry identical ledger" recovery guarantee, without
        materializing entries on either side.
        """
        with self._lock:
            return list(self._rows)

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def totals(self, kind: str = KIND_CHARGE) -> "dict[int, float]":
        """Per-user epsilon sums for one entry kind."""
        sums: "dict[int, float]" = {}
        for entry in self.entries(kind):
            sums[entry.user] = sums.get(entry.user, 0.0) + entry.epsilon
        return sums

    def num_refusals(self) -> int:
        return len(self.entries(KIND_REFUSAL))

    def as_dicts(self) -> "list[dict]":
        """JSON-able entry list (the ``--telemetry-out`` dump format)."""
        return [entry.as_dict() for entry in self.entries()]

    # ------------------------------------------------------------------
    # Reconciliation
    # ------------------------------------------------------------------
    def assert_consistent(
        self,
        budgets=None,
        window_accountants: "dict[int, object] | None" = None,
        atol: float = 1e-9,
    ) -> None:
        """Reconcile the journal against live budget balances.

        Parameters
        ----------
        budgets:
            A :class:`~repro.serving.budgets.BudgetManager` (or anything
            with ``users_seen()`` and ``spent(user)``). Every user's
            summed ``charge`` entries must equal that user's lifetime
            spent, both ways: a charged-but-unrecorded release and a
            recorded-but-uncharged entry are equally inconsistent.
        window_accountants:
            ``{user: SlidingWindowAccountant}``. Each user's net window
            spend (``window_charge`` minus ``window_expiry`` sums) must
            equal the epsilon the accountant physically retains
            (:attr:`~repro.serving.budgets.SlidingWindowAccountant.
            retained_spent`).

        Raises :class:`~repro.errors.LedgerInconsistencyError` on the
        first mismatch; returns ``None`` when everything reconciles.
        """
        if budgets is not None:
            charged = self.totals(KIND_CHARGE)
            users = set(charged) | {int(u) for u in budgets.users_seen()}
            for user in sorted(users):
                ledger_total = charged.get(user, 0.0)
                spent = float(budgets.spent(user))
                if abs(ledger_total - spent) > atol:
                    raise LedgerInconsistencyError(
                        f"user {user}: ledger charges sum to {ledger_total!r} "
                        f"but the lifetime budget has spent {spent!r}"
                    )
        if window_accountants is not None:
            window_charged = self.totals(KIND_WINDOW_CHARGE)
            window_expired = self.totals(KIND_WINDOW_EXPIRY)
            users = (
                set(window_charged) | set(window_expired)
                | {int(u) for u in window_accountants}
            )
            for user in sorted(users):
                net = window_charged.get(user, 0.0) - window_expired.get(user, 0.0)
                accountant = window_accountants.get(user)
                retained = 0.0 if accountant is None else float(accountant.retained_spent)
                if abs(net - retained) > atol:
                    raise LedgerInconsistencyError(
                        f"user {user}: net window spend in the ledger is {net!r} "
                        f"but the window accountant retains {retained!r}"
                    )
