"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Subclasses are grouped by subsystem: graph manipulation,
utility computation, mechanism configuration, and bound evaluation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Base class for errors raised by the graph engine."""


class NodeError(GraphError):
    """A node id is out of range or otherwise invalid."""

    def __init__(self, node: object, num_nodes: int | None = None) -> None:
        detail = f"invalid node {node!r}"
        if num_nodes is not None:
            detail += f" (graph has {num_nodes} nodes, valid ids are 0..{num_nodes - 1})"
        super().__init__(detail)
        self.node = node
        self.num_nodes = num_nodes


class EdgeError(GraphError):
    """An edge operation is invalid (self-loop, duplicate, or missing edge)."""

    def __init__(self, u: object, v: object, reason: str) -> None:
        super().__init__(f"invalid edge ({u!r}, {v!r}): {reason}")
        self.u = u
        self.v = v
        self.reason = reason


class GraphFormatError(GraphError):
    """An edge-list file or serialized graph could not be parsed."""


class SharedGraphError(GraphError):
    """A shared-memory / memory-mapped graph backing store was misused.

    Covers lifecycle violations (using a closed store, reading the
    descriptor of an unsealed segment, mutating a frozen shared-backed
    graph) and unknown backings or invalid segment sizes.
    """


class UtilityError(ReproError):
    """A utility function was misconfigured or applied to an invalid input."""


class MechanismError(ReproError):
    """A recommendation mechanism was misconfigured or misused."""


class PrivacyParameterError(MechanismError):
    """An invalid privacy parameter (epsilon, sensitivity, or mixing weight)."""


class BoundError(ReproError):
    """A theoretical bound was evaluated outside its domain of validity."""


class ExperimentError(ReproError):
    """An experiment configuration or run is invalid."""


class ComputeError(ReproError):
    """A compute plan or dtype was misconfigured or misused."""


class DatasetError(ReproError):
    """A dataset replica could not be constructed with the given parameters."""


class ServingError(ReproError):
    """The online serving layer was misconfigured or received a bad request."""


class TelemetryError(ReproError):
    """The telemetry layer was misconfigured or misused."""


class EdgeServiceError(ReproError):
    """The network edge (HTTP service boundary) was misconfigured or misused.

    Distinct from :class:`EdgeError`, which concerns *graph* edges; this
    one belongs to :mod:`repro.edge`, the asyncio HTTP front end. Raised
    for lifecycle violations (submitting to a stopped coalescer, starting
    a server twice) and invalid edge configuration (non-positive batch
    sizes, flush deadlines, or admission limits) — never for per-request
    conditions, which surface as typed HTTP 4xx/5xx responses instead.
    """


class LedgerInconsistencyError(TelemetryError):
    """The privacy ledger disagrees with an accountant's balance.

    Raised by :meth:`~repro.telemetry.ledger.PrivacyLedger.assert_consistent`
    when the sum of ledger entries for some user does not reconcile with
    that user's accountant — which means a release was charged but not
    recorded (or vice versa), i.e. the audit trail can no longer prove
    the system's cumulative epsilon claims.
    """


class DurabilityError(ReproError):
    """The durability layer (WAL, snapshots, recovery) was misconfigured or misused."""


class RecoveryError(DurabilityError):
    """Durable state could not be restored into a consistent service.

    Raised when the on-disk state is corrupt in a way recovery cannot
    repair by falling back: a complete WAL record whose checksum does not
    match, a snapshot that fails validation with no earlier readable
    snapshot *and* no replayable log, out-of-order ``(epoch, version)``
    stamps in the journal, or accountant state that contradicts the
    recorded rows. ``path``/``offset`` (when known) name the exact file
    and byte offset of the first bad record, so the operator inspects the
    corruption instead of guessing — the one thing recovery must never do
    is silently continue serving from reset privacy budgets.
    """

    def __init__(
        self,
        message: str,
        *,
        path: "str | None" = None,
        offset: "int | None" = None,
    ) -> None:
        detail = message
        if path is not None:
            detail += f" [file: {path}"
            if offset is not None:
                detail += f", offset: {offset}"
            detail += "]"
        elif offset is not None:
            detail += f" [offset: {offset}]"
        super().__init__(detail)
        self.path = path
        self.offset = offset


class BudgetExhaustedError(ServingError):
    """A recommendation request would exceed the user's privacy budget.

    Raised *before* any budget is spent or any sample is drawn, so the
    user's spent in :class:`~repro.serving.budgets.BudgetManager` stays
    consistent: it only ever reflects recommendations actually made.
    """

    def __init__(self, user: int, needed: float, remaining: float, budget: float) -> None:
        super().__init__(
            f"user {user} needs epsilon={needed:g} but only {remaining:.6f} "
            f"of budget {budget:g} remains"
        )
        self.user = user
        self.needed = needed
        self.remaining = remaining
        self.budget = budget
