"""Durable state for long-running services: WAL, snapshots, recovery.

The serving and streaming layers keep privacy budgets — the one piece of
state that must *never* be lost or double-counted — purely in memory.
This package makes that state durable without touching the hot path's
complexity: a write-ahead log journals every edge event and, at each
batch commit, the ledger rows and sealed RNG/counter/clock state
(:mod:`~repro.durability.wal`); periodic snapshots bound recovery time
(:mod:`~repro.durability.snapshot`); and recovery rebuilds a service
bit-identical to the uninterrupted run — same recommendations, same
budget balances, same ledger, entry for entry
(:mod:`~repro.durability.recovery`). :mod:`~repro.durability.faults`
supplies the deterministic crash-injection harness that proves it.
"""

from .faults import CrashPoint, SimulatedCrash
from .recovery import (
    CONFIG_FILENAME,
    DurableReplaySummary,
    RecoveryReport,
    recover,
    replay_stream_durable,
)
from .snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_MAGIC,
    capture_state,
    install_state,
    list_snapshots,
    load_latest_snapshot,
    read_snapshot,
    snapshot_path,
    snapshot_service,
    write_snapshot,
)
from .wal import (
    RECORD_COMMIT,
    RECORD_EDGE,
    WAL_FILENAME,
    WalRecord,
    WriteAheadLog,
    read_wal,
)

__all__ = [
    "CONFIG_FILENAME",
    "CrashPoint",
    "DurableReplaySummary",
    "RECORD_COMMIT",
    "RECORD_EDGE",
    "RecoveryReport",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_MAGIC",
    "SimulatedCrash",
    "WAL_FILENAME",
    "WalRecord",
    "WriteAheadLog",
    "capture_state",
    "install_state",
    "list_snapshots",
    "load_latest_snapshot",
    "read_snapshot",
    "read_wal",
    "recover",
    "replay_stream_durable",
    "snapshot_path",
    "snapshot_service",
    "write_snapshot",
]
