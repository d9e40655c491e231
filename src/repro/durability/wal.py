"""Write-ahead log for recommendation services: framed, checksummed, replayable.

The log is a single append-only file of length-prefixed records::

    [u32 payload_length (LE)] [u32 crc32(payload) (LE)] [payload: JSON]

Two payload shapes exist:

* **edge records** ``["e", kind, time, u, v]`` — one per mutation event,
  written *before* the in-memory apply (write-ahead), so a mutation the
  service acted on is always recoverable;
* **commit records** ``["c", rows, state]`` — one per endpoint call
  (a recommendation batch, a single or top-k request, a refusal).
  ``rows`` are the privacy-ledger rows (the
  :class:`~repro.telemetry.ledger.LedgerEntry` fields minus ``seq``) the
  call produced, in ledger arrival order; ``state`` is the service's
  post-call :meth:`~repro.serving.service.RecommendationService.
  durable_state` — RNG bit-generator state, request counter, event
  clock. A call is atomic: its charges exist durably if and only if its
  commit record does, so a crash can never land half a batch's epsilon.
  The dropped batch is re-executed bit-identically on resume (the
  *previous* commit's RNG state is exactly where the crashed run started
  it), which is what turns at-least-once serving into exactly-once
  accounting.

Rows accumulate in memory via :meth:`WriteAheadLog.buffer_rows` (the
serving layer's buffered-flush choke points call it, so the hot path
pays one list extend) and are framed only at :meth:`WriteAheadLog.
commit` time. Durability is fsync-batched: the file is opened unbuffered
(every record reaches the OS immediately) and ``fsync`` runs every
``sync_every`` records rather than per record — the standard group-commit
trade, bounding loss to the tail the filesystem had not yet flushed,
which recovery already tolerates.

Reading tolerates exactly one kind of damage without error: a torn
*tail* (the final record cut short by a crash mid-write). Anything else
— a complete record with a bad checksum, an unparseable payload — raises
:class:`~repro.errors.RecoveryError` naming the byte offset, because
interior corruption means the log cannot be trusted at all.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import NamedTuple

from ..errors import DurabilityError, RecoveryError

__all__ = [
    "RECORD_COMMIT",
    "RECORD_EDGE",
    "WAL_FILENAME",
    "WalRecord",
    "WriteAheadLog",
    "read_wal",
]

#: Canonical WAL file name inside a durability directory.
WAL_FILENAME = "wal.log"

#: Payload tags (first JSON array element) of the two record shapes.
RECORD_EDGE = "e"
RECORD_COMMIT = "c"

_HEADER = struct.Struct("<II")  # payload length, crc32(payload)


class WalRecord(NamedTuple):
    """One decoded WAL record with its byte extent in the file."""

    offset: int    #: byte offset of the record's header
    end: int       #: byte offset one past the record's payload
    payload: list  #: decoded JSON payload (``["e", ...]`` or ``["c", ...]``)

    @property
    def tag(self) -> str:
        return self.payload[0]


class WriteAheadLog:
    """Append-only record writer with CRC framing and batched fsync.

    Parameters
    ----------
    path:
        The log file; created (with parents) when absent, appended to
        when present — recovery reopens the same file after truncating a
        torn tail, so offsets keep growing across restarts.
    sync_every:
        ``fsync`` after this many appended records (and on every explicit
        :meth:`sync`). ``0`` disables periodic fsync entirely — tests
        only; a production service should keep the default.
    fault_injector:
        Optional crash hook (see :mod:`repro.durability.faults`): called
        with the file handle and the framed bytes before every record
        write, and allowed to write a torn prefix and raise. ``None`` in
        production.
    """

    def __init__(
        self,
        path: "str | Path",
        *,
        sync_every: int = 64,
        fault_injector=None,
    ) -> None:
        if sync_every < 0:
            raise DurabilityError(f"sync_every must be >= 0, got {sync_every}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Unbuffered: each framed record is one OS write, so the on-disk
        # (well, in-page-cache) prefix is always a whole number of our
        # frames plus at most one torn tail — the invariant read_wal's
        # tolerance is built on.
        self._file = open(self.path, "ab", buffering=0)
        self.sync_every = int(sync_every)
        self._fault_injector = fault_injector
        self._pending_rows: "list[tuple]" = []
        self._records_since_sync = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def buffer_rows(self, rows) -> None:
        """Stage ledger rows for the next :meth:`commit` (no I/O).

        The service's ``_flush_telemetry`` feeds this every ledger row —
        charges, refusals, window expiries and window charges — in
        exactly the order the rows reach the live
        :class:`~repro.telemetry.ledger.PrivacyLedger`, so a ledger
        rebuilt from the log is entry-for-entry identical. Rows are kept
        as given (the service hands over tuples; JSON writes them as
        arrays).
        """
        self._pending_rows.extend(rows)

    def log_edge(self, kind: str, time: float, u: int, v: int) -> None:
        """Append one edge-mutation record (called *before* the apply)."""
        self._append([RECORD_EDGE, kind, float(time), int(u), int(v)])

    def commit(self, state: dict) -> None:
        """Seal the staged rows plus the engine state into one atomic record."""
        rows, self._pending_rows = self._pending_rows, []
        self._append([RECORD_COMMIT, rows, state])

    def _append(self, payload_obj) -> None:
        if self._closed:
            raise DurabilityError(f"write-ahead log {self.path} is closed")
        payload = json.dumps(payload_obj, separators=(",", ":")).encode("utf-8")
        framed = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        if self._fault_injector is not None:
            # May write a torn prefix of `framed` and raise SimulatedCrash.
            self._fault_injector.on_wal_record(self._file, framed)
        self._file.write(framed)
        self._records_since_sync += 1
        if self.sync_every and self._records_since_sync >= self.sync_every:
            self.sync()

    def sync(self) -> None:
        """Force everything written so far to stable storage."""
        os.fsync(self._file.fileno())
        self._records_since_sync = 0

    def tail_offset(self) -> int:
        """Current end-of-log byte offset (where the next record lands)."""
        return self._file.tell()

    @property
    def pending_rows(self) -> int:
        """Rows staged but not yet committed (diagnostics only)."""
        return len(self._pending_rows)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_wal(
    path: "str | Path",
    offset: int = 0,
    *,
    strict: bool = False,
) -> "tuple[list[WalRecord], int, int | None]":
    """Decode records from ``offset`` to the end of the log.

    Returns ``(records, valid_end, truncated_at)``: the decoded records,
    the byte offset one past the last complete record, and the offset of
    a torn tail record (``None`` when the file ends cleanly). A torn
    tail — fewer bytes than its own header promises, the signature of a
    crash mid-write — is tolerated by default (recovery truncates it and
    re-executes the lost work); ``strict=True`` turns it into a
    :class:`~repro.errors.RecoveryError` naming the offset, for callers
    that must distinguish clean logs from crashed ones. A *complete*
    record whose CRC or JSON does not check out always raises: that is
    corruption, not a crash, and replaying past it would fabricate
    accounting history.
    """
    path = Path(path)
    if not path.exists():
        # A service that never wrote a record has no log file; an empty
        # scan is the honest answer (offset 0 is the only valid one).
        if offset:
            raise RecoveryError(
                f"scan offset {offset} into a write-ahead log that does not exist",
                path=str(path), offset=offset,
            )
        return [], 0, None
    data = path.read_bytes()
    size = len(data)
    if not 0 <= offset <= size:
        raise RecoveryError(
            f"scan offset {offset} outside the log (size {size})",
            path=str(path), offset=offset,
        )
    records: "list[WalRecord]" = []
    pos = int(offset)
    while pos < size:
        if pos + _HEADER.size > size:
            if strict:
                raise RecoveryError(
                    "torn record header at end of write-ahead log",
                    path=str(path), offset=pos,
                )
            return records, pos, pos
        length, crc = _HEADER.unpack_from(data, pos)
        end = pos + _HEADER.size + length
        if end > size:
            if strict:
                raise RecoveryError(
                    f"torn record payload at end of write-ahead log "
                    f"({size - pos - _HEADER.size} of {length} bytes present)",
                    path=str(path), offset=pos,
                )
            return records, pos, pos
        payload = data[pos + _HEADER.size:end]
        if zlib.crc32(payload) != crc:
            raise RecoveryError(
                "write-ahead log record failed its checksum",
                path=str(path), offset=pos,
            )
        try:
            obj = json.loads(payload)
        except ValueError as error:
            raise RecoveryError(
                f"write-ahead log record is not valid JSON ({error})",
                path=str(path), offset=pos,
            ) from None
        if (
            not isinstance(obj, list)
            or not obj
            or obj[0] not in (RECORD_EDGE, RECORD_COMMIT)
        ):
            raise RecoveryError(
                f"unknown write-ahead log record shape {obj!r:.80}",
                path=str(path), offset=pos,
            )
        records.append(WalRecord(pos, end, obj))
        pos = end
    return records, pos, None
