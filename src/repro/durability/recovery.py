"""Recovery: rebuild a bit-identical service from snapshot + WAL tail.

The algorithm (``restore = snapshot + WAL tail replay``):

1. Load the newest *readable* snapshot — corrupt ones are skipped, not
   fatal (an older snapshot plus a longer tail replay is still exact;
   with no readable snapshot at all the full log replays from an empty
   service). The one unforgivable outcome is silently serving from reset
   budgets, so when neither a snapshot nor a log exists recovery raises.
2. Build a fresh service (caller-supplied, from the recorded config) and
   install the snapshot state: epoch-base CSR + deltas (adopting the
   recorded ``(epoch, version)`` with **no version bump**), resident
   cache vectors, per-user lifetime spend, sliding-window deques, RNG
   state, request counter, clocks.
3. Scan the *whole* write-ahead log from offset zero. Every commit
   record's ledger rows rebuild the privacy ledger (snapshots do not
   store it — the log is its one durable home); records at or past the
   snapshot's ``wal_offset`` additionally replay mechanically: edge
   records re-apply through the normal mutation path (auto-compaction
   points reproduce themselves, because they are a deterministic
   function of the event stream), commit records re-charge budgets
   row by row and adopt the sealed RNG/counter/clock state. Stamps must
   be monotone and window expiries must match the retained entries they
   pop — violations raise :class:`~repro.errors.RecoveryError` naming
   the exact byte offset.
4. Truncate any torn tail record (the crash signature), reopen the log
   in append mode, and attach it — journaling resumes exactly where the
   valid prefix ends.

A batch whose commit record was lost is *gone* from durable state —
re-running it from the previous commit's RNG state re-executes it
bit-identically (at-least-once serving, exactly-once accounting).
:meth:`RecoveryReport.resume_index` maps the recovered cursor back to a
position in the original event stream so a driver can resume.

:func:`replay_stream_durable` is the durable counterpart of
:func:`repro.streaming.engine.replay_stream`: same interleaving rules
(flush pending queries before every mutation, flush at ``batch_size``),
plus write-ahead journaling and periodic snapshots taken only between
batches (never mid-batch, so batch segmentation — and therefore RNG
stream spawning — is identical with and without durability).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import DurabilityError, RecoveryError, ReproError
from ..streaming.events import StreamEvent
from ..telemetry.ledger import (
    KIND_CHARGE,
    KIND_REFUSAL,
    KIND_WINDOW_CHARGE,
    KIND_WINDOW_EXPIRY,
)
from .snapshot import install_state, load_latest_snapshot, snapshot_service
from .wal import RECORD_COMMIT, RECORD_EDGE, WAL_FILENAME, WriteAheadLog, read_wal

__all__ = [
    "CONFIG_FILENAME",
    "DurableReplaySummary",
    "RecoveryReport",
    "recover",
    "replay_stream_durable",
]

#: Side file holding the service-construction config (written once by
#: :func:`replay_stream_durable`, read by the ``recover`` CLI).
CONFIG_FILENAME = "config.json"

_ROW_KINDS = frozenset(
    (KIND_CHARGE, KIND_REFUSAL, KIND_WINDOW_CHARGE, KIND_WINDOW_EXPIRY)
)


def _retype_row(raw, path: str, offset: int) -> tuple:
    """One WAL ledger row back to the exact live tuple shape and types."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 9:
        raise RecoveryError(
            f"malformed ledger row in commit record: {raw!r:.80}",
            path=path, offset=offset,
        )
    kind = raw[0]
    if kind not in _ROW_KINDS:
        raise RecoveryError(
            f"unknown ledger row kind {kind!r} in commit record",
            path=path, offset=offset,
        )
    return (
        str(kind), int(raw[1]), float(raw[2]), str(raw[3]),
        int(raw[4]), int(raw[5]), float(raw[6]), str(raw[7]), float(raw[8]),
    )


def _apply_commit_rows(service, rows, *, path: str, offset: int) -> None:
    """Mechanically re-charge budgets from one commit's ledger rows.

    Two passes: charges first (lifetime and window, in row order), then
    window expiries. Live, expiries interleave *inside* the spend loop —
    but a window deque only ever appends at the tail and expires at the
    head, so charging everything then popping the expiries in order
    lands on the identical final deque, and lets each expiry be verified
    against the exact entry it claims to pop.
    """
    budgets = service.budgets
    expiries = []
    for row in rows:
        kind = row[0]
        if kind == KIND_CHARGE:
            # Same additions in the same order as the live run, so every
            # user's spent comes back bit for bit.
            budgets.charge(row[1], row[2])
        elif kind == KIND_WINDOW_CHARGE:
            accountant = service._window_accountant(row[1])
            # spend() minus the expiry pops (handled in pass two) and
            # minus the admission check (the live run admitted it).
            accountant._clock = max(accountant._clock, row[6])
            accountant._entries.append((accountant._clock, row[2]))
        elif kind == KIND_WINDOW_EXPIRY:
            expiries.append(row)
        # KIND_REFUSAL: nothing was charged; the row only rebuilds the ledger.
    for row in expiries:
        accountant = service._window_accountants.get(row[1])
        if accountant is None or not accountant._entries:
            raise RecoveryError(
                f"window expiry for user {row[1]} with no retained window entry",
                path=path, offset=offset,
            )
        head_time, head_epsilon = accountant._entries[0]
        if abs(head_time - row[6]) > 1e-9 or abs(head_epsilon - row[2]) > 1e-9:
            raise RecoveryError(
                f"window expiry ({row[6]}, {row[2]}) does not match user "
                f"{row[1]}'s oldest retained entry ({head_time}, {head_epsilon})",
                path=path, offset=offset,
            )
        accountant._entries.popleft()


def _adopt_commit_state(service, state, *, path: str, offset: int) -> None:
    """Adopt the engine scalars sealed into one commit record."""
    if not isinstance(state, dict):
        raise RecoveryError(
            "malformed engine state in commit record",
            path=path, offset=offset,
        )
    recorded = int(state["mutations_seen"])
    if recorded != service.mutation_events_seen:
        raise RecoveryError(
            f"commit record sealed after {recorded} mutation events but the "
            f"replayed log carries {service.mutation_events_seen}",
            path=path, offset=offset,
        )
    service._rng.bit_generator.state = state["rng"]
    service._next_request_id = int(state["req"])
    service.clock = float(state["clock"])


@dataclass
class RecoveryReport:
    """What :func:`recover` rebuilt and where it left the durable state."""

    service: object                 #: the recovered RecommendationService (WAL attached)
    directory: Path
    snapshot_path: "Path | None"    #: snapshot restored from (None = full replay)
    snapshot_events_done: int       #: stream position the snapshot froze
    wal_records: int                #: complete records scanned (whole log)
    tail_records: int               #: records mechanically replayed
    truncated_at: "int | None"      #: offset of the torn tail removed, if any
    skipped_snapshots: "list[tuple[Path, str]]" = field(default_factory=list)
    config: "dict | None" = None    #: construction config recorded in the state

    @property
    def mutations_seen(self) -> int:
        return self.service.mutation_events_seen

    @property
    def requests_done(self) -> int:
        return self.service._next_request_id

    def resume_index(self, events) -> int:
        """Index into ``events`` where a resumed replay must continue.

        Durable work is always an exact stream prefix (the driver
        flushes pending queries before every mutation and commits whole
        batches), so the prefix containing exactly ``mutations_seen``
        mutation events and ``requests_done`` query events is unique.
        A stream whose composition cannot produce that prefix is not the
        stream this log recorded — that is corruption, and it raises.
        """
        want_mutations = self.mutations_seen
        want_queries = self.requests_done
        mutations = queries = 0
        for index, event in enumerate(events):
            if mutations == want_mutations and queries == want_queries:
                return index
            if event.is_mutation:
                if mutations >= want_mutations:
                    raise RecoveryError(
                        f"recovered state ({want_mutations} mutations, "
                        f"{want_queries} queries) is not a prefix of this "
                        f"event stream (extra mutation at index {index})"
                    )
                mutations += 1
            else:
                if queries >= want_queries:
                    raise RecoveryError(
                        f"recovered state ({want_mutations} mutations, "
                        f"{want_queries} queries) is not a prefix of this "
                        f"event stream (extra query at index {index})"
                    )
                queries += 1
        if mutations == want_mutations and queries == want_queries:
            return len(events)
        raise RecoveryError(
            f"event stream ends before the recovered prefix "
            f"({mutations}/{want_mutations} mutations, "
            f"{queries}/{want_queries} queries)"
        )


def recover(
    directory: "str | Path",
    build_service,
    *,
    sync_every: int = 64,
) -> RecoveryReport:
    """Rebuild a service from a durability directory, bit-identically.

    ``build_service`` is a zero-argument callable returning a fresh
    :class:`~repro.serving.service.RecommendationService` over a
    :class:`~repro.streaming.overlay.MutableSocialGraph`, constructed with
    the *same parameters* as the one that wrote the state (the CLI reads
    them from the recorded config). It must come back with no WAL
    attached and (when telemetry is given) an empty ledger — recovery
    fills both. On success the returned report's service has the
    reopened log attached and is ready to serve; pass the report's
    :meth:`~RecoveryReport.resume_index` to
    :func:`replay_stream_durable` to continue a stream.
    """
    directory = Path(directory)
    wal_path = directory / WAL_FILENAME
    loaded = load_latest_snapshot(directory)
    if loaded.state is None and not wal_path.exists():
        raise RecoveryError(
            "nothing to recover: no readable snapshot and no write-ahead log"
            + (
                f" ({len(loaded.skipped)} corrupt snapshot(s) skipped)"
                if loaded.skipped
                else ""
            ),
            path=str(directory),
        )

    service = build_service()
    if service.wal is not None:
        raise DurabilityError(
            "build_service must return a service without a write-ahead log "
            "attached; recovery attaches the reopened log itself"
        )
    if service.telemetry is not None and len(service.telemetry.ledger):
        raise DurabilityError(
            "build_service must return a service with an empty privacy "
            "ledger; recovery rebuilds it from the write-ahead log"
        )

    replay_from = 0
    snapshot_events = 0
    config = None
    if loaded.state is not None:
        install_state(service, loaded.state, path=loaded.path)
        replay_from = int(loaded.state["wal_offset"])
        snapshot_events = int(loaded.state["events_done"])
        config = loaded.state.get("config")

    records, valid_end, truncated_at = [], 0, None
    path_str = str(wal_path)
    if wal_path.exists():
        records, valid_end, truncated_at = read_wal(wal_path, 0)
    if replay_from > valid_end:
        raise RecoveryError(
            f"snapshot references WAL offset {replay_from} but the log's "
            f"valid prefix ends at {valid_end}",
            path=path_str, offset=replay_from,
        )

    ledger_rows: "list[tuple]" = []
    last_stamp = (0, 0)
    tail_records = 0
    for record in records:
        tag = record.payload[0]
        if tag == RECORD_EDGE:
            if record.offset >= replay_from:
                tail_records += 1
                _, kind, event_time, u, v = record.payload
                try:
                    service.apply_edge_event(
                        StreamEvent(
                            time=float(event_time), kind=str(kind),
                            u=int(u), v=int(v),
                        )
                    )
                except ReproError as error:
                    raise RecoveryError(
                        f"edge replay failed ({error})",
                        path=path_str, offset=record.offset,
                    ) from error
            continue
        # Commit record: rows rebuild the ledger everywhere; past the
        # snapshot offset they also re-charge the budgets and the
        # sealed state is adopted.
        rows = [_retype_row(raw, path_str, record.offset) for raw in record.payload[1]]
        for row in rows:
            stamp = (row[4], row[5])
            if stamp < last_stamp:
                raise RecoveryError(
                    f"ledger rows carry out-of-order (epoch, version) stamps: "
                    f"{stamp} after {last_stamp}",
                    path=path_str, offset=record.offset,
                )
            last_stamp = stamp
        ledger_rows.extend(rows)
        if record.offset >= replay_from:
            tail_records += 1
            try:
                _apply_commit_rows(
                    service, rows, path=path_str, offset=record.offset
                )
                _adopt_commit_state(
                    service, record.payload[2], path=path_str, offset=record.offset
                )
            except RecoveryError:
                raise
            except (ReproError, KeyError, TypeError, ValueError) as error:
                raise RecoveryError(
                    f"commit replay failed ({error})",
                    path=path_str, offset=record.offset,
                ) from error

    if service.telemetry is not None and ledger_rows:
        service.telemetry.ledger.append_batch(ledger_rows)

    # Drop the torn tail before reopening for append, so the log stays a
    # clean frame sequence; the lost record's work re-executes on resume.
    if truncated_at is not None:
        with open(wal_path, "r+b") as handle:
            handle.truncate(valid_end)
    wal = WriteAheadLog(wal_path, sync_every=sync_every)
    service.attach_wal(wal)

    return RecoveryReport(
        service=service,
        directory=directory,
        snapshot_path=loaded.path,
        snapshot_events_done=snapshot_events,
        wal_records=len(records),
        tail_records=tail_records,
        truncated_at=truncated_at,
        skipped_snapshots=list(loaded.skipped),
        config=config,
    )


@dataclass(frozen=True)
class DurableReplaySummary:
    """Aggregate statistics from one :func:`replay_stream_durable` run.

    Counters cover the processed slice (``events[start_index:]``) only;
    ``events_done`` is the absolute stream position reached, so a
    resumed run reports where it *ended*, not just how much it did.
    """

    num_events: int
    num_queries: int
    num_served: int
    num_rejected: int
    num_mutations: int
    snapshots_taken: int
    events_done: int
    wall_seconds: float
    final_epoch: int
    final_version: int

    def render(self) -> str:
        """Human-readable multi-line summary for CLI output."""
        return "\n".join(
            [
                f"  events:          {self.num_events} "
                f"({self.num_mutations} mutations, {self.num_queries} queries)",
                f"  served:          {self.num_served}",
                f"  rejected:        {self.num_rejected}",
                f"  snapshots:       {self.snapshots_taken}",
                f"  stream position: {self.events_done}",
                f"  wall time:       {self.wall_seconds:.3f} s",
                f"  final stamp:     (epoch={self.final_epoch}, "
                f"version={self.final_version})",
            ]
        )


def replay_stream_durable(
    service,
    events,
    *,
    directory: "str | Path",
    batch_size: int = 64,
    snapshot_every: "int | None" = None,
    sync_every: int = 64,
    config: "dict | None" = None,
    fault_injector=None,
    on_response=None,
    start_index: int = 0,
    last_snapshot_events: "int | None" = None,
) -> DurableReplaySummary:
    """Drive a service through an event stream with durable state.

    Identical interleaving to :func:`~repro.streaming.engine.
    replay_stream` — pending queries flush before every mutation and at
    ``batch_size`` — so recommendations are bit-identical to the
    non-durable replay when snapshots are off. A snapshot is taken after
    any event that leaves ``snapshot_every`` or more events behind the
    last one *and* no queries pending (snapshots never split a batch, so
    enabling them cannot change batch segmentation either).

    ``start_index``/``last_snapshot_events`` are the resume knobs: pass
    :meth:`RecoveryReport.resume_index` (and the report's
    ``snapshot_events_done``) to continue a recovered service through
    the same stream. When the service has no WAL yet (fresh start) one
    is created at ``directory``; a recovered service arrives with its
    reopened log already attached.
    """
    if batch_size < 1:
        raise DurabilityError(f"batch_size must be >= 1, got {batch_size}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if service.wal is None:
        service.attach_wal(
            WriteAheadLog(
                directory / WAL_FILENAME,
                sync_every=sync_every,
                fault_injector=fault_injector,
            )
        )
    if config is not None:
        config_path = directory / CONFIG_FILENAME
        if not config_path.exists():
            config_path.write_text(
                json.dumps(config, indent=2, sort_keys=True) + "\n"
            )

    served = rejected = queries = mutations = snapshots_taken = 0
    events_done = int(start_index)
    last_snapshot = (
        events_done if last_snapshot_events is None else int(last_snapshot_events)
    )
    pending: "list[int]" = []
    pending_times: "list[float]" = []

    def flush() -> None:
        nonlocal served, rejected
        if not pending:
            return
        for response in service.recommend_batch(pending, at=pending_times):
            if response.served:
                served += 1
            else:
                rejected += 1
            if on_response is not None:
                on_response(response)
        pending.clear()
        pending_times.clear()

    def maybe_snapshot() -> None:
        nonlocal last_snapshot, snapshots_taken
        if snapshot_every is None or pending:
            return
        if events_done - last_snapshot < snapshot_every:
            return
        snapshot_service(
            service,
            directory,
            events_done=events_done,
            config=config,
            fault_injector=fault_injector,
        )
        last_snapshot = events_done
        snapshots_taken += 1

    started = time.perf_counter()
    for event in events[start_index:]:
        if event.is_mutation:
            mutations += 1
            flush()
            service.apply_edge_event(event)
        else:
            queries += 1
            pending.append(event.user)
            pending_times.append(event.time)
            if len(pending) >= batch_size:
                flush()
        events_done += 1
        maybe_snapshot()
    flush()
    service.wal.sync()
    wall = time.perf_counter() - started
    return DurableReplaySummary(
        num_events=len(events) - int(start_index),
        num_queries=queries,
        num_served=served,
        num_rejected=rejected,
        num_mutations=mutations,
        snapshots_taken=snapshots_taken,
        events_done=events_done,
        wall_seconds=wall,
        final_epoch=service.epoch,
        final_version=service.graph.version,
    )
