"""Point-in-time snapshots of a :class:`StreamingService`'s durable state.

A snapshot bounds recovery time: restore loads the newest readable
snapshot and replays only the WAL *tail* written after it, instead of
the whole log. Each snapshot is one self-validating file::

    [8-byte magic] [u32 payload_length (LE)] [u32 crc32(payload) (LE)] [pickle payload]

written atomically (temp file + ``fsync`` + ``os.replace`` + directory
``fsync``), so a crash mid-snapshot leaves at most a stray ``*.tmp`` the
next writer ignores — never a half-written ``.snap`` that could be
mistaken for good state. Files are numbered ``snapshot-00000001.snap``
onward; readers prefer the newest and fall back over corrupt ones (the
budgets in an older snapshot plus a longer WAL replay are still exact —
corruption costs recovery time, never correctness).

The captured state is everything :mod:`repro.durability.recovery` needs
to rebuild the service bit-identically: the compacted epoch-base CSR
(via :meth:`MutableSocialGraph.csr_state`, restored *without* a version
bump so snapshot-resident cache entries stay valid — the same invariant
``compact()`` keeps live), the budget configuration with every user's
spent epsilon, sliding-window entry deques and clocks, resident utility-cache
vectors keyed by the graph version, the serving RNG's bit-generator
state, and the WAL offset at which the tail replay must start.
"""

from __future__ import annotations

import os
import pickle
import re
import struct
import zlib
from pathlib import Path
from typing import NamedTuple

from ..errors import RecoveryError
from .wal import WAL_FILENAME

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_MAGIC",
    "capture_state",
    "install_state",
    "list_snapshots",
    "load_latest_snapshot",
    "read_snapshot",
    "snapshot_path",
    "snapshot_service",
    "write_snapshot",
]

#: File magic: identifies a repro durability snapshot, any version.
SNAPSHOT_MAGIC = b"RPROSNAP"

#: Format tag embedded in the payload; bump on incompatible layout changes
#: (2: cached utility vectors pickle as dense or support form; 3: budgets
#: hold one spent float per user instead of per-release entry lists; 4:
#: cached rows are always float64, so a format-3 float32 row is never
#: restored into a float64 cache; 5: a patching cache's rows are
#: support-form with a sparse walk-count side-car, so a format-4 dense
#: side-car row is never restored into a cache that patches by merge).
SNAPSHOT_FORMAT = 5

_HEADER = struct.Struct("<II")  # payload length, crc32(payload)
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.snap$")


class LoadedSnapshot(NamedTuple):
    """Result of :func:`load_latest_snapshot`."""

    path: "Path | None"      #: newest readable snapshot, or None
    state: "dict | None"     #: its decoded payload, or None
    skipped: "list[tuple[Path, str]]"  #: newer-but-corrupt files (path, reason)


def snapshot_path(directory: "str | Path", index: int) -> Path:
    """The canonical file name for snapshot number ``index``."""
    return Path(directory) / f"snapshot-{index:08d}.snap"


def list_snapshots(directory: "str | Path") -> "list[Path]":
    """All snapshot files in ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = [
        (int(match.group(1)), entry)
        for entry in directory.iterdir()
        if (match := _SNAPSHOT_RE.match(entry.name)) is not None
    ]
    return [entry for _, entry in sorted(found)]


def write_snapshot(
    directory: "str | Path",
    state: dict,
    *,
    fault_injector=None,
) -> Path:
    """Atomically write ``state`` as the next numbered snapshot file.

    The fault injector (when given) sees three boundaries — ``begin``
    (before the temp file exists), ``payload`` (temp file handle open,
    framed bytes in hand, may write a torn prefix), and ``commit``
    (after the rename) — so the crash sweep exercises every distinct
    on-disk intermediate state a real crash could leave.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    existing = list_snapshots(directory)
    if existing:
        next_index = int(_SNAPSHOT_RE.match(existing[-1].name).group(1)) + 1
    else:
        next_index = 1
    final = snapshot_path(directory, next_index)
    tmp = final.with_suffix(".snap.tmp")

    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    framed = SNAPSHOT_MAGIC + _HEADER.pack(len(payload), zlib.crc32(payload)) + payload

    if fault_injector is not None:
        fault_injector.on_snapshot("begin")
    with open(tmp, "wb") as handle:
        if fault_injector is not None:
            # May write a torn prefix of `framed` into the temp file and raise.
            fault_injector.on_snapshot("payload", file=handle, data=framed)
        handle.write(framed)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)
    # Persist the rename itself: without the directory fsync a crash can
    # roll back os.replace and resurrect the tmp file.
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    if fault_injector is not None:
        fault_injector.on_snapshot("commit", file=None, data=None)
    return final


def read_snapshot(path: "str | Path") -> dict:
    """Decode and validate one snapshot file.

    Raises :class:`~repro.errors.RecoveryError` naming the file (and the
    offending byte offset where meaningful) on any validation failure:
    wrong magic, truncated frame, checksum mismatch, or an unpicklable
    payload.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < len(SNAPSHOT_MAGIC) or data[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise RecoveryError(
            "snapshot file does not start with the snapshot magic",
            path=str(path), offset=0,
        )
    header_at = len(SNAPSHOT_MAGIC)
    if len(data) < header_at + _HEADER.size:
        raise RecoveryError(
            "snapshot file truncated inside its header",
            path=str(path), offset=header_at,
        )
    length, crc = _HEADER.unpack_from(data, header_at)
    payload_at = header_at + _HEADER.size
    payload = data[payload_at: payload_at + length]
    if len(payload) != length:
        raise RecoveryError(
            f"snapshot payload truncated ({len(payload)} of {length} bytes present)",
            path=str(path), offset=payload_at,
        )
    if zlib.crc32(payload) != crc:
        raise RecoveryError(
            "snapshot payload failed its checksum",
            path=str(path), offset=payload_at,
        )
    try:
        state = pickle.loads(payload)
    except Exception as error:  # noqa: BLE001 - pickle raises many types
        raise RecoveryError(
            f"snapshot payload failed to unpickle ({error})",
            path=str(path), offset=payload_at,
        ) from None
    if not isinstance(state, dict) or state.get("format") != SNAPSHOT_FORMAT:
        raise RecoveryError(
            f"snapshot has unsupported format {state.get('format') if isinstance(state, dict) else type(state).__name__!r}",
            path=str(path),
        )
    return state


def load_latest_snapshot(directory: "str | Path") -> LoadedSnapshot:
    """Newest readable snapshot, falling back over corrupt ones.

    Never raises for a bad snapshot: a corrupt file is recorded in
    ``skipped`` and the next-older one is tried. With no readable
    snapshot at all, returns ``(None, None, skipped)`` — the caller
    replays the full WAL from an empty service, which is slow but exact.
    """
    skipped: "list[tuple[Path, str]]" = []
    for path in reversed(list_snapshots(directory)):
        try:
            return LoadedSnapshot(path, read_snapshot(path), skipped)
        except RecoveryError as error:
            skipped.append((path, str(error)))
    return LoadedSnapshot(None, None, skipped)


# ----------------------------------------------------------------------
# Service state capture / install
# ----------------------------------------------------------------------

def capture_state(
    service,
    *,
    events_done: int,
    wal_offset: int,
    config: "dict | None" = None,
) -> dict:
    """Collect everything needed to rebuild ``service`` bit-identically.

    Purely observational: nothing about the service changes (in
    particular, no compaction — auto-compaction points are a
    deterministic function of the event stream, and recovery reproduces
    them by replaying that stream; a snapshot that compacted would shift
    the timeline in a way a fallback to an *earlier* snapshot could
    never reconstruct).
    """
    inner = service.service
    graph = service.graph
    epoch, version = graph.stamp
    cache_version, cache_vectors = inner.cache.export_entries()
    return {
        "format": SNAPSHOT_FORMAT,
        "kind": "streaming-service",
        "events_done": int(events_done),
        "wal_offset": int(wal_offset),
        "config": dict(config) if config is not None else None,
        "stamp": (int(epoch), int(version)),
        "graph": graph.csr_state(),
        "rng_state": inner._rng.bit_generator.state,
        "next_request_id": int(inner._next_request_id),
        "clock": float(service.clock),
        "mutations_applied": int(service.mutations_applied),
        "mutation_events_seen": int(service.mutation_events_seen),
        "compactions": int(service.compactions),
        "budgets": inner.budgets.export_state(),
        "windows": {
            int(user): {
                "entries": [(float(t), float(eps)) for t, eps in acct._entries],
                "clock": float(acct._clock),
            }
            for user, acct in service._window_accountants.items()
        },
        "cache": {"version": int(cache_version), "vectors": cache_vectors},
    }


def install_state(service, state: dict, *, path: "str | Path | None" = None) -> None:
    """Load a captured state dict into a freshly built ``service``.

    The service must match the snapshot's construction parameters (same
    graph shape, mechanism, epsilon, window config) — recovery rebuilds
    it from the recorded config, so a mismatch here means the snapshot
    and the builder disagree, which is corruption, not a code path to
    paper over.
    """
    path = str(path) if path is not None else None
    inner = service.service
    graph = service.graph

    graph.restore_csr_state(state["graph"])
    if tuple(graph.stamp) != tuple(state["stamp"]):
        raise RecoveryError(
            f"restored graph stamp {tuple(graph.stamp)} does not match "
            f"snapshot stamp {tuple(state['stamp'])}",
            path=path,
        )

    cache_state = state["cache"]
    if cache_state["version"] != graph.version:
        raise RecoveryError(
            f"snapshot cache version {cache_state['version']} does not match "
            f"restored graph version {graph.version}",
            path=path,
        )
    inner.cache.restore_entries(cache_state["version"], cache_state["vectors"])

    inner.budgets.restore_state(state["budgets"])
    for user, window in state["windows"].items():
        acct = service._window_accountant(int(user))
        acct._entries.clear()
        acct._entries.extend((float(t), float(eps)) for t, eps in window["entries"])
        acct._clock = float(window["clock"])

    inner._rng.bit_generator.state = state["rng_state"]
    inner._next_request_id = int(state["next_request_id"])
    service.clock = float(state["clock"])
    service.mutations_applied = int(state["mutations_applied"])
    service.mutation_events_seen = int(state["mutation_events_seen"])
    service.compactions = int(state["compactions"])
    # Sensitivity depends only on graph shape, which just changed.
    service._recalibrate_sensitivity()


def snapshot_service(
    service,
    directory: "str | Path",
    *,
    events_done: int,
    config: "dict | None" = None,
    fault_injector=None,
) -> Path:
    """Sync the WAL and write one snapshot of ``service``.

    The WAL is synced and its end offset recorded first, so the snapshot
    names the precise point where tail replay starts; everything before
    that offset is covered by the snapshot, everything after it is
    replayed. The service itself is left untouched (see
    :func:`capture_state`).
    """
    wal = service.wal
    if wal is not None:
        wal.sync()
        wal_offset = wal.tail_offset()
    else:
        wal_path = Path(directory) / WAL_FILENAME
        wal_offset = wal_path.stat().st_size if wal_path.exists() else 0
    state = capture_state(
        service,
        events_done=events_done,
        wal_offset=wal_offset,
        config=config,
    )
    return write_snapshot(directory, state, fault_injector=fault_injector)
