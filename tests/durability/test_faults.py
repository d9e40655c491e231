"""Crash-injection tests: recovery is exact no matter where the process dies.

The full boundary sweep (every WAL record and snapshot stage) runs in
``benchmarks/bench_durability.py``; here a deterministic sample of
boundaries keeps the suite fast while still covering each boundary
*kind* and both ends of the run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.durability import (
    CrashPoint,
    SimulatedCrash,
    list_snapshots,
    recover,
    replay_stream_durable,
)
from repro.telemetry import Telemetry

from .conftest import picks_of


def run_to_crash(build_service, events, directory, crash_point):
    service = build_service()
    with pytest.raises(SimulatedCrash):
        replay_stream_durable(
            service, events, directory=directory, batch_size=16,
            snapshot_every=50, fault_injector=crash_point,
        )
    if service.wal is not None:
        service.wal.close()  # the "dead" process's handle
    return service


class TestCrashPoint:
    def test_dry_run_counts_without_crashing(self, build_service, events, tmp_path):
        probe = CrashPoint(None)
        replay_stream_durable(
            build_service(), events[:100], directory=tmp_path, batch_size=16,
            snapshot_every=50, fault_injector=probe,
        )
        assert probe.boundaries_seen > 0
        assert len(probe.labels) == probe.boundaries_seen
        kinds = set(probe.labels)
        assert "wal-record" in kinds
        assert {"snapshot-begin", "snapshot-payload", "snapshot-commit"} <= kinds

    def test_crash_raises_with_boundary_metadata(
        self, build_service, events, tmp_path
    ):
        point = CrashPoint(5)
        service = build_service()
        with pytest.raises(SimulatedCrash) as excinfo:
            replay_stream_durable(
                service, events[:100], directory=tmp_path, batch_size=16,
                fault_injector=point,
            )
        service.wal.close()
        assert excinfo.value.boundary == 5
        assert excinfo.value.kind == point.labels[5]

    def test_tear_fraction_validates(self):
        with pytest.raises(ValueError):
            CrashPoint(0, tear_fraction=1.0)

    def test_snapshot_payload_crash_leaves_no_visible_snapshot(
        self, build_service, events, tmp_path
    ):
        probe = CrashPoint(None)
        probe_dir = tmp_path / "probe"
        replay_stream_durable(
            build_service(), events[:120], directory=probe_dir, batch_size=16,
            snapshot_every=50, fault_injector=probe,
        )
        payload_boundary = probe.labels.index("snapshot-payload")
        crash_dir = tmp_path / "crash"
        run_to_crash(
            build_service, events[:120], crash_dir, CrashPoint(payload_boundary)
        )
        # The torn temp file must never be listed as a snapshot.
        assert list_snapshots(crash_dir) == []
        assert list(crash_dir.glob("*.tmp"))  # the wreckage is really there


class TestCrashSweepSample:
    def test_recovery_is_exact_at_sampled_boundaries(
        self, build_service, events, reference, tmp_path
    ):
        probe = CrashPoint(None)
        probe_dir = tmp_path / "probe"
        replay_stream_durable(
            build_service(), events, directory=probe_dir, batch_size=16,
            snapshot_every=50, fault_injector=probe,
        )
        total = probe.boundaries_seen
        # Deterministic sample: both ends, plus the first boundary of
        # each kind, plus a spread through the middle.
        chosen = {0, 1, total - 1, total // 3, (2 * total) // 3}
        for kind in ("snapshot-begin", "snapshot-payload", "snapshot-commit"):
            chosen.add(probe.labels.index(kind))
        for boundary in sorted(chosen):
            directory = tmp_path / f"crash-{boundary}"
            run_to_crash(
                build_service, events, directory, CrashPoint(boundary)
            )
            telemetry = Telemetry()
            report = recover(directory, lambda: build_service(telemetry))
            resumed = report.service
            index = report.resume_index(events)
            tail = []
            replay_stream_durable(
                resumed, events, directory=directory, batch_size=16,
                snapshot_every=50, start_index=index,
                last_snapshot_events=report.snapshot_events_done,
                on_response=tail.append,
            )
            # Zero lost, zero double-counted epsilon: balances and the
            # rebuilt ledger match the never-crashed reference exactly.
            assert (
                resumed.budgets.export_state() == reference["balances"]
            ), f"boundary {boundary}: balances diverged"
            assert (
                telemetry.ledger.raw_rows() == reference["ledger"]
            ), f"boundary {boundary}: ledger diverged"
            resumed.verify_ledger()
            got = picks_of(tail)
            assert got == reference["picks"][len(reference["picks"]) - len(got):], (
                f"boundary {boundary}: resumed picks diverged"
            )
