"""Recovery tests: ``restore = snapshot + WAL tail replay``, bit-identical.

The anchor property (also gated by ``benchmarks/bench_durability.py``):
a recovered service is indistinguishable from one that never crashed —
same recommendations, same accountant balances, same privacy ledger,
entry for entry.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.durability import (
    RECORD_COMMIT,
    WAL_FILENAME,
    WriteAheadLog,
    read_wal,
    recover,
    replay_stream_durable,
)
from repro.errors import DurabilityError, RecoveryError
from repro.telemetry import Telemetry

from .conftest import picks_of

_HEADER = struct.Struct("<II")


def run_durable(build_service, events, directory, telemetry=None, **kwargs):
    service = build_service(telemetry)
    responses = []
    summary = replay_stream_durable(
        service, events, directory=directory, batch_size=16,
        on_response=responses.append, **kwargs,
    )
    return service, picks_of(responses), summary


class TestWalOnlyRecovery:
    def test_full_log_replay_matches_reference(
        self, build_service, events, reference, tmp_path
    ):
        service, picks, _ = run_durable(build_service, events, tmp_path)
        service.wal.close()
        assert picks == reference["picks"]

        telemetry = Telemetry()
        report = recover(tmp_path, lambda: build_service(telemetry))
        recovered = report.service
        assert recovered.service.budgets.export_state() == reference["balances"]
        assert telemetry.ledger.raw_rows() == reference["ledger"]
        assert recovered.service._rng.bit_generator.state == reference["rng_state"]
        assert recovered.stamp == reference["stamp"]
        recovered.verify_ledger()
        assert report.snapshot_path is None
        assert report.truncated_at is None
        assert report.resume_index(events) == len(events)

    def test_recovered_service_serves_identically(
        self, build_service, events, reference, tmp_path
    ):
        # Stop the reference run partway, recover, finish the stream on
        # the recovered service: the tail picks must match the reference.
        # The cut must land on a natural flush boundary (just after a
        # mutation, where pending is empty) — stopping mid-batch would
        # flush a partial batch the uninterrupted run never served,
        # shifting batch segmentation and with it every later request id.
        middle = len(events) // 2
        cut = next(
            i + 1 for i in range(middle, len(events)) if events[i].is_mutation
        )
        service, _, summary = run_durable(build_service, events[:cut], tmp_path)
        service.wal.close()
        report = recover(tmp_path, build_service)
        resumed = report.service
        index = report.resume_index(events)
        assert index == cut
        tail = []
        replay_stream_durable(
            resumed, events, directory=tmp_path, batch_size=16,
            start_index=index, on_response=tail.append,
        )
        assert resumed.service.budgets.export_state() == reference["balances"]
        got = picks_of(tail)
        assert got == reference["picks"][len(reference["picks"]) - len(got):]

    def test_ledger_survives_an_untelemetered_run(
        self, build_service, events, reference, tmp_path
    ):
        # The original run journals without telemetry; recovery attaches
        # telemetry and rebuilds the complete ledger from the WAL alone.
        service, _, _ = run_durable(build_service, events, tmp_path, telemetry=None)
        service.wal.close()
        telemetry = Telemetry()
        report = recover(tmp_path, lambda: build_service(telemetry))
        assert telemetry.ledger.raw_rows() == reference["ledger"]
        report.service.verify_ledger()


class TestSnapshotPlusTail:
    def test_snapshot_bounds_tail_replay(
        self, build_service, events, reference, tmp_path
    ):
        service, picks, summary = run_durable(
            build_service, events, tmp_path, snapshot_every=50
        )
        service.wal.close()
        assert summary.snapshots_taken >= 2
        assert picks == reference["picks"]  # snapshots never change serving

        telemetry = Telemetry()
        report = recover(tmp_path, lambda: build_service(telemetry))
        assert report.snapshot_path is not None
        assert report.tail_records < report.wal_records
        assert report.service.service.budgets.export_state() == reference["balances"]
        assert telemetry.ledger.raw_rows() == reference["ledger"]
        report.service.verify_ledger()

    def test_falls_back_to_earlier_snapshot_when_latest_corrupt(
        self, build_service, events, reference, tmp_path
    ):
        from repro.durability import list_snapshots

        service, _, summary = run_durable(
            build_service, events, tmp_path, snapshot_every=50
        )
        service.wal.close()
        snapshots = list_snapshots(tmp_path)
        assert len(snapshots) >= 2
        newest = snapshots[-1]
        data = bytearray(newest.read_bytes())
        data[-1] ^= 0xFF
        newest.write_bytes(bytes(data))

        telemetry = Telemetry()
        report = recover(tmp_path, lambda: build_service(telemetry))
        assert report.snapshot_path == snapshots[-2]
        assert [path for path, _ in report.skipped_snapshots] == [newest]
        # Budgets were NOT silently reset: the longer tail replay still
        # reconstructs the exact reference balances and ledger.
        assert report.service.service.budgets.export_state() == reference["balances"]
        assert telemetry.ledger.raw_rows() == reference["ledger"]
        report.service.verify_ledger()

    def test_all_snapshots_corrupt_falls_back_to_full_replay(
        self, build_service, events, reference, tmp_path
    ):
        from repro.durability import list_snapshots

        service, _, _ = run_durable(
            build_service, events, tmp_path, snapshot_every=50
        )
        service.wal.close()
        for path in list_snapshots(tmp_path):
            path.write_bytes(b"garbage")
        report = recover(tmp_path, build_service)
        assert report.snapshot_path is None
        assert len(report.skipped_snapshots) >= 2
        assert report.service.service.budgets.export_state() == reference["balances"]


class TestTornTail:
    def test_torn_tail_is_truncated_and_journaling_resumes(
        self, build_service, events, reference, tmp_path
    ):
        service, _, _ = run_durable(build_service, events, tmp_path)
        service.wal.close()
        wal_path = tmp_path / WAL_FILENAME
        records, valid_end, _ = read_wal(wal_path)
        torn_at = records[-1].offset
        wal_path.write_bytes(wal_path.read_bytes()[: torn_at + 7])

        report = recover(tmp_path, build_service)
        assert report.truncated_at == torn_at
        assert wal_path.stat().st_size == torn_at  # tail physically removed
        # The log is attached and appendable: one more batch journals.
        users = [r[0] for r in reference["picks"][:4]]
        report.service.recommend_batch(users)
        report.service.wal.sync()
        again, _, truncated = read_wal(wal_path)
        assert truncated is None
        assert len(again) == len(records) - 1 + 1

    def test_lost_batch_is_reexecuted_bit_identically(
        self, build_service, events, reference, tmp_path
    ):
        # Tear off the final commit record: the whole batch vanishes from
        # durable state, and the resumed replay re-serves it exactly.
        service, picks, _ = run_durable(build_service, events, tmp_path)
        service.wal.close()
        wal_path = tmp_path / WAL_FILENAME
        records, _, _ = read_wal(wal_path)
        last_commit = [r for r in records if r.tag == RECORD_COMMIT][-1]
        wal_path.write_bytes(wal_path.read_bytes()[: last_commit.offset + 3])

        report = recover(tmp_path, build_service)
        index = report.resume_index(events)
        assert index < len(events)
        tail = []
        replay_stream_durable(
            report.service, events, directory=tmp_path, batch_size=16,
            start_index=index, on_response=tail.append,
        )
        assert report.service.service.budgets.export_state() == reference["balances"]
        got = picks_of(tail)
        assert got == reference["picks"][len(reference["picks"]) - len(got):]


class TestRejectedEvents:
    def test_out_of_range_edge_event_leaves_the_log_recoverable(
        self, build_service, tmp_path
    ):
        """Regression: an edge event naming a node outside the graph was
        journaled (and advanced the clock and the mutation cursor) before
        the graph refused it, so recovery failed replaying that record and
        nothing committed after it could be recovered."""
        from repro.errors import NodeError
        from repro.streaming import KIND_ADD, StreamEvent

        service = build_service()
        service.attach_wal(WriteAheadLog(tmp_path / WAL_FILENAME))
        service.recommend_batch([1, 2, 3], at=1.0)
        logged = service.wal.tail_offset()
        bad = StreamEvent(2.0, KIND_ADD, u=0, v=service.graph.num_nodes)
        with pytest.raises(NodeError):
            service.apply_edge_event(bad)
        assert service.wal.tail_offset() == logged
        service.apply_edge_event(StreamEvent(3.0, KIND_ADD, u=0, v=5))
        picks = [r.recommendations for r in service.recommend_batch([1, 4], at=4.0)]
        state, stamp = service.durable_state(), service.stamp
        service.wal.close()

        report = recover(tmp_path, build_service)
        assert report.service.durable_state() == state
        assert report.service.stamp == stamp
        assert report.service.mutation_events_seen == 1
        fresh = build_service()
        fresh.recommend_batch([1, 2, 3], at=1.0)
        fresh.apply_edge_event(StreamEvent(3.0, KIND_ADD, u=0, v=5))
        assert [r.recommendations for r in fresh.recommend_batch([1, 4], at=4.0)] == picks


class TestTypedFailures:
    def test_nothing_to_recover_raises(self, build_service, tmp_path):
        with pytest.raises(RecoveryError) as excinfo:
            recover(tmp_path / "empty", build_service)
        assert "nothing to recover" in str(excinfo.value)

    def test_out_of_order_stamps_raise_naming_offset(
        self, build_service, events, tmp_path
    ):
        service, _, _ = run_durable(build_service, events[:80], tmp_path)
        service.wal.close()
        wal_path = tmp_path / WAL_FILENAME
        records, _, _ = read_wal(wal_path)
        commits = [r for r in records if r.tag == RECORD_COMMIT and r.payload[1]]
        assert len(commits) >= 2
        victim = commits[-1]
        payload = victim.payload
        for row in payload[1]:
            row[4], row[5] = 0, 0  # regress every stamp in the last commit
        _rewrite_record(wal_path, victim, payload)
        with pytest.raises(RecoveryError) as excinfo:
            recover(tmp_path, build_service)
        assert "out-of-order" in str(excinfo.value)
        assert excinfo.value.offset == victim.offset

    def test_mutations_seen_mismatch_raises(self, build_service, events, tmp_path):
        service, _, _ = run_durable(build_service, events[:80], tmp_path)
        service.wal.close()
        wal_path = tmp_path / WAL_FILENAME
        records, _, _ = read_wal(wal_path)
        victim = [r for r in records if r.tag == RECORD_COMMIT][-1]
        payload = victim.payload
        payload[2]["mutations_seen"] += 1
        _rewrite_record(wal_path, victim, payload)
        with pytest.raises(RecoveryError) as excinfo:
            recover(tmp_path, build_service)
        assert "mutation events" in str(excinfo.value)
        assert excinfo.value.offset == victim.offset

    def test_interior_corruption_refuses_to_recover(
        self, build_service, events, tmp_path
    ):
        service, _, _ = run_durable(build_service, events[:80], tmp_path)
        service.wal.close()
        wal_path = tmp_path / WAL_FILENAME
        records, _, _ = read_wal(wal_path)
        flip_at = records[0].offset + _HEADER.size
        data = bytearray(wal_path.read_bytes())
        data[flip_at] ^= 0xFF
        wal_path.write_bytes(bytes(data))
        with pytest.raises(RecoveryError) as excinfo:
            recover(tmp_path, build_service)
        assert excinfo.value.offset == records[0].offset

    def test_snapshot_beyond_valid_log_raises(
        self, build_service, events, tmp_path
    ):
        service, _, _ = run_durable(
            build_service, events[:120], tmp_path, snapshot_every=50
        )
        service.wal.close()
        wal_path = tmp_path / WAL_FILENAME
        records, _, _ = read_wal(wal_path)
        # Chop the log back to before the snapshot's recorded offset.
        wal_path.write_bytes(wal_path.read_bytes()[: records[2].end])
        with pytest.raises(RecoveryError) as excinfo:
            recover(tmp_path, build_service)
        assert "valid prefix" in str(excinfo.value)

    def test_recover_rejects_prewired_service(
        self, build_service, events, tmp_path
    ):
        service, _, _ = run_durable(build_service, events[:40], tmp_path)
        service.wal.close()

        def build_with_wal():
            fresh = build_service()
            fresh.attach_wal(WriteAheadLog(tmp_path / "other.log"))
            return fresh

        with pytest.raises(DurabilityError):
            recover(tmp_path, build_with_wal)

    def test_resume_index_rejects_foreign_stream(
        self, build_service, events, tmp_path
    ):
        service, _, _ = run_durable(build_service, events[:80], tmp_path)
        service.wal.close()
        report = recover(tmp_path, build_service)
        queries_only = [e for e in events if not e.is_mutation]
        with pytest.raises(RecoveryError):
            report.resume_index(queries_only)


def _rewrite_record(wal_path, record, payload):
    """Replace one record in place with a re-framed tampered payload."""
    import zlib

    encoded = json.dumps(payload, separators=(",", ":")).encode()
    framed = _HEADER.pack(len(encoded), zlib.crc32(encoded)) + encoded
    data = wal_path.read_bytes()
    wal_path.write_bytes(data[: record.offset] + framed + data[record.end:])
