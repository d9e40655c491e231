"""Snapshot file format, atomicity, fallback, and state capture tests."""

from __future__ import annotations

import pickle
import struct
import zlib

import numpy as np
import pytest

from repro.durability import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_MAGIC,
    capture_state,
    install_state,
    list_snapshots,
    load_latest_snapshot,
    read_snapshot,
    snapshot_path,
    write_snapshot,
)
from repro.errors import RecoveryError

_HEADER = struct.Struct("<II")


def minimal_state(tag):
    return {"format": SNAPSHOT_FORMAT, "tag": tag}


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        path = write_snapshot(tmp_path, minimal_state("a"))
        assert path == snapshot_path(tmp_path, 1)
        assert read_snapshot(path) == minimal_state("a")

    def test_indices_increment_and_sort(self, tmp_path):
        paths = [write_snapshot(tmp_path, minimal_state(i)) for i in range(3)]
        assert paths == list_snapshots(tmp_path)
        assert [p.name for p in paths] == [
            "snapshot-00000001.snap",
            "snapshot-00000002.snap",
            "snapshot-00000003.snap",
        ]

    def test_no_tmp_residue_after_success(self, tmp_path):
        write_snapshot(tmp_path, minimal_state("a"))
        assert not list(tmp_path.glob("*.tmp"))

    def test_bad_magic_raises(self, tmp_path):
        path = write_snapshot(tmp_path, minimal_state("a"))
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(RecoveryError) as excinfo:
            read_snapshot(path)
        assert excinfo.value.offset == 0
        assert str(path) in str(excinfo.value)

    def test_checksum_mismatch_raises_naming_path(self, tmp_path):
        path = write_snapshot(tmp_path, minimal_state("a"))
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(RecoveryError) as excinfo:
            read_snapshot(path)
        assert "checksum" in str(excinfo.value)
        assert excinfo.value.path == str(path)

    def test_truncated_payload_raises(self, tmp_path):
        path = write_snapshot(tmp_path, minimal_state("a"))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(RecoveryError) as excinfo:
            read_snapshot(path)
        assert "truncated" in str(excinfo.value)

    def test_unsupported_format_raises(self, tmp_path):
        payload = pickle.dumps({"format": SNAPSHOT_FORMAT + 1})
        framed = SNAPSHOT_MAGIC + _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        path = snapshot_path(tmp_path, 1)
        path.write_bytes(framed)
        with pytest.raises(RecoveryError) as excinfo:
            read_snapshot(path)
        assert "format" in str(excinfo.value)


    def test_format_4_snapshot_is_refused(self, tmp_path):
        """Format-4 snapshots pickled dense side-car rows; a cache that
        patches support-form rows by merge must never adopt one."""
        assert SNAPSHOT_FORMAT == 5
        payload = pickle.dumps({"format": 4, "tag": "dense side-car rows"})
        framed = SNAPSHOT_MAGIC + _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        path = snapshot_path(tmp_path, 1)
        path.write_bytes(framed)
        with pytest.raises(RecoveryError, match="unsupported format 4"):
            read_snapshot(path)
        loaded = load_latest_snapshot(tmp_path)
        assert loaded.state is None and "format" in loaded.skipped[0][1]


class TestLatestFallback:
    def test_prefers_newest(self, tmp_path):
        for i in range(3):
            write_snapshot(tmp_path, minimal_state(i))
        loaded = load_latest_snapshot(tmp_path)
        assert loaded.state["tag"] == 2
        assert loaded.skipped == []

    def test_falls_back_over_corrupt_newest(self, tmp_path):
        for i in range(3):
            write_snapshot(tmp_path, minimal_state(i))
        newest = list_snapshots(tmp_path)[-1]
        data = bytearray(newest.read_bytes())
        data[-1] ^= 0xFF
        newest.write_bytes(bytes(data))
        loaded = load_latest_snapshot(tmp_path)
        assert loaded.state["tag"] == 1
        assert [path for path, _ in loaded.skipped] == [newest]
        assert "checksum" in loaded.skipped[0][1]

    def test_all_corrupt_returns_none_with_reasons(self, tmp_path):
        for i in range(2):
            path = write_snapshot(tmp_path, minimal_state(i))
            path.write_bytes(b"garbage")
        loaded = load_latest_snapshot(tmp_path)
        assert loaded.path is None and loaded.state is None
        assert len(loaded.skipped) == 2

    def test_empty_directory(self, tmp_path):
        assert load_latest_snapshot(tmp_path) == (None, None, [])
        assert load_latest_snapshot(tmp_path / "absent") == (None, None, [])


class TestServiceStateCapture:
    def test_capture_is_observational(self, build_service, events):
        from repro.streaming import replay_stream

        service = build_service()
        replay_stream(service, events[:80], batch_size=16)
        before = (
            service.stamp,
            service.clock,
            service.service._next_request_id,
            service.graph.delta_size,
            service.service._rng.bit_generator.state,
        )
        capture_state(service, events_done=80, wal_offset=0)
        after = (
            service.stamp,
            service.clock,
            service.service._next_request_id,
            service.graph.delta_size,
            service.service._rng.bit_generator.state,
        )
        assert before == after

    def test_capture_install_round_trip(self, build_service, events, reference):
        from repro.streaming import replay_stream

        donor = build_service()
        picks = []
        replay_stream(
            donor, events, batch_size=16,
            on_response=lambda r: picks.append(tuple(r.recommendations)),
        )
        state = capture_state(donor, events_done=len(events), wal_offset=0)
        state = pickle.loads(pickle.dumps(state))  # force a disk-like round trip

        clone = build_service()
        install_state(clone, state)
        assert clone.stamp == donor.stamp
        assert clone.clock == donor.clock
        assert clone.service.budgets.export_state() == donor.service.budgets.export_state()
        assert (
            clone.service._rng.bit_generator.state
            == donor.service._rng.bit_generator.state
        )
        assert {
            user: list(acct._entries)
            for user, acct in clone._window_accountants.items()
        } == {
            user: list(acct._entries)
            for user, acct in donor._window_accountants.items()
        }
        # The clone must *behave* identically, not just compare equal:
        # serve one more batch on both and demand the same picks.
        users = [r[0] for r in reference["picks"][:8]]
        donor_next = donor.recommend_batch(users)
        clone_next = clone.recommend_batch(users)
        assert [tuple(r.recommendations) for r in donor_next] == [
            tuple(r.recommendations) for r in clone_next
        ]

    def test_support_form_cache_round_trip(self, build_service, events):
        """A flushing cache's rows (support form, from a utility with no
        walk components) survive capture/install through pickle and
        serve identically after."""
        from repro.streaming import replay_stream

        donor = build_service(utility="adamic_adar")
        assert not donor.cache.patchable
        replay_stream(donor, events[:120], batch_size=16)
        state = pickle.loads(pickle.dumps(
            capture_state(donor, events_done=120, wal_offset=0)
        ))
        clone = build_service(utility="adamic_adar")
        install_state(clone, state)

        donor_version, donor_rows = donor.service.cache.export_entries()
        clone_version, clone_rows = clone.service.cache.export_entries()
        assert donor_rows and clone_version == donor_version
        assert [t for t, _ in clone_rows] == [t for t, _ in donor_rows]
        for (_, restored), (_, original) in zip(clone_rows, donor_rows):
            np.testing.assert_array_equal(restored.candidates, original.candidates)
            np.testing.assert_array_equal(restored.values, original.values)
        users = [target for target, _ in donor_rows] * 2
        assert [r.recommendations for r in donor.recommend_batch(users)] == [
            r.recommendations for r in clone.recommend_batch(users)
        ]

    @pytest.mark.parametrize("utility", ["common_neighbors", "weighted_paths"])
    def test_patching_cache_round_trip_keeps_patching(self, build_service, events, utility):
        """A patching cache's support-form rows and side-cars survive
        capture/install; the restored cache keeps patching them, and
        serves and counts exactly like the uninterrupted run."""
        from repro.compute import COMPONENTS_KEY
        from repro.streaming import replay_stream

        donor = build_service(utility=utility)
        assert donor.cache.patchable
        replay_stream(donor, events[:100], batch_size=16)
        state = pickle.loads(pickle.dumps(
            capture_state(donor, events_done=100, wal_offset=0)
        ))
        clone = build_service(utility=utility)
        install_state(clone, state)
        donor_rows = donor.service.cache.export_entries()[1]
        clone_rows = clone.service.cache.export_entries()[1]
        assert donor_rows and [t for t, _ in clone_rows] == [t for t, _ in donor_rows]
        for (_, restored), (_, original) in zip(clone_rows, donor_rows):
            assert restored.excluded is not None  # support form
            for mine, theirs in zip(restored.support(), original.support()):
                np.testing.assert_array_equal(mine, theirs)
            if utility == "weighted_paths":
                for mine, theirs in zip(
                    restored.metadata[COMPONENTS_KEY], original.metadata[COMPONENTS_KEY]
                ):
                    np.testing.assert_array_equal(mine, theirs)
            else:
                assert COMPONENTS_KEY not in restored.metadata

        def rest(service):
            picks = []
            before = service.cache.snapshot()
            replay_stream(
                service, events[100:], batch_size=16,
                on_response=lambda r: picks.append(tuple(r.recommendations)),
            )
            after = service.cache.snapshot()
            counters = ("hits", "misses", "invalidations", "selective_evictions", "patched_rows")
            return picks, {key: after[key] - before[key] for key in counters}

        donor_picks, donor_stats = rest(donor)
        clone_picks, clone_stats = rest(clone)
        assert clone_picks == donor_picks
        assert clone_stats == donor_stats
        assert clone_stats["patched_rows"] > 0

    def test_install_rejects_stamp_mismatch(self, build_service, events):
        from repro.streaming import replay_stream

        donor = build_service()
        replay_stream(donor, events[:60], batch_size=16)
        state = capture_state(donor, events_done=60, wal_offset=0)
        state["stamp"] = (99, 99)
        with pytest.raises(RecoveryError) as excinfo:
            install_state(build_service(), state, path="snap")
        assert "stamp" in str(excinfo.value)

    def test_install_rejects_cache_version_mismatch(self, build_service, events):
        from repro.streaming import replay_stream

        donor = build_service()
        replay_stream(donor, events[:60], batch_size=16)
        state = capture_state(donor, events_done=60, wal_offset=0)
        state["cache"]["version"] += 1
        with pytest.raises(RecoveryError) as excinfo:
            install_state(build_service(), state)
        assert "cache version" in str(excinfo.value)
