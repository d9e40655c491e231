"""Write-ahead log framing, buffering, and scan-validation tests."""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from repro.durability import (
    RECORD_COMMIT,
    RECORD_EDGE,
    WriteAheadLog,
    read_wal,
)
from repro.errors import DurabilityError, RecoveryError

_HEADER = struct.Struct("<II")


def wal_at(tmp_path, **kwargs):
    return WriteAheadLog(tmp_path / "wal.log", **kwargs)


class TestFraming:
    def test_edge_and_commit_round_trip(self, tmp_path):
        with wal_at(tmp_path) as wal:
            wal.log_edge("add", 1.0, 3, 4)
            wal.buffer_rows([("charge", 3, 0.4, "exponential", 0, 1, 0.0, "", 0.0)])
            wal.commit({"rng": {"x": 1}, "req": 1, "clock": 1.0, "mutations_seen": 1})
            path = wal.path
        records, valid_end, truncated_at = read_wal(path)
        assert truncated_at is None
        assert valid_end == path.stat().st_size
        assert [record.tag for record in records] == [RECORD_EDGE, RECORD_COMMIT]
        assert records[0].payload == [RECORD_EDGE, "add", 1.0, 3, 4]
        tag, rows, state = records[1].payload
        assert rows == [["charge", 3, 0.4, "exponential", 0, 1, 0.0, "", 0.0]]
        assert state == {"rng": {"x": 1}, "req": 1, "clock": 1.0, "mutations_seen": 1}

    def test_offsets_chain(self, tmp_path):
        with wal_at(tmp_path) as wal:
            for i in range(5):
                wal.log_edge("add", float(i), i, i + 1)
            path = wal.path
        records, valid_end, _ = read_wal(path)
        assert records[0].offset == 0
        for previous, record in zip(records, records[1:]):
            assert record.offset == previous.end
        assert records[-1].end == valid_end

    def test_commit_drains_pending_rows(self, tmp_path):
        with wal_at(tmp_path) as wal:
            wal.buffer_rows([("charge", 1, 0.1, "m", 0, 0, 0.0, "", 0.0)])
            assert wal.pending_rows == 1
            wal.commit({"rng": None, "req": 0, "clock": 0.0, "mutations_seen": 0})
            assert wal.pending_rows == 0
            wal.commit({"rng": None, "req": 0, "clock": 0.0, "mutations_seen": 0})
            path = wal.path
        records, _, _ = read_wal(path)
        assert records[0].payload[1] == [["charge", 1, 0.1, "m", 0, 0, 0.0, "", 0.0]]
        assert records[1].payload[1] == []

    def test_commit_frames_the_staged_rows_as_json_arrays(self, tmp_path):
        """A commit writes exactly the JSON of its rows as arrays; the
        staged rows survive the caller clearing the list it handed over."""
        rows = [
            ("charge", 3, 0.4, "exponential", 0, 1, 0.0, "", 0.0),
            ("refusal", 4, 0.0, "exponential", 0, 1, 1.0, "no_candidates", 0.0),
        ]
        state = {"rng": None, "req": 2, "clock": 1.0, "mutations_seen": 0}
        with wal_at(tmp_path) as wal:
            for row in rows:
                handed = [row]
                wal.buffer_rows(handed)
                handed.clear()
            wal.commit(state)
            path = wal.path
        payload = json.dumps(
            [RECORD_COMMIT, [list(r) for r in rows], state], separators=(",", ":")
        ).encode("utf-8")
        assert path.read_bytes() == _HEADER.pack(len(payload), zlib.crc32(payload)) + payload

    def test_float_values_round_trip_exactly(self, tmp_path):
        time = 0.1 + 0.2  # not representable in decimal; must survive JSON
        with wal_at(tmp_path) as wal:
            wal.log_edge("remove", time, 1, 2)
            path = wal.path
        records, _, _ = read_wal(path)
        assert records[0].payload[2] == time

    def test_append_after_reopen(self, tmp_path):
        with wal_at(tmp_path) as wal:
            wal.log_edge("add", 0.0, 0, 1)
            path = wal.path
        with WriteAheadLog(path) as wal:
            assert wal.tail_offset() == path.stat().st_size
            wal.log_edge("add", 1.0, 1, 2)
        records, _, truncated_at = read_wal(path)
        assert [r.payload[3] for r in records] == [0, 1]
        assert truncated_at is None


class TestTornTail:
    def make_log(self, tmp_path, records=3):
        with wal_at(tmp_path) as wal:
            for i in range(records):
                wal.log_edge("add", float(i), i, i + 1)
            return wal.path

    def test_torn_tail_is_tolerated_by_default(self, tmp_path):
        path = self.make_log(tmp_path)
        whole = path.read_bytes()
        records, valid_end, _ = read_wal(path)
        torn_at = records[-1].offset
        path.write_bytes(whole[: torn_at + 5])  # tear inside the last frame
        survivors, new_end, truncated_at = read_wal(path)
        assert len(survivors) == 2
        assert new_end == torn_at
        assert truncated_at == torn_at

    def test_torn_tail_raises_in_strict_mode(self, tmp_path):
        path = self.make_log(tmp_path)
        records, _, _ = read_wal(path)
        torn_at = records[-1].offset
        path.write_bytes(path.read_bytes()[: torn_at + 5])
        with pytest.raises(RecoveryError) as excinfo:
            read_wal(path, strict=True)
        assert excinfo.value.offset == torn_at
        assert str(path) in str(excinfo.value)

    def test_tear_inside_header_is_torn_tail_too(self, tmp_path):
        path = self.make_log(tmp_path)
        records, _, _ = read_wal(path)
        torn_at = records[-1].offset
        path.write_bytes(path.read_bytes()[: torn_at + 3])  # only 3 header bytes
        survivors, new_end, truncated_at = read_wal(path)
        assert len(survivors) == 2
        assert truncated_at == torn_at


class TestCorruption:
    def test_interior_crc_mismatch_always_raises(self, tmp_path):
        with wal_at(tmp_path) as wal:
            wal.log_edge("add", 0.0, 0, 1)
            wal.log_edge("add", 1.0, 1, 2)
            path = wal.path
        records, _, _ = read_wal(path)
        data = bytearray(path.read_bytes())
        flip = records[0].offset + _HEADER.size  # first payload byte
        data[flip] ^= 0xFF
        path.write_bytes(bytes(data))
        for strict in (False, True):
            with pytest.raises(RecoveryError) as excinfo:
                read_wal(path, strict=strict)
            assert excinfo.value.offset == records[0].offset
            assert "checksum" in str(excinfo.value)

    def test_valid_frame_with_non_json_payload_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        payload = b"\x00not json"
        path.write_bytes(_HEADER.pack(len(payload), zlib.crc32(payload)) + payload)
        with pytest.raises(RecoveryError) as excinfo:
            read_wal(path)
        assert excinfo.value.offset == 0

    def test_unknown_record_shape_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        payload = json.dumps(["z", 1, 2]).encode()
        path.write_bytes(_HEADER.pack(len(payload), zlib.crc32(payload)) + payload)
        with pytest.raises(RecoveryError) as excinfo:
            read_wal(path)
        assert "unknown" in str(excinfo.value)

    def test_out_of_range_offset_raises(self, tmp_path):
        with wal_at(tmp_path) as wal:
            wal.log_edge("add", 0.0, 0, 1)
            path = wal.path
        with pytest.raises(RecoveryError):
            read_wal(path, offset=path.stat().st_size + 1)


class TestDurabilityKnobs:
    def test_sync_every_validates(self, tmp_path):
        with pytest.raises(DurabilityError):
            wal_at(tmp_path, sync_every=-1)

    def test_missing_file_reads_empty(self, tmp_path):
        records, valid_end, truncated_at = read_wal(tmp_path / "absent.log")
        assert (records, valid_end, truncated_at) == ([], 0, None)

    def test_double_close_is_safe(self, tmp_path):
        wal = wal_at(tmp_path)
        wal.log_edge("add", 0.0, 0, 1)
        wal.close()
        wal.close()
