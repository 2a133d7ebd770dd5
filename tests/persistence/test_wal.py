"""Tests for the CRC-framed write-ahead deletion log."""

import errno
import json
import os

import pytest

from repro.dataprep.dataset import Record
from repro.persistence.wal import (
    BatchDeletionRecord,
    DeletionRecord,
    InsertionRecord,
    WalCorruptionError,
    WriteAheadLog,
    _frame,
)


def _record(seed: int) -> Record:
    return Record(values=(seed % 5, seed % 3, seed % 7), label=seed % 2)


class TestFraming:
    def test_append_read_roundtrip(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            appended = [
                wal.append(_record(i), request_id=f"req-{i}") for i in range(10)
            ]
            assert [entry.seq for entry in appended] == list(range(1, 11))
            read_back = list(wal.records())
        assert read_back == appended
        assert read_back[3].to_record() == _record(3)

    def test_after_seq_filter(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for i in range(6):
                wal.append(_record(i))
            tail = list(wal.records(after_seq=4))
        assert [entry.seq for entry in tail] == [5, 6]

    def test_sequence_survives_reopen(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_record(0))
            wal.append(_record(1))
        with WriteAheadLog(tmp_path) as wal:
            entry = wal.append(_record(2))
            assert entry.seq == 3
            assert [e.seq for e in wal.records()] == [1, 2, 3]

    def test_budget_overrun_flag_roundtrip(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_record(0), allow_budget_overrun=True)
            (entry,) = list(wal.records())
        assert entry.allow_budget_overrun is True

    def test_payload_roundtrip_is_exact(self):
        entry = DeletionRecord(
            seq=7, values=(1, 2, 3), label=1, request_id="r", allow_budget_overrun=True
        )
        assert DeletionRecord.from_payload(entry.to_payload()) == entry


class TestBatchFrames:
    def test_append_batch_roundtrip(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            batch = wal.append_batch(
                [_record(i) for i in range(4)],
                request_ids=[f"req-{i}" for i in range(4)],
            )
            assert [entry.seq for entry in batch.records] == [1, 2, 3, 4]
            (frame,) = list(wal.frames())
        assert isinstance(frame, BatchDeletionRecord)
        assert frame == batch
        assert frame.records[2].request_id == "req-2"
        assert frame.records[2].to_record() == _record(2)

    def test_records_flattens_batches_in_order(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_record(0))
            wal.append_batch([_record(1), _record(2)])
            wal.append(_record(3))
            assert [e.seq for e in wal.records()] == [1, 2, 3, 4]
            assert [e.seq for e in wal.records(after_seq=2)] == [3, 4]

    def test_straddling_batch_yields_whole_frame(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_record(0))
            wal.append_batch([_record(1), _record(2), _record(3)])
            (frame,) = list(wal.frames(after_seq=2))
            # Replay sees the whole frame (atomicity) ...
            assert (frame.first_seq, frame.last_seq) == (2, 4)
            # ... while the flattened view filters covered members.
            assert [e.seq for e in wal.records(after_seq=2)] == [3, 4]

    def test_torn_batch_frame_vanishes_whole(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_record(0))
            wal.append_batch([_record(1), _record(2), _record(3)])
            (segment,) = wal.segment_paths()
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF  # corrupt the group-committed frame's tail
        segment.write_bytes(bytes(data))
        with WriteAheadLog(tmp_path) as wal:
            # Crash-wise the batch is all-or-nothing: no partial batch.
            assert [e.seq for e in wal.records()] == [1]
            assert wal.append(_record(4)).seq == 2

    def test_sequence_survives_reopen_after_batch(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append_batch([_record(0), _record(1), _record(2)])
        with WriteAheadLog(tmp_path) as wal:
            assert wal.append(_record(3)).seq == 4

    def test_overrun_flag_applies_to_every_member(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append_batch([_record(0), _record(1)], allow_budget_overrun=True)
            assert all(e.allow_budget_overrun for e in wal.records())

    def test_rejects_empty_batch_and_mismatched_ids(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            with pytest.raises(ValueError):
                wal.append_batch([])
            with pytest.raises(ValueError):
                wal.append_batch([_record(0)], request_ids=["a", "b"])
            assert wal.last_seq == 0

    def test_batch_payload_roundtrip_is_exact(self):
        batch = BatchDeletionRecord(
            records=(
                DeletionRecord(seq=3, values=(1, 2), label=0, request_id="a"),
                DeletionRecord(
                    seq=4, values=(2, 1), label=1, allow_budget_overrun=True
                ),
            )
        )
        assert BatchDeletionRecord.from_payload(batch.to_payload()) == batch

    def test_empty_batch_record_rejected(self):
        with pytest.raises(ValueError):
            BatchDeletionRecord(records=())


class TestInsertionFrames:
    def test_interleaving_survives_in_shared_sequence(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(_record(0), request_id="d0")
            wal.append_insertion(_record(1), request_id="i0")
            wal.append(_record(2), request_id="d1")

        with WriteAheadLog(tmp_path / "wal") as wal:
            frames = list(wal.frames())
        assert [type(frame) for frame in frames] == [
            DeletionRecord,
            InsertionRecord,
            DeletionRecord,
        ]
        assert [frame.seq for frame in frames] == [1, 2, 3]
        insert = frames[1]
        assert insert.to_record().values == _record(1).values
        assert insert.to_record().label == _record(1).label

    def test_records_iterator_stays_deletions_only(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(_record(0), request_id="d0")
            wal.append_insertion(_record(1), request_id="i0")
        with WriteAheadLog(tmp_path / "wal") as wal:
            records = list(wal.records())
        assert len(records) == 1
        assert isinstance(records[0], DeletionRecord)


class TestCrashTolerance:
    def test_torn_tail_is_truncated_on_reopen(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_record(0))
            wal.append(_record(1))
            (segment,) = wal.segment_paths()
        # Simulate a crash mid-append: half a frame at the tail.
        with open(segment, "ab") as handle:
            handle.write(b"\x40\x00\x00\x00\xde\xad")
        with WriteAheadLog(tmp_path) as wal:
            assert [e.seq for e in wal.records()] == [1, 2]
            # The torn bytes were reclaimed; appends continue cleanly.
            wal.append(_record(2))
            assert [e.seq for e in wal.records()] == [1, 2, 3]

    def test_corrupt_tail_frame_is_dropped(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_record(0))
            wal.append(_record(1))
            (segment,) = wal.segment_paths()
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the final record
        segment.write_bytes(bytes(data))
        with WriteAheadLog(tmp_path) as wal:
            assert [e.seq for e in wal.records()] == [1]

    def test_corrupt_sealed_segment_raises(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_record(0))
            wal.rotate()
            wal.append(_record(1))
            first = wal.segment_paths()[0]
        data = bytearray(first.read_bytes())
        data[_middle(data)] ^= 0xFF
        first.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(tmp_path)

    def test_zero_filled_tail_is_reclaimed(self, tmp_path):
        """A crash can extend the file without its data landing: the
        zeroed header reads as an empty frame whose CRC (``crc32(b"")``)
        checks out. It is a torn tail, not an undecodable record."""
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_record(0))
            wal.append(_record(1))
            (segment,) = wal.segment_paths()
        valid_size = segment.stat().st_size
        with open(segment, "ab") as handle:
            handle.write(bytes(64))
        with WriteAheadLog(tmp_path) as wal:
            assert [e.seq for e in wal.records()] == [1, 2]
            assert segment.stat().st_size == valid_size
            wal.append(_record(2))
            assert [e.seq for e in wal.records()] == [1, 2, 3]

    def test_zero_length_frame_in_sealed_segment_raises(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_record(0))
            wal.rotate()
            wal.append(_record(1))
            first = wal.segment_paths()[0]
        with open(first, "ab") as handle:
            handle.write(bytes(8))
        with pytest.raises(WalCorruptionError, match="sealed"):
            WriteAheadLog(tmp_path)


def _middle(data: bytearray) -> int:
    return len(data) // 2


class TestRotationAndCompaction:
    def test_rotate_starts_new_segment(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_record(0))
            wal.rotate()
            wal.append(_record(1))
            assert len(wal.segment_paths()) == 2
            assert [e.seq for e in wal.records()] == [1, 2]

    def test_automatic_rotation_by_size(self, tmp_path):
        with WriteAheadLog(tmp_path, max_segment_bytes=64) as wal:
            for i in range(5):
                wal.append(_record(i))
            assert len(wal.segment_paths()) > 1
            assert [e.seq for e in wal.records()] == [1, 2, 3, 4, 5]

    def test_compact_removes_covered_segments(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_record(0))
            wal.append(_record(1))
            wal.rotate()
            wal.append(_record(2))
            deleted = wal.compact(upto_seq=2)
            assert len(deleted) == 1
            assert [e.seq for e in wal.records()] == [3]

    def test_compact_keeps_uncovered_segments(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_record(0))
            wal.append(_record(1))
            wal.rotate()
            wal.append(_record(2))
            assert wal.compact(upto_seq=1) == []
            assert [e.seq for e in wal.records()] == [1, 2, 3]

    def test_active_segment_never_deleted(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(_record(0))
            assert wal.compact(upto_seq=10) == []
            assert [e.seq for e in wal.records()] == [1]


def _sorted_dumps(body: dict) -> bytes:
    """The payload encoding every earlier writer used."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _legacy_body(record: DeletionRecord) -> dict:
    body = {
        "seq": record.seq,
        "values": list(record.values),
        "label": record.label,
        "request_id": record.request_id,
        "allow_budget_overrun": record.allow_budget_overrun,
    }
    if record.shard_id is not None:
        body["shard_id"] = record.shard_id
    return body


class TestPayloadEncoding:
    """Payloads are built in sorted key order and encoded without sorting;
    the bytes must equal the sorted ``json.dumps`` encoding exactly."""

    DELETIONS = (
        DeletionRecord(seq=1, values=(0, 3, 2), label=0),
        DeletionRecord(
            seq=2**40, values=(7,), label=1, request_id="r-\u00e9\u4e2d",
            allow_budget_overrun=True, shard_id=3,
        ),
        DeletionRecord(seq=9, values=(), label=1, request_id='q"\\', shard_id=0),
    )

    @pytest.mark.parametrize("index", range(len(DELETIONS)))
    def test_deletion_bytes_unchanged(self, index):
        record = self.DELETIONS[index]
        assert record.to_payload() == _sorted_dumps(_legacy_body(record))

    def test_batch_bytes_unchanged(self):
        batch = BatchDeletionRecord(records=self.DELETIONS)
        legacy = {"batch": [_legacy_body(record) for record in self.DELETIONS]}
        assert batch.to_payload() == _sorted_dumps(legacy)

    @pytest.mark.parametrize("shard_id", [None, 0, 5])
    def test_insertion_bytes_unchanged(self, shard_id):
        record = InsertionRecord(
            seq=4, values=(1, 2), label=1, request_id="ins-\u00fc", shard_id=shard_id
        )
        legacy = {
            "kind": "insert",
            "seq": 4,
            "values": [1, 2],
            "label": 1,
            "request_id": "ins-\u00fc",
        }
        if shard_id is not None:
            legacy["shard_id"] = shard_id
        assert record.to_payload() == _sorted_dumps(legacy)


def _frame_bytes(records) -> int:
    return sum(
        len(_frame(DeletionRecord(seq=i + 1, values=r.values, label=r.label).to_payload()))
        for i, r in enumerate(records)
    )


class TestPreallocatedSegments:
    def test_live_segment_is_reserved_and_sealed_ones_trimmed(self, tmp_path):
        records = [_record(i) for i in range(3)]
        with WriteAheadLog(tmp_path, fsync=True, max_segment_bytes=4096) as wal:
            (segment,) = wal.segment_paths()
            assert segment.stat().st_size == 0  # reserved lazily, not on open
            wal.append(records[0])
            wal.append(records[1])
            assert segment.stat().st_size == 4096
            second = wal.rotate()
            assert segment.stat().st_size == _frame_bytes(records[:2])
            wal.append(records[2])
            assert second.stat().st_size == 4096
        frame = _frame(
            DeletionRecord(seq=3, values=records[2].values, label=records[2].label)
            .to_payload()
        )
        assert second.read_bytes() == frame

    def test_frame_past_the_reservation_extends_it(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=True, max_segment_bytes=64) as wal:
            wal.append(_record(0))  # one frame is larger than the segment
            assert len(wal.segment_paths()) == 2
            assert [e.seq for e in wal.records()] == [1]
        assert wal.segment_paths()[0].stat().st_size == _frame_bytes([_record(0)])

    @pytest.mark.parametrize("tail", ["zeros", "garbage"])
    def test_torn_last_frame_at_every_offset(self, tmp_path, tail):
        """Cut a live, reserved segment's last frame at each byte offset,
        as a crash mid-``pwrite`` does: reopen keeps exactly the earlier
        frames and the next append lands at the cut."""
        earlier = [_record(0), _record(1)]
        victim = _record(2)
        frame = _frame(
            DeletionRecord(seq=3, values=victim.values, label=victim.label).to_payload()
        )
        garbage = bytes(byte ^ 0xA5 for byte in frame)
        for cut in range(len(frame)):
            directory = tmp_path / f"{tail}-{cut}"
            wal = WriteAheadLog(directory, fsync=True, max_segment_bytes=4096)
            appended = [wal.append(record) for record in earlier]
            (segment,) = wal.segment_paths()
            end = _frame_bytes(earlier)
            torn = frame[:cut] + (garbage[cut:] if tail == "garbage" else b"")
            descriptor = os.open(segment, os.O_WRONLY)
            try:
                os.pwrite(descriptor, torn, end)
            finally:
                os.close(descriptor)
            # The crash: the descriptor goes without the trim of a close,
            # so the reservation stays.
            wal._file.close()
            assert segment.stat().st_size == 4096
            with WriteAheadLog(directory, fsync=True, max_segment_bytes=4096) as reopened:
                assert list(reopened.records()) == appended, cut
                assert segment.stat().st_size == end, cut
                resumed = reopened.append(victim)
                assert resumed.seq == 3
            assert segment.read_bytes()[end:] == frame, cut
            with WriteAheadLog(directory) as reader:
                assert [e.seq for e in reader.records()] == [1, 2, 3]

    def test_without_fallocate_appends_grow_the_file(self, tmp_path, monkeypatch):
        def unsupported(descriptor, offset, length):
            raise OSError(errno.EOPNOTSUPP, "operation not supported")

        monkeypatch.setattr(os, "posix_fallocate", unsupported)
        records = [_record(i) for i in range(5)]
        with WriteAheadLog(tmp_path, fsync=True) as wal:
            for record in records[:3]:
                wal.append(record)
            (segment,) = wal.segment_paths()
            assert segment.stat().st_size == _frame_bytes(records[:3])
            wal.rotate()
            wal.append(records[3])
        with WriteAheadLog(tmp_path, fsync=True) as wal:
            wal.append(records[4])
            assert [e.seq for e in wal.records()] == [1, 2, 3, 4, 5]
            assert [e.to_record() for e in wal.records()] == records

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(_record(0))
        wal.close()
        # The descriptor number may already belong to another file.
        with open(tmp_path / "other", "wb"):
            with pytest.raises(OSError):
                wal.append(_record(1))
        assert (tmp_path / "other").stat().st_size == 0
        assert wal.last_seq == 1

    def test_other_fallocate_errors_propagate(self, tmp_path, monkeypatch):
        def full(descriptor, offset, length):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(os, "posix_fallocate", full)
        with WriteAheadLog(tmp_path, fsync=True) as wal:
            with pytest.raises(OSError) as raised:
                wal.append(_record(0))
            assert raised.value.errno == errno.ENOSPC
            assert wal.last_seq == 0
