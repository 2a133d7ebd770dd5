"""Write-ahead log for unlearning (deletion) requests.

Durability protocol: a deletion request is appended to the log -- and
optionally fsynced -- *before* it is applied to any in-memory model. After a
crash, the state is reconstructed by loading the latest snapshot and
replaying the log records beyond the snapshot's sequence number
(:mod:`repro.persistence.store`).

Framing: each record is ``[length: uint32 LE][crc32: uint32 LE][payload]``
where the payload is a canonical JSON object (UTF-8) carrying the global
sequence number, the encoded record values, the label and the request
metadata. The CRC covers the payload only; the length field is implicitly
validated by the CRC check on the bytes it delimits. The writer never
emits an empty payload, so a zero length marks an invalid frame: a
zero-filled tail (a file extended by a crash whose data never landed)
would otherwise pass the CRC check, because ``crc32(b"") == 0``.

The log is segmented: ``wal-<n>.log`` files in one directory. ``rotate()``
seals the current segment and opens the next; ``compact(upto_seq)`` deletes
sealed segments whose records are all covered by a snapshot (this is what
a snapshot triggers). A torn write at the tail of the *last* segment (the
only place a crash can leave one) is detected by the CRC and truncated on
the next open; a corrupt frame anywhere else raises
:class:`WalCorruptionError` because it means real data loss. In strict
mode (``fsync=True``) the log directory is fsynced whenever a segment is
created, rotated in or unlinked, so segment names are as durable as their
contents.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence, Union

from repro.core.exceptions import HedgeCutError
from repro.dataprep.dataset import Record
from repro.persistence.durable import fsync_directory

_FRAME_HEADER = struct.Struct("<II")

#: Upper bound on a single payload; anything larger is treated as corruption
#: (a real deletion record is a few hundred bytes).
_MAX_PAYLOAD_BYTES = 1 << 24

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


class WalCorruptionError(HedgeCutError):
    """A CRC-framed record failed validation outside the reclaimable tail."""


@dataclass(frozen=True)
class DeletionRecord:
    """One durable unlearning request.

    ``shard_id`` tags the request with the owning shard of a sharded
    deployment (``None`` for unsharded stores): a deletion can then be
    traced end-to-end -- request id, shard, WAL offset -- through the
    sharded service. Pre-sharding log segments decode with ``None``.
    """

    seq: int
    values: tuple[int, ...]
    label: int
    request_id: str | None = None
    allow_budget_overrun: bool = False
    shard_id: int | None = None

    def to_record(self) -> Record:
        """The encoded training record this deletion refers to."""
        return Record(values=self.values, label=self.label)

    def to_payload(self) -> bytes:
        body = {
            "seq": self.seq,
            "values": list(self.values),
            "label": self.label,
            "request_id": self.request_id,
            "allow_budget_overrun": self.allow_budget_overrun,
        }
        if self.shard_id is not None:
            body["shard_id"] = self.shard_id
        return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "DeletionRecord":
        body = json.loads(payload.decode("utf-8"))
        return cls(
            seq=body["seq"],
            values=tuple(body["values"]),
            label=body["label"],
            request_id=body.get("request_id"),
            allow_budget_overrun=body.get("allow_budget_overrun", False),
            shard_id=body.get("shard_id"),
        )


@dataclass(frozen=True)
class BatchDeletionRecord:
    """One group-committed frame covering a whole batch of deletions.

    The batch shares a single CRC frame and a single flush/fsync (group
    commit): crash-wise the batch is all-or-nothing, matching the packed
    kernel's whole-batch-atomic apply. Each member keeps its own sequence
    number so snapshots, compaction and audit offsets stay per-record.
    """

    records: tuple[DeletionRecord, ...]

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("a batch deletion frame needs at least one record")

    @property
    def first_seq(self) -> int:
        return self.records[0].seq

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq

    def to_payload(self) -> bytes:
        members = []
        for record in self.records:
            member = {
                "seq": record.seq,
                "values": list(record.values),
                "label": record.label,
                "request_id": record.request_id,
                "allow_budget_overrun": record.allow_budget_overrun,
            }
            if record.shard_id is not None:
                member["shard_id"] = record.shard_id
            members.append(member)
        body = {"batch": members}
        return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "BatchDeletionRecord":
        body = json.loads(payload.decode("utf-8"))
        return cls(
            records=tuple(
                DeletionRecord(
                    seq=member["seq"],
                    values=tuple(member["values"]),
                    label=member["label"],
                    request_id=member.get("request_id"),
                    allow_budget_overrun=member.get("allow_budget_overrun", False),
                    shard_id=member.get("shard_id"),
                )
                for member in body["batch"]
            )
        )


@dataclass(frozen=True)
class InsertionRecord:
    """One durable incremental-learning (insertion) request.

    Insertions share the deletion log: a mixed insert/delete stream must
    replay in its exact arrival order, because the deferred-maintenance
    flush is order-sensitive in its switch accounting and the statistic
    trajectories interleave. The frame carries ``"kind": "insert"`` so
    pre-insertion readers of the payload format fail loudly rather than
    replaying an insertion as a deletion.
    """

    seq: int
    values: tuple[int, ...]
    label: int
    request_id: str | None = None
    shard_id: int | None = None

    def to_record(self) -> Record:
        """The encoded training record this insertion refers to."""
        return Record(values=self.values, label=self.label)

    def to_payload(self) -> bytes:
        body = {
            "kind": "insert",
            "seq": self.seq,
            "values": list(self.values),
            "label": self.label,
            "request_id": self.request_id,
        }
        if self.shard_id is not None:
            body["shard_id"] = self.shard_id
        return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "InsertionRecord":
        body = json.loads(payload.decode("utf-8"))
        if body.get("kind") != "insert":
            raise ValueError("not an insertion frame")
        return cls(
            seq=body["seq"],
            values=tuple(body["values"]),
            label=body["label"],
            request_id=body.get("request_id"),
            shard_id=body.get("shard_id"),
        )


#: One decoded WAL frame: a deletion, a group-committed deletion batch,
#: or an insertion.
WalFrame = Union[DeletionRecord, BatchDeletionRecord, InsertionRecord]


def _decode_frame(payload: bytes) -> WalFrame:
    """Decode one frame payload; batch frames carry a ``batch`` key,
    insertions a ``kind`` discriminator."""
    body = json.loads(payload.decode("utf-8"))
    if body.get("kind") == "insert":
        return InsertionRecord.from_payload(payload)
    if "batch" in body:
        return BatchDeletionRecord.from_payload(payload)
    return DeletionRecord.from_payload(payload)


def _frame_last_seq(frame: WalFrame) -> int:
    return frame.last_seq if isinstance(frame, BatchDeletionRecord) else frame.seq


def _frame(payload: bytes) -> bytes:
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _segment_id(path: Path) -> int:
    return int(path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])


def _scan_segment(path: Path, final: bool) -> tuple[list[WalFrame], int]:
    """Read one segment; returns ``(frames, valid_byte_length)``.

    For the final segment an invalid frame marks the reclaimable torn tail:
    scanning stops at the last valid frame. For sealed segments an invalid
    frame is corruption and raises. Pre-batching segments (every frame a
    single :class:`DeletionRecord`) decode unchanged.
    """
    data = path.read_bytes()
    frames: list[WalFrame] = []
    offset = 0
    while offset < len(data):
        header_end = offset + _FRAME_HEADER.size
        if header_end > len(data):
            break
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        payload_end = header_end + length
        if length == 0 or length > _MAX_PAYLOAD_BYTES or payload_end > len(data):
            break
        payload = data[header_end:payload_end]
        if zlib.crc32(payload) != crc:
            break
        try:
            frames.append(_decode_frame(payload))
        except (ValueError, KeyError) as error:
            raise WalCorruptionError(
                f"undecodable WAL record at {path}:{offset}: {error}"
            ) from error
        offset = payload_end
    if offset != len(data) and not final:
        raise WalCorruptionError(
            f"corrupt frame in sealed WAL segment {path} at byte {offset}"
        )
    return frames, offset


class WriteAheadLog:
    """Append-only, CRC-framed, segmented deletion log.

    Args:
        directory: segment directory (created if missing).
        fsync: when true, every append is followed by ``os.fsync`` and
            every segment create/rotate/unlink by a directory fsync -- the
            strict durability mode. Off by default because the serving
            benchmarks measure the framing overhead separately from disk
            sync latency.
        max_segment_bytes: appends past this size trigger automatic
            rotation, bounding per-segment replay and compaction granularity.
    """

    def __init__(
        self,
        directory: str | Path,
        fsync: bool = False,
        max_segment_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.max_segment_bytes = max_segment_bytes

        segments = self.segment_paths()
        last_seq = 0
        for index, segment in enumerate(segments):
            final = index == len(segments) - 1
            frames, valid_length = _scan_segment(segment, final=final)
            if frames:
                last_seq = _frame_last_seq(frames[-1])
            if final and valid_length != segment.stat().st_size:
                # Reclaim the torn tail left by a crash mid-append.
                with open(segment, "r+b") as handle:
                    handle.truncate(valid_length)
                    if fsync:
                        os.fsync(handle.fileno())
        self._next_seq = last_seq + 1
        self._segment_id = _segment_id(segments[-1]) if segments else 1
        self._handle = open(self._segment_path(self._segment_id), "ab")
        if fsync and not segments:
            fsync_directory(self.directory)

    def _segment_path(self, segment_id: int) -> Path:
        return self.directory / f"{_SEGMENT_PREFIX}{segment_id:08d}{_SEGMENT_SUFFIX}"

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record (0 if none)."""
        return self._next_seq - 1

    def advance_to(self, seq: int) -> None:
        """Ensure the next appended record gets ``seq + 1`` or later.

        Compaction may delete every record from disk, in which case a
        reopened log cannot learn the tail sequence from its segments alone.
        The store calls this with the newest snapshot's sequence number on
        open, so durable sequence numbers never repeat.
        """
        self._next_seq = max(self._next_seq, seq + 1)

    def append(
        self,
        record: Record,
        request_id: str | None = None,
        allow_budget_overrun: bool = False,
        shard_id: int | None = None,
    ) -> DeletionRecord:
        """Durably append one deletion request; returns it with its seq."""
        entry = DeletionRecord(
            seq=self._next_seq,
            values=tuple(record.values),
            label=record.label,
            request_id=request_id,
            allow_budget_overrun=allow_budget_overrun,
            shard_id=shard_id,
        )
        self._handle.write(_frame(entry.to_payload()))
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._next_seq += 1
        if self._handle.tell() >= self.max_segment_bytes:
            self.rotate()
        return entry

    def append_insertion(
        self,
        record: Record,
        request_id: str | None = None,
        shard_id: int | None = None,
    ) -> InsertionRecord:
        """Durably append one insertion request; returns it with its seq.

        Insertions and deletions draw from the same sequence space and
        land in the same segments, so replay reconstructs the exact
        arrival interleaving -- which is what makes deferred-maintenance
        recovery bit-identical to the live flushed model.
        """
        entry = InsertionRecord(
            seq=self._next_seq,
            values=tuple(record.values),
            label=record.label,
            request_id=request_id,
            shard_id=shard_id,
        )
        self._handle.write(_frame(entry.to_payload()))
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._next_seq += 1
        if self._handle.tell() >= self.max_segment_bytes:
            self.rotate()
        return entry

    def append_batch(
        self,
        records: Sequence[Record],
        request_ids: Sequence[str | None] | None = None,
        allow_budget_overrun: bool = False,
        shard_id: int | None = None,
    ) -> BatchDeletionRecord:
        """Group-commit a whole batch of deletions as one frame.

        The batch costs one frame write, one flush and (in strict mode)
        one ``fsync`` regardless of its size -- the group-commit half of
        the batched delete path. Each member still receives its own
        consecutive sequence number.
        """
        if not records:
            raise ValueError("cannot group-commit an empty batch")
        if request_ids is not None and len(request_ids) != len(records):
            raise ValueError("request_ids length does not match the batch")
        entries = tuple(
            DeletionRecord(
                seq=self._next_seq + index,
                values=tuple(record.values),
                label=record.label,
                request_id=request_ids[index] if request_ids is not None else None,
                allow_budget_overrun=allow_budget_overrun,
                shard_id=shard_id,
            )
            for index, record in enumerate(records)
        )
        batch = BatchDeletionRecord(records=entries)
        self._handle.write(_frame(batch.to_payload()))
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._next_seq += len(entries)
        if self._handle.tell() >= self.max_segment_bytes:
            self.rotate()
        return batch

    def rotate(self) -> Path:
        """Seal the current segment and start the next one."""
        self._handle.close()
        self._segment_id += 1
        self._handle = open(self._segment_path(self._segment_id), "ab")
        if self.fsync:
            fsync_directory(self.directory)
        return self._segment_path(self._segment_id)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # reading and compaction
    # ------------------------------------------------------------------ #

    def segment_paths(self) -> list[Path]:
        return sorted(
            (
                path
                for path in self.directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")
                if path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)].isdigit()
            ),
            key=_segment_id,
        )

    def frames(self, after_seq: int = 0) -> Iterator[WalFrame]:
        """Yield frames whose last record has ``seq > after_seq``, in order.

        Batch frames are yielded whole so replay can preserve their
        all-or-nothing apply semantics; a frame straddling ``after_seq``
        (possible only if a snapshot were ever cut mid-batch) is still
        yielded whole and the caller filters by member sequence.
        """
        self._handle.flush()
        segments = self.segment_paths()
        for index, segment in enumerate(segments):
            entries, _ = _scan_segment(segment, final=index == len(segments) - 1)
            for entry in entries:
                if _frame_last_seq(entry) > after_seq:
                    yield entry

    def records(self, after_seq: int = 0) -> Iterator[DeletionRecord]:
        """Yield *deletion* records with ``seq > after_seq``, in order.

        Batch frames are flattened into their member records; insertion
        frames are skipped (iterate :meth:`frames` for the full mixed
        stream).
        """
        for frame in self.frames(after_seq):
            if isinstance(frame, BatchDeletionRecord):
                for member in frame.records:
                    if member.seq > after_seq:
                        yield member
            elif isinstance(frame, DeletionRecord) and frame.seq > after_seq:
                yield frame

    def compact(self, upto_seq: int) -> list[Path]:
        """Delete sealed segments fully covered by a snapshot at ``upto_seq``.

        A segment is reclaimable when every record in it has
        ``seq <= upto_seq``; the active segment is never deleted (rotate
        first to make it reclaimable). Returns the deleted paths.
        """
        deleted: list[Path] = []
        segments = self.segment_paths()
        for index, segment in enumerate(segments):
            if index == len(segments) - 1:
                break  # never delete the active segment
            entries, _ = _scan_segment(segment, final=False)
            if entries and _frame_last_seq(entries[-1]) > upto_seq:
                break  # segments are ordered; nothing further is coverable
            segment.unlink()
            deleted.append(segment)
        if deleted and self.fsync:
            fsync_directory(self.directory)
        return deleted
