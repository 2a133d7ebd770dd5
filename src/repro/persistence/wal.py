"""Write-ahead log for unlearning (deletion) requests.

Durability protocol: a deletion request is appended to the log -- and
optionally made durable -- *before* it is applied to any in-memory model.
After a crash, the state is reconstructed by loading the latest snapshot
and replaying the log records beyond the snapshot's sequence number
(:mod:`repro.persistence.store`).

Framing: each record is ``[length: uint32 LE][crc32: uint32 LE][payload]``
where the payload is a canonical JSON object (UTF-8, keys sorted, no
spaces) carrying the global sequence number, the encoded record values,
the label and the request metadata. The CRC covers the payload only; the
length field is implicitly validated by the CRC check on the bytes it
delimits. The writer never emits an empty payload, so a zero length marks
an invalid frame: a zero-filled tail (space reserved past the last frame,
or a file extended by a crash whose data never landed) would otherwise
pass the CRC check, because ``crc32(b"") == 0``.

Appends write into reserved space. The first append into a segment
reserves the whole segment with ``posix_fallocate``, and in strict mode
(``fsync=True``) fsyncs once, which makes the file size durable. Each
append is then one ``pwrite`` at the segment's logical end followed, in
strict mode, by ``fdatasync``: that flushes the frame and the conversion
of its reserved extent to written, and has no size change to commit, so
it costs less than the ``fsync`` a growing file needs. After a crash the
reserved space past the last durable frame reads as zeros, an invalid
frame, and the next open reclaims it as a torn tail. Rotating or closing
a segment trims it to its last frame (then fsyncs it, in strict mode), so
a sealed or cleanly closed segment holds exactly its frames and the
strict check below applies to it unchanged. A file system that cannot
reserve space grows the file on each append instead.

The log is segmented: ``wal-<n>.log`` files in one directory. ``rotate()``
seals the current segment and opens the next; ``compact(upto_seq)`` deletes
sealed segments whose records are all covered by a snapshot (this is what
a snapshot triggers). A torn write at the tail of the *last* segment (the
only place a crash can leave one) is detected by the CRC and truncated on
the next open; a corrupt frame anywhere else raises
:class:`WalCorruptionError` because it means real data loss. In strict
mode the log directory is fsynced whenever a segment is created, rotated
in or unlinked, so segment names are as durable as their contents.
"""

from __future__ import annotations

import errno
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

#: Encodes every payload. Callers build each dict in sorted key order, so
#: the output is byte-identical to ``json.dumps(body, sort_keys=True,
#: separators=(",", ":"))`` without sorting on every append.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _encode(body: dict) -> bytes:
    return _ENCODER.encode(body).encode("utf-8")


def _deletion_body(record: "DeletionRecord") -> dict:
    """A deletion's payload dict, keys in sorted order."""
    body = {
        "allow_budget_overrun": record.allow_budget_overrun,
        "label": record.label,
        "request_id": record.request_id,
        "seq": record.seq,
    }
    if record.shard_id is not None:
        body["shard_id"] = record.shard_id
    body["values"] = list(record.values)
    return body


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
        return _encode(_deletion_body(self))

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

    The batch shares a single CRC frame and a single write and sync (group
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
        return _encode({"batch": [_deletion_body(record) for record in self.records]})

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
    replay in its exact arrival order, because each write re-scores the
    maintenance nodes it visits right away, so which variant is active
    (and when it switches) depends on the order the writes arrived in.
    The frame carries ``"kind": "insert"`` so pre-insertion readers of
    the payload format fail loudly rather than replaying an insertion as
    a deletion.
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
            "label": self.label,
            "request_id": self.request_id,
            "seq": self.seq,
        }
        if self.shard_id is not None:
            body["shard_id"] = self.shard_id
        body["values"] = list(self.values)
        return _encode(body)

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
    frames: list[WalFrame] = []
    offset = 0
    # Frame by frame rather than the whole file: a live segment is mostly
    # reserved zeros, which the first empty header ends the scan at.
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        while header := handle.read(_FRAME_HEADER.size):
            if len(header) < _FRAME_HEADER.size:
                break
            length, crc = _FRAME_HEADER.unpack(header)
            if length == 0 or length > _MAX_PAYLOAD_BYTES:
                break
            payload = handle.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                break
            try:
                frames.append(_decode_frame(payload))
            except (ValueError, KeyError) as error:
                raise WalCorruptionError(
                    f"undecodable WAL record at {path}:{offset}: {error}"
                ) from error
            offset += _FRAME_HEADER.size + length
    if offset != size and not final:
        raise WalCorruptionError(
            f"corrupt frame in sealed WAL segment {path} at byte {offset}"
        )
    return frames, offset


class WriteAheadLog:
    """Append-only, CRC-framed, segmented deletion log.

    Every append is one ``os.pwrite`` at the segment's logical end, into
    space reserved ahead of it: the first append into a segment reserves
    ``max_segment_bytes`` with ``os.posix_fallocate`` (where the file
    system supports it), so an append does not grow the file. In strict
    mode that reservation is fsynced once, which makes the file size
    durable, and each append is then followed by ``os.fdatasync`` alone:
    it flushes the frame's data and the reserved extent's conversion to
    written, but has no size change to commit. A crash leaves the
    reserved space past the last frame reading as zeros, which the next
    open reclaims as a torn tail. :meth:`rotate` and :meth:`close` trim
    the segment to its last frame (then fsync, in strict mode), so a
    sealed or cleanly closed segment holds exactly its frames.

    Args:
        directory: segment directory (created if missing).
        fsync: when true, every append is followed by ``os.fdatasync``
            and every segment reservation, trim, create, rotate or unlink
            by an fsync of the file or its directory -- the strict
            durability mode. Off by default because the serving benchmarks
            measure the framing overhead separately from disk sync latency.
        max_segment_bytes: appends past this size trigger automatic
            rotation, bounding per-segment replay and compaction
            granularity; it is also the size a segment reserves.
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
                # Reclaim the torn tail left by a crash mid-append (or the
                # zero-filled reservation past a crashed writer's last frame).
                with open(segment, "r+b") as handle:
                    handle.truncate(valid_length)
                    if fsync:
                        os.fsync(handle.fileno())
        self._next_seq = last_seq + 1
        self._segment_id = _segment_id(segments[-1]) if segments else 1
        self._open_segment()
        if fsync and not segments:
            fsync_directory(self.directory)

    def _segment_path(self, segment_id: int) -> Path:
        return self.directory / f"{_SEGMENT_PREFIX}{segment_id:08d}{_SEGMENT_SUFFIX}"

    def _open_segment(self) -> None:
        """Open (creating if missing) the current segment for positional writes.

        The descriptor is opened without ``O_APPEND``: on Linux, ``pwrite``
        on an ``O_APPEND`` descriptor ignores its offset and appends. The
        file object owns the descriptor, so an unclosed log releases it
        when collected. Space is reserved lazily, on the first append.
        """
        descriptor = os.open(
            self._segment_path(self._segment_id),
            os.O_WRONLY | os.O_CREAT | os.O_CLOEXEC,
            0o666,
        )
        self._file = os.fdopen(descriptor, "wb", buffering=0)
        self._fd = descriptor
        self._end = os.fstat(descriptor).st_size
        self._reserved = self._end
        self._reservable = True

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

    def _reserve(self, end: int) -> None:
        """Reserve the segment up to at least ``end`` bytes.

        The first reservation of a segment covers ``max_segment_bytes``;
        only a frame that crosses that size reserves just itself. Where
        the file system cannot reserve (``EOPNOTSUPP``/``EINVAL``), appends
        grow the file instead, as plain appends do.
        """
        target = max(end, self.max_segment_bytes)
        try:
            os.posix_fallocate(self._fd, self._end, target - self._end)
        except OSError as error:
            if error.errno not in (errno.EOPNOTSUPP, errno.EINVAL):
                raise
            self._reservable = False  # do not ask again for this segment
            return
        if self.fsync:
            # Once per reservation: the new size is durable, so each
            # append's fdatasync has no size change to commit.
            os.fsync(self._fd)
        self._reserved = target

    def _write(self, frame: bytes) -> None:
        """Write one frame at the logical end (strict mode: durably)."""
        end = self._end + len(frame)
        if end > self._reserved and self._reservable:
            self._reserve(end)
        if os.pwrite(self._fd, frame, self._end) != len(frame):
            # A regular file writes whole frames unless the device is
            # full; the end does not move, so the partial bytes are a
            # torn tail that the next append overwrites.
            raise OSError(
                errno.ENOSPC,
                f"short write to {self._segment_path(self._segment_id)}",
            )
        if self.fsync:
            os.fdatasync(self._fd)
        self._end = end

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
        self._write(_frame(entry.to_payload()))
        self._next_seq += 1
        if self._end >= self.max_segment_bytes:
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
        arrival interleaving -- which is what makes recovery of a mixed
        stream bit-identical to the live model, since every write
        re-scores in arrival order.
        """
        entry = InsertionRecord(
            seq=self._next_seq,
            values=tuple(record.values),
            label=record.label,
            request_id=request_id,
            shard_id=shard_id,
        )
        self._write(_frame(entry.to_payload()))
        self._next_seq += 1
        if self._end >= self.max_segment_bytes:
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

        The batch costs one frame write and (in strict mode) one
        ``fdatasync`` regardless of its size -- the group-commit half of
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
        self._write(_frame(batch.to_payload()))
        self._next_seq += len(entries)
        if self._end >= self.max_segment_bytes:
            self.rotate()
        return batch

    def _seal(self) -> None:
        """Trim the segment to its last frame, make that durable, close it.

        Only space this log reserved is handed back, so closing a second
        log opened on the same directory never cuts the writer's frames.
        """
        if self._reserved > self._end:
            os.ftruncate(self._fd, self._end)
        if self.fsync:
            os.fsync(self._fd)
        self._file.close()
        # A later append fails (EBADF) rather than writing to whatever
        # file reuses the descriptor number.
        self._fd = -1

    def rotate(self) -> Path:
        """Seal the current segment and start the next one."""
        self._seal()
        self._segment_id += 1
        self._open_segment()
        if self.fsync:
            fsync_directory(self.directory)
        return self._segment_path(self._segment_id)

    def close(self) -> None:
        if not self._file.closed:
            self._seal()

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
