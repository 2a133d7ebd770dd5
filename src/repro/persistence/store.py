"""Durable model store: snapshot directory + write-ahead log + recovery.

Directory layout::

    <root>/
      snapshots/snapshot-<wal_seq>.npz   # checksummed model snapshots
      wal/wal-<segment>.log              # CRC-framed deletion log segments

The store's invariant is the classic WAL rule: a deletion is appended to
the log before it is applied to any in-memory model, and a snapshot at
sequence ``S`` makes every log record with ``seq <= S`` redundant (the
snapshot triggers compaction). Recovery therefore always converges to the
exact pre-crash state: latest valid snapshot + replay of the log tail.

Replay applies each logged operation exactly as the original request did
(same ``allow_budget_overrun`` flag; insertions through ``learn_one``).
Requests that *failed* when first applied -- budget exhausted,
inconsistent record -- fail deterministically again during replay and are
skipped, reproducing the original outcome. Every write re-scores its
maintenance nodes as it lands, so replaying the mixed insert/delete tail
in arrival order lands bit-identical to the live model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.ensemble import HedgeCutClassifier
from repro.core.exceptions import HedgeCutError
from repro.persistence.durable import fsync_directory
from repro.persistence.snapshot import (
    SnapshotInfo,
    SnapshotIntegrityError,
    load_snapshot,
    save_snapshot,
)
from repro.persistence.wal import (
    BatchDeletionRecord,
    InsertionRecord,
    WriteAheadLog,
)

_SNAPSHOT_PATTERN = re.compile(r"snapshot-(\d+)\.npz$")


@dataclass
class RecoveredModel:
    """Result of one crash recovery."""

    model: HedgeCutClassifier
    snapshot: SnapshotInfo | None
    wal_seq: int
    n_replayed: int
    n_replay_failures: int = 0
    skipped_snapshots: list[Path] = field(default_factory=list)


class ModelStore:
    """Owns the snapshot directory and the write-ahead log of one deployment.

    Args:
        directory: store root (created if missing).
        fsync: strict-durability mode: WAL appends and segment changes are
            fsynced (see :class:`~repro.persistence.wal.WriteAheadLog`),
            and every snapshot is durable -- file and directory entry --
            before the log is compacted behind it.
        keep_snapshots: how many most-recent snapshots to retain; older ones
            are pruned after each successful save (at least one is kept).
    """

    def __init__(
        self, directory: str | Path, fsync: bool = False, keep_snapshots: int = 2
    ) -> None:
        if keep_snapshots < 1:
            raise ValueError("keep_snapshots must be >= 1")
        self.directory = Path(directory)
        self.snapshot_dir = self.directory / "snapshots"
        self.snapshot_dir.mkdir(parents=True, exist_ok=True)
        self.keep_snapshots = keep_snapshots
        self.fsync = fsync
        self.wal = WriteAheadLog(self.directory / "wal", fsync=fsync)
        # A snapshot compacts the log, possibly deleting every record; the
        # snapshot file names then carry the only durable trace of how far
        # the sequence has advanced. Restore it so seqs never repeat.
        existing = self.snapshot_paths()
        if existing:
            self.wal.advance_to(self._snapshot_seq(existing[-1]))

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #

    def snapshot_paths(self) -> list[Path]:
        """Snapshot files, oldest first (by the WAL seq in the name)."""
        paths = [
            path
            for path in self.snapshot_dir.iterdir()
            if _SNAPSHOT_PATTERN.search(path.name)
        ]
        return sorted(paths, key=self._snapshot_seq)

    @staticmethod
    def _snapshot_seq(path: Path) -> int:
        match = _SNAPSHOT_PATTERN.search(path.name)
        assert match is not None
        return int(match.group(1))

    def save_snapshot(
        self, model: HedgeCutClassifier, wal_seq: int | None = None
    ) -> SnapshotInfo:
        """Snapshot a model and compact the WAL up to its sequence number.

        Args:
            model: the fitted model to persist.
            wal_seq: the last log sequence number already applied to
                ``model``; defaults to the log's current tail (correct when
                every appended deletion has been applied, as the serving
                engine guarantees for its primary replica).
        """
        if wal_seq is None:
            wal_seq = self.wal.last_seq
        path = self.snapshot_dir / f"snapshot-{wal_seq:012d}.npz"
        # Strict mode: the snapshot is durable before compaction below
        # deletes the log segments it replaces.
        info = save_snapshot(model, path, wal_seq=wal_seq, fsync=self.fsync)
        self._prune_snapshots()
        # Compaction is bounded by the *oldest retained* snapshot, not the
        # one just written: if the newest file turns out corrupt, recovery
        # falls back to an older snapshot and still needs its log tail.
        oldest_covered = self._snapshot_seq(self.snapshot_paths()[0])
        self.wal.rotate()
        self.wal.compact(oldest_covered)
        return info

    def _prune_snapshots(self) -> None:
        paths = self.snapshot_paths()
        pruned = paths[: max(0, len(paths) - self.keep_snapshots)]
        for path in pruned:
            path.unlink()
        if pruned and self.fsync:
            # Compaction is bounded by the oldest *retained* snapshot; a
            # pruned one must not reappear after a crash without its log.
            fsync_directory(self.snapshot_dir)

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #

    def recover(self) -> RecoveredModel:
        """Rebuild the exact pre-crash model state.

        Loads the newest snapshot that passes its integrity check (corrupt
        ones are skipped with a note in the result), then replays every WAL
        record beyond the snapshot's sequence number in order.

        Raises:
            HedgeCutError: when no loadable snapshot exists.
        """
        skipped: list[Path] = []
        model: HedgeCutClassifier | None = None
        info: SnapshotInfo | None = None
        for path in reversed(self.snapshot_paths()):
            try:
                model, info = load_snapshot(path)
                break
            except SnapshotIntegrityError:
                skipped.append(path)
        if model is None or info is None:
            raise HedgeCutError(
                f"no loadable snapshot in {self.snapshot_dir} "
                f"({len(skipped)} corrupt)"
            )

        applied_seq = info.wal_seq
        n_replayed = 0
        n_failures = 0
        for index, frame in enumerate(self.wal.frames(after_seq=info.wal_seq)):
            if index == 0:
                # Build both packs once, before the first frame: every
                # replayed write then takes the native write kernel the
                # live path used, and a group-committed batch replays with
                # the same whole-batch atomicity, so a batch that failed
                # live fails identically here with no partial mutation.
                model.packed.unlearn_pack()
            if isinstance(frame, BatchDeletionRecord):
                members = [
                    member for member in frame.records if member.seq > info.wal_seq
                ]
                try:
                    model.unlearn_batch(
                        [member.to_record() for member in members],
                        allow_budget_overrun=frame.records[0].allow_budget_overrun,
                    )
                    n_replayed += len(members)
                except HedgeCutError:
                    n_failures += len(members)
                applied_seq = frame.last_seq
            elif isinstance(frame, InsertionRecord):
                try:
                    model.learn_one(frame.to_record())
                    n_replayed += 1
                except HedgeCutError:
                    n_failures += 1
                applied_seq = frame.seq
            else:
                try:
                    model.unlearn(
                        frame.to_record(),
                        allow_budget_overrun=frame.allow_budget_overrun,
                    )
                    n_replayed += 1
                except HedgeCutError:
                    # The original request failed the same deterministic way
                    # after it was logged; replay reproduces that outcome.
                    n_failures += 1
                applied_seq = frame.seq
        return RecoveredModel(
            model=model,
            snapshot=info,
            wal_seq=applied_seq,
            n_replayed=n_replayed,
            n_replay_failures=n_failures,
            skipped_snapshots=skipped,
        )

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "ModelStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
