"""Replicated, crash-recoverable serving engine for HedgeCut models.

This is the durable successor of the single-node
:class:`~repro.serving.simulator.ServingSimulator`: it layers ``N`` replica
workers over the :mod:`repro.persistence` subsystem. Prediction requests
fan out round-robin across the replicas; unlearning requests are sequenced
through the write-ahead deletion log *before* any replica is touched, so a
process crash never loses an acknowledged deletion -- on restart,
:meth:`ReplicatedServingEngine.recover` rebuilds the exact pre-crash state
from the latest snapshot plus the WAL tail.

Consistency modes (how quickly deletions become visible to predictions):

* ``"strong"`` (default) -- a deletion is applied to *every* replica before
  the request is acknowledged; all replicas answer identically.
* ``"read_your_deletes"`` -- a deletion is applied to the primary replica
  only; lagging replicas are caught up from the in-memory tail *before*
  they answer a prediction, so every read observes all acknowledged
  deletions while the per-deletion work stays O(1) in the replica count.
* ``"eventual"`` -- deletions apply to the primary only and other replicas
  answer possibly-stale predictions until :meth:`sync` (or the next
  snapshot) catches them up. Staleness is tracked per replica.
"""

from __future__ import annotations

import copy
import itertools
from typing import Sequence

import numpy as np

from repro.core.ensemble import HedgeCutClassifier
from repro.dataprep.dataset import Dataset, Record
from repro.persistence.store import ModelStore
from repro.serving.audit import AuditedUnlearner, AuditEntry

#: Supported read-consistency modes.
CONSISTENCY_MODES = ("strong", "read_your_deletes", "eventual")


class _Replica:
    """One in-process serving worker: a model copy plus its applied offset."""

    __slots__ = ("model", "applied_seq")

    def __init__(self, model: HedgeCutClassifier, applied_seq: int) -> None:
        self.model = model
        self.applied_seq = applied_seq


class _PendingOp:
    """One durable write operation not yet applied to every replica.

    A single request covers one record; a group-committed batch covers
    ``len(records)`` with consecutive sequence numbers; ``insert`` marks
    an incremental-learning request. Replica catch-up replays the op as
    a unit so batch atomicity holds on every replica.
    """

    __slots__ = ("first_seq", "last_seq", "records", "overrun", "batched", "insert")

    def __init__(
        self,
        first_seq: int,
        last_seq: int,
        records: list[Record],
        overrun: bool,
        batched: bool,
        insert: bool = False,
    ) -> None:
        self.first_seq = first_seq
        self.last_seq = last_seq
        self.records = records
        self.overrun = overrun
        self.batched = batched
        self.insert = insert


class ReplicatedServingEngine:
    """Durable multi-replica serving on top of a :class:`ModelStore`.

    Args:
        model: the fitted model to serve; it becomes the primary replica
            (replica 0) and is mutated by deletions.
        store: durable store providing the WAL and the snapshot directory.
        n_replicas: total replicas (including the primary); the others are
            deep copies created up front.
        consistency: one of :data:`CONSISTENCY_MODES`.
        applied_seq: the WAL sequence number already reflected in ``model``
            (non-zero when resuming from recovery).
        shard_id: owning shard when this engine serves one shard of a
            sharded deployment; stamped onto every audit entry and WAL
            frame it writes (``None`` = unsharded).
    """

    def __init__(
        self,
        model: HedgeCutClassifier,
        store: ModelStore,
        n_replicas: int = 2,
        consistency: str = "strong",
        applied_seq: int | None = None,
        shard_id: int | None = None,
    ) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if consistency not in CONSISTENCY_MODES:
            raise ValueError(
                f"consistency must be one of {CONSISTENCY_MODES}, got {consistency!r}"
            )
        if applied_seq is None:
            applied_seq = store.wal.last_seq
        self.store = store
        self.consistency = consistency
        if model.is_fitted:
            # Warm the packed read kernel and the write-side unlearn pack
            # before the replicas are copied: every replica then starts
            # pack-resident, so every write takes the native write kernel
            # of :mod:`repro.core.writes` from the first request
            # instead of paying a pack build (or the object walk) on the
            # serving hot path.
            model.packed.unlearn_pack()
        self._replicas = [_Replica(model, applied_seq)]
        for _ in range(n_replicas - 1):
            self._replicas.append(_Replica(copy.deepcopy(model), applied_seq))
        self._cursor = itertools.cycle(range(n_replicas))
        # In-memory tail of durable deletion ops not yet applied
        # everywhere. Pruned once all replicas pass.
        self._pending: list[_PendingOp] = []
        self.shard_id = shard_id
        self._audited = AuditedUnlearner(model=model, wal=store.wal, shard_id=shard_id)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def recover(
        cls,
        store: ModelStore,
        n_replicas: int = 2,
        consistency: str = "strong",
        shard_id: int | None = None,
    ) -> "ReplicatedServingEngine":
        """Restart after a crash: snapshot + WAL replay, then serve again."""
        recovered = store.recover()
        return cls(
            model=recovered.model,
            store=store,
            n_replicas=n_replicas,
            consistency=consistency,
            applied_seq=recovered.wal_seq,
            shard_id=shard_id,
        )

    # ------------------------------------------------------------------ #
    # replica plumbing
    # ------------------------------------------------------------------ #

    @property
    def n_replicas(self) -> int:
        return len(self._replicas)

    @property
    def primary(self) -> HedgeCutClassifier:
        return self._replicas[0].model

    @property
    def durable_seq(self) -> int:
        """Sequence number of the last durably logged deletion."""
        return self.store.wal.last_seq

    def staleness(self) -> list[int]:
        """Per-replica lag: durable deletions not yet applied to it."""
        return [self.durable_seq - replica.applied_seq for replica in self._replicas]

    def _catch_up(self, replica: _Replica, target_seq: int) -> None:
        for op in self._pending:
            if op.last_seq <= replica.applied_seq or op.last_seq > target_seq:
                continue
            try:
                if op.insert:
                    replica.model.learn_one(op.records[0])
                elif op.batched:
                    # Replay the batch through the same whole-batch-atomic
                    # kernel the primary used (forcing the packed form), so
                    # a batch either lands fully on this replica or not at
                    # all -- identical to the primary's outcome.
                    _ = replica.model.packed
                    replica.model.unlearn_batch(
                        op.records, allow_budget_overrun=op.overrun
                    )
                else:
                    replica.model.unlearn(
                        op.records[0], allow_budget_overrun=op.overrun
                    )
            except Exception:
                # The primary rejected this op too (deterministic
                # failure); replicas must mirror that outcome, not crash.
                pass
            replica.applied_seq = op.last_seq

    def _prune_pending(self) -> None:
        floor = min(replica.applied_seq for replica in self._replicas)
        self._pending = [op for op in self._pending if op.last_seq > floor]

    def sync(self) -> None:
        """Catch every replica up to the durable tail (eventual mode's flush)."""
        target = self._replicas[0].applied_seq
        for replica in self._replicas[1:]:
            self._catch_up(replica, target)
        self._prune_pending()

    def _next_replica(self) -> _Replica:
        replica = self._replicas[next(self._cursor)]
        if self.consistency == "read_your_deletes":
            self._catch_up(replica, self._replicas[0].applied_seq)
            self._prune_pending()
        return replica

    # ------------------------------------------------------------------ #
    # serving API
    # ------------------------------------------------------------------ #

    def predict(self, record: Record | Sequence[int] | np.ndarray) -> int:
        """Answer one prediction request from the next replica (round-robin)."""
        return self._next_replica().model.predict(record)

    def predict_proba(self, record: Record | Sequence[int] | np.ndarray) -> float:
        return self._next_replica().model.predict_proba(record)

    def predict_batch(self, dataset: Dataset) -> np.ndarray:
        """Route one batch prediction request to the next replica."""
        return self._next_replica().model.predict_batch(dataset)

    def predict_rows(self, values: np.ndarray) -> np.ndarray:
        """Answer one micro-batch of raw code rows with a single packed call.

        This is the dispatch target of
        :class:`~repro.serving.microbatch.MicroBatcher`: the whole
        ``(n_rows, n_features)`` matrix is routed to one replica and
        traversed by its packed ensemble kernel in one call.
        """
        return self._next_replica().model.predict_rows(values)

    def predict_proba_rows(self, values: np.ndarray) -> np.ndarray:
        """Soft-vote probabilities for one micro-batch of raw code rows.

        Used by the sharded aggregation path: each shard engine answers
        with its sub-ensemble's mean positive-class probability and the
        shard layer averages the contributions.
        """
        return self._next_replica().model.predict_proba_rows(values)

    def predict_votes_rows(self, values: np.ndarray) -> np.ndarray:
        """Positive hard-vote counts for one micro-batch of raw code rows.

        Vote counts from independent shards add; the shard layer applies
        the global majority threshold once over the summed counts.
        """
        return self._next_replica().model.predict_votes_rows(values)

    def unlearn(
        self, request_id: str, record: Record, allow_budget_overrun: bool = False
    ) -> AuditEntry:
        """Serve one GDPR deletion request durably.

        Protocol: (1) append to the WAL (the durability point -- once this
        returns, a crash cannot lose the request), (2) apply to the primary
        replica and record the audit entry with the durable log offset,
        (3) propagate to the other replicas according to the consistency
        mode.
        """
        entry = self._audited.unlearn(
            request_id, record, allow_budget_overrun=allow_budget_overrun
        )
        primary = self._replicas[0]
        if entry.log_offset is not None:
            primary.applied_seq = entry.log_offset
            self._pending.append(
                _PendingOp(
                    first_seq=entry.log_offset,
                    last_seq=entry.log_offset,
                    records=[record],
                    overrun=allow_budget_overrun,
                    batched=False,
                )
            )
        if self.consistency == "strong":
            for replica in self._replicas[1:]:
                self._catch_up(replica, primary.applied_seq)
            self._prune_pending()
        return entry

    def learn_one(self, request_id: str, record: Record) -> AuditEntry:
        """Serve one incremental-learning (insertion) request durably.

        Same protocol as :meth:`unlearn`: the insertion is appended to
        the shared WAL (preserving the insert/delete interleaving for
        replay) before the primary is touched, then propagated per the
        consistency mode.
        """
        entry = self._audited.learn_one(request_id, record)
        primary = self._replicas[0]
        if entry.log_offset is not None:
            primary.applied_seq = entry.log_offset
            self._pending.append(
                _PendingOp(
                    first_seq=entry.log_offset,
                    last_seq=entry.log_offset,
                    records=[record],
                    overrun=False,
                    batched=False,
                    insert=True,
                )
            )
        if self.consistency == "strong":
            for replica in self._replicas[1:]:
                self._catch_up(replica, primary.applied_seq)
            self._prune_pending()
        return entry

    def unlearn_batch(
        self,
        request_id: str,
        records: list[Record],
        allow_budget_overrun: bool = False,
        record_request_ids: list[str] | None = None,
    ) -> AuditEntry:
        """Serve one batch of deletion requests as a single durable op.

        The whole batch becomes **one** group-committed WAL frame (one
        flush/fsync instead of one per record -- the durability half of
        the batched delete path) and one pass of the vectorised
        batch-unlearning kernel on the primary. Propagation to the other
        replicas follows the consistency mode, replaying the batch as an
        atomic unit.
        """
        entry = self._audited.unlearn_batch(
            request_id,
            records,
            allow_budget_overrun=allow_budget_overrun,
            record_request_ids=record_request_ids,
        )
        primary = self._replicas[0]
        if entry.log_offset is not None:
            last_seq = entry.log_offset + len(records) - 1
            primary.applied_seq = last_seq
            self._pending.append(
                _PendingOp(
                    first_seq=entry.log_offset,
                    last_seq=last_seq,
                    records=list(records),
                    overrun=allow_budget_overrun,
                    batched=True,
                )
            )
        if self.consistency == "strong":
            for replica in self._replicas[1:]:
                self._catch_up(replica, primary.applied_seq)
            self._prune_pending()
        return entry

    # ------------------------------------------------------------------ #
    # audit and durability
    # ------------------------------------------------------------------ #

    @property
    def audit_entries(self) -> list[AuditEntry]:
        """The audit trail (every deletion request, with its log offset)."""
        return self._audited.entries

    def evidence_for(self, request_id: str) -> AuditEntry:
        return self._audited.evidence_for(request_id)

    def write_audit_log(self, path) -> None:
        self._audited.write_log(path)

    def snapshot(self):
        """Persist the current state and compact the WAL.

        The primary replica is always current (deletions apply to it before
        acknowledgement), so the snapshot is taken from it at its applied
        sequence number. Returns the
        :class:`~repro.persistence.snapshot.SnapshotInfo`.
        """
        primary = self._replicas[0]
        return self.store.save_snapshot(primary.model, wal_seq=primary.applied_seq)

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "ReplicatedServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
