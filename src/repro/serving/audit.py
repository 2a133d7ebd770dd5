"""Audit logging for unlearning requests.

GDPR compliance is not only about *doing* the erasure but about being able
to *evidence* it (Article 5(2), accountability). This module wraps a
deployed model with an audit trail: every deletion request is recorded
with its outcome, timing and the model-maintenance counters from the
:class:`~repro.core.unlearning.UnlearningReport`, and the log can be
persisted as JSON lines for retention.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.core.ensemble import HedgeCutClassifier
from repro.core.exceptions import HedgeCutError
from repro.dataprep.dataset import Record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.persistence.wal import WriteAheadLog


@dataclass(frozen=True)
class AuditEntry:
    """One processed deletion request.

    ``log_offset`` is the sequence number the request got in the durable
    write-ahead deletion log (:mod:`repro.persistence.wal`), when one is
    attached; it ties the audit trail to evidence that survives crashes.
    """

    request_id: str
    timestamp: float
    succeeded: bool
    latency_us: float
    leaves_updated: int = 0
    variant_switches: int = 0
    error: str | None = None
    log_offset: int | None = None
    #: Deletions covered by this entry; > 1 for group-committed batches
    #: (``log_offset`` is then the batch's first sequence number). The
    #: default keeps entries from pre-batching JSON logs loadable.
    n_records: int = 1
    #: Owning shard of a sharded deployment (``None`` when unsharded).
    #: Together with ``log_offset`` this traces a deletion end-to-end:
    #: request id -> shard -> that shard's WAL namespace and offset.
    shard_id: int | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "AuditEntry":
        return cls(**json.loads(line))


@dataclass
class AuditedUnlearner:
    """A deployed model plus an append-only deletion audit trail.

    The wrapper never swallows model errors silently: failed requests are
    recorded with their reason and re-raised flagged by ``strict`` (default
    off, because a serving loop usually answers the caller instead of
    crashing).

    When a write-ahead log is attached (``wal``), every request is appended
    to it *before* the model is touched -- the durability protocol of
    :mod:`repro.persistence` -- and the resulting audit entry carries the
    durable ``log_offset``. Failed requests stay in the log; replay fails
    them the same deterministic way, so recovery reproduces the audit
    outcome exactly.
    """

    model: HedgeCutClassifier
    strict: bool = False
    entries: list[AuditEntry] = field(default_factory=list)
    wal: "WriteAheadLog | None" = None
    #: Shard this unlearner serves in a sharded deployment; stamped onto
    #: every audit entry and WAL frame it produces (``None`` = unsharded).
    shard_id: int | None = None

    def unlearn(
        self, request_id: str, record: Record, allow_budget_overrun: bool = False
    ) -> AuditEntry:
        """Apply one deletion request and record the outcome."""
        start = time.perf_counter()
        log_offset = None
        if self.wal is not None and isinstance(record, Record):
            log_offset = self.wal.append(
                record,
                request_id=request_id,
                allow_budget_overrun=allow_budget_overrun,
                shard_id=self.shard_id,
            ).seq
        try:
            report = self.model.unlearn(
                record, allow_budget_overrun=allow_budget_overrun
            )
        except HedgeCutError as error:
            entry = AuditEntry(
                request_id=request_id,
                timestamp=time.time(),
                succeeded=False,
                latency_us=(time.perf_counter() - start) * 1e6,
                error=str(error),
                log_offset=log_offset,
                shard_id=self.shard_id,
            )
            self.entries.append(entry)
            if self.strict:
                raise
            return entry
        entry = AuditEntry(
            request_id=request_id,
            timestamp=time.time(),
            succeeded=True,
            latency_us=(time.perf_counter() - start) * 1e6,
            leaves_updated=report.leaves_updated,
            variant_switches=report.variant_switches,
            log_offset=log_offset,
            shard_id=self.shard_id,
        )
        self.entries.append(entry)
        return entry

    def learn_one(self, request_id: str, record: Record) -> AuditEntry:
        """Apply one audited insertion (incremental learning) request.

        Same durability protocol as deletions: with a WAL attached the
        insertion frame is appended -- in the shared sequence space, so
        replay preserves the exact insert/delete interleaving -- before
        the model is touched.
        """
        start = time.perf_counter()
        log_offset = None
        if self.wal is not None and isinstance(record, Record):
            log_offset = self.wal.append_insertion(
                record, request_id=request_id, shard_id=self.shard_id
            ).seq
        try:
            report = self.model.learn_one(record)
        except HedgeCutError as error:
            entry = AuditEntry(
                request_id=request_id,
                timestamp=time.time(),
                succeeded=False,
                latency_us=(time.perf_counter() - start) * 1e6,
                error=str(error),
                log_offset=log_offset,
                shard_id=self.shard_id,
            )
            self.entries.append(entry)
            if self.strict:
                raise
            return entry
        entry = AuditEntry(
            request_id=request_id,
            timestamp=time.time(),
            succeeded=True,
            latency_us=(time.perf_counter() - start) * 1e6,
            leaves_updated=report.leaves_updated,
            variant_switches=report.variant_switches,
            log_offset=log_offset,
            shard_id=self.shard_id,
        )
        self.entries.append(entry)
        return entry

    def unlearn_batch(
        self,
        request_id: str,
        records: list[Record],
        allow_budget_overrun: bool = False,
        record_request_ids: list[str] | None = None,
    ) -> AuditEntry:
        """Apply one batch of deletions as a single audited operation.

        With a WAL attached the whole batch is group-committed as **one**
        CRC frame with one flush/fsync before the model is touched;
        ``record_request_ids`` (optional, one per record) are stored inside
        the frame so per-record provenance survives in the durable log.
        The model-side apply is one native write-kernel call
        (:meth:`HedgeCutClassifier.unlearn_batch` on the packed model), so
        the batch is all-or-nothing -- matching its all-or-nothing
        crash-durability -- and the audit entry records the aggregate
        report under a single ``request_id`` with ``n_records`` members.
        """
        if not records:
            raise ValueError("cannot audit an empty deletion batch")
        start = time.perf_counter()
        log_offset = None
        if self.wal is not None:
            log_offset = self.wal.append_batch(
                records,
                request_ids=record_request_ids,
                allow_budget_overrun=allow_budget_overrun,
                shard_id=self.shard_id,
            ).first_seq
        # Force the packed form so the apply is the whole-batch-atomic
        # kernel: live outcome == WAL replay outcome == replica catch-up.
        _ = self.model.packed
        try:
            report = self.model.unlearn_batch(
                records, allow_budget_overrun=allow_budget_overrun
            )
        except HedgeCutError as error:
            entry = AuditEntry(
                request_id=request_id,
                timestamp=time.time(),
                succeeded=False,
                latency_us=(time.perf_counter() - start) * 1e6,
                error=str(error),
                log_offset=log_offset,
                shard_id=self.shard_id,
                n_records=len(records),
            )
            self.entries.append(entry)
            if self.strict:
                raise
            return entry
        entry = AuditEntry(
            request_id=request_id,
            timestamp=time.time(),
            succeeded=True,
            latency_us=(time.perf_counter() - start) * 1e6,
            leaves_updated=report.leaves_updated,
            variant_switches=report.variant_switches,
            log_offset=log_offset,
            shard_id=self.shard_id,
            n_records=len(records),
        )
        self.entries.append(entry)
        return entry

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def n_succeeded(self) -> int:
        return sum(entry.succeeded for entry in self.entries)

    @property
    def n_failed(self) -> int:
        return len(self.entries) - self.n_succeeded

    def failures(self) -> Iterator[AuditEntry]:
        return (entry for entry in self.entries if not entry.succeeded)

    def evidence_for(self, request_id: str) -> AuditEntry:
        """The accountability lookup: what happened to a given request."""
        for entry in self.entries:
            if entry.request_id == request_id:
                return entry
        raise KeyError(f"no audit entry for request {request_id!r}")

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def write_log(self, path: str | Path) -> None:
        """Persist the trail as JSON lines (one entry per line)."""
        with open(path, "w") as sink:
            for entry in self.entries:
                sink.write(entry.to_json() + "\n")

    @staticmethod
    def read_log(path: str | Path) -> list[AuditEntry]:
        with open(path) as source:
            return [AuditEntry.from_json(line) for line in source if line.strip()]
