"""Micro-batching front end for the replicated serving engine.

Single-record prediction pays a Python-level tree walk per request; the
packed kernel (:mod:`repro.core.packed`) amortises that cost across a
whole batch, but online traffic arrives one request at a time. The
:class:`MicroBatcher` bridges the two: it collects incoming prediction
requests until either ``max_batch`` of them are queued or the oldest one
has waited ``max_delay_ms``, then dispatches the whole batch as **one**
packed-kernel call on the next replica (round-robin, honouring the
engine's read-consistency mode).

Deletion requests flush the queue first, so a prediction submitted before
an ``unlearn`` never observes the deletion -- the front end preserves the
engine's request ordering exactly.

Deletions micro-batch too: :meth:`MicroBatcher.submit_unlearn` coalesces
requests arriving inside the same window into **one** group-committed WAL
frame and one pass of the batch-unlearning kernel
(:meth:`ReplicatedServingEngine.unlearn_batch`) instead of a flush and an
fsync per deletion. At most one queue kind is ever open: a prediction
arrival flushes queued deletions first and vice versa, so the
interleaving a caller observes equals submission order.

The batcher is synchronous (matching the rest of the serving layer): a
caller that needs an answer before the batch fills calls
:meth:`PendingPrediction.result`, which forces a flush. The wall clock is
injectable so tests can drive the delay window deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.dataprep.dataset import Record
from repro.serving.audit import AuditEntry
from repro.serving.engine import ReplicatedServingEngine

#: Flush triggers, recorded per batch in :class:`MicroBatchStats`.
FLUSH_FULL = "full"
FLUSH_WINDOW = "window"
FLUSH_FORCED = "forced"


@dataclass(frozen=True)
class MicroBatchConfig:
    """Batching policy of the front end.

    Attributes:
        max_batch: dispatch as soon as this many requests are queued.
        max_delay_ms: dispatch once the oldest queued request has waited
            this long, even if the batch is not full (bounds added latency).
    """

    max_batch: int = 256
    max_delay_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be non-negative")


@dataclass
class MicroBatchStats:
    """Dispatch accounting of one :class:`MicroBatcher`."""

    n_requests: int = 0
    n_batches: int = 0
    dispatch_seconds: float = 0.0
    flush_reasons: dict[str, int] = field(
        default_factory=lambda: {FLUSH_FULL: 0, FLUSH_WINDOW: 0, FLUSH_FORCED: 0}
    )
    batch_sizes: list[int] = field(default_factory=list)
    n_unlearn_requests: int = 0
    n_unlearn_batches: int = 0
    unlearn_batch_sizes: list[int] = field(default_factory=list)

    @property
    def mean_unlearn_batch_size(self) -> float:
        if not self.n_unlearn_batches:
            return 0.0
        return self.n_unlearn_requests / self.n_unlearn_batches

    @property
    def mean_batch_size(self) -> float:
        return self.n_requests / self.n_batches if self.n_batches else 0.0

    @property
    def rows_per_second(self) -> float:
        """Prediction throughput over the time spent inside dispatches."""
        if self.dispatch_seconds <= 0:
            return 0.0
        return self.n_requests / self.dispatch_seconds


class PendingPrediction:
    """Handle for a queued prediction; resolves when its batch dispatches."""

    __slots__ = ("_batcher", "_label")

    def __init__(self, batcher: "MicroBatcher") -> None:
        self._batcher = batcher
        self._label: int | None = None

    @property
    def done(self) -> bool:
        return self._label is not None

    def result(self) -> int:
        """The predicted label; forces a flush if the batch is still open."""
        if self._label is None:
            self._batcher.flush()
        assert self._label is not None  # flush resolves every queued handle
        return self._label


class PendingUnlearn:
    """Handle for a queued deletion; resolves when its batch group-commits.

    Every member of one coalesced batch shares the batch's
    :class:`AuditEntry` (one audited operation, ``n_records`` members).
    """

    __slots__ = ("_batcher", "_entry")

    def __init__(self, batcher: "MicroBatcher") -> None:
        self._batcher = batcher
        self._entry: AuditEntry | None = None

    @property
    def done(self) -> bool:
        return self._entry is not None

    def result(self) -> AuditEntry:
        """The batch's audit entry; forces a flush if still queued."""
        if self._entry is None:
            self._batcher.flush_unlearns()
        assert self._entry is not None  # flush resolves every queued handle
        return self._entry


class MicroBatcher:
    """Collects prediction requests and dispatches them in packed batches.

    Args:
        engine: the replicated engine answering the batches.
        config: batching policy (size and delay bounds).
        clock: monotonic time source in seconds; tests inject a fake one
            to exercise the delay window without sleeping.
    """

    def __init__(
        self,
        engine: ReplicatedServingEngine,
        config: MicroBatchConfig | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.engine = engine
        self.config = config or MicroBatchConfig()
        self.stats = MicroBatchStats()
        self._clock = clock
        self._rows: list[Sequence[int]] = []
        self._handles: list[PendingPrediction] = []
        self._oldest: float | None = None
        self._unlearn_records: list[Record] = []
        self._unlearn_ids: list[str] = []
        self._unlearn_handles: list[PendingUnlearn] = []
        self._unlearn_overrun = False
        self._unlearn_oldest: float | None = None

    @property
    def n_queued(self) -> int:
        return len(self._rows)

    @property
    def n_queued_unlearns(self) -> int:
        return len(self._unlearn_records)

    @staticmethod
    def _as_row(record: Record | Sequence[int] | np.ndarray) -> Sequence[int]:
        if isinstance(record, Record):
            return record.values
        return record

    def submit_predict(
        self, record: Record | Sequence[int] | np.ndarray
    ) -> PendingPrediction:
        """Queue one prediction request; may trigger a dispatch.

        Queued deletions are flushed first: a prediction submitted after a
        deletion must observe it.
        """
        self.flush_unlearns()
        handle = PendingPrediction(self)
        self._rows.append(self._as_row(record))
        self._handles.append(handle)
        if self._oldest is None:
            self._oldest = self._clock()
        if len(self._rows) >= self.config.max_batch:
            self._dispatch(FLUSH_FULL)
        elif (self._clock() - self._oldest) * 1e3 >= self.config.max_delay_ms:
            self._dispatch(FLUSH_WINDOW)
        return handle

    def flush(self) -> int:
        """Dispatch whatever is queued; returns the batch size (0 if empty)."""
        if not self._rows:
            return 0
        return self._dispatch(FLUSH_FORCED)

    def unlearn(self, request_id: str, record: Record, **kwargs):
        """Flush queued work, then forward the deletion to the engine.

        The synchronous, non-coalescing path (answer before returning).
        Flushing first pins the ordering: predictions submitted before the
        deletion are answered by pre-deletion state on some replica, never
        by post-deletion state, and earlier queued deletions land first.
        """
        self.flush()
        self.flush_unlearns()
        return self.engine.unlearn(request_id, record, **kwargs)

    def submit_unlearn(
        self,
        request_id: str,
        record: Record,
        allow_budget_overrun: bool = False,
    ) -> PendingUnlearn:
        """Queue one deletion for the current coalescing window.

        Deletions queued inside one window dispatch as a single
        group-committed WAL frame and one batch-kernel pass. Queued
        predictions are flushed first (they must not observe this
        deletion). A change of the ``allow_budget_overrun`` flag closes
        the open window because the WAL frame carries one flag per batch.
        """
        self.flush()
        if self._unlearn_records and allow_budget_overrun != self._unlearn_overrun:
            self.flush_unlearns()
        handle = PendingUnlearn(self)
        self._unlearn_records.append(record)
        self._unlearn_ids.append(request_id)
        self._unlearn_handles.append(handle)
        self._unlearn_overrun = allow_budget_overrun
        if self._unlearn_oldest is None:
            self._unlearn_oldest = self._clock()
        if len(self._unlearn_records) >= self.config.max_batch:
            self._dispatch_unlearns(FLUSH_FULL)
        elif (self._clock() - self._unlearn_oldest) * 1e3 >= self.config.max_delay_ms:
            self._dispatch_unlearns(FLUSH_WINDOW)
        return handle

    def flush_unlearns(self) -> int:
        """Dispatch queued deletions; returns the batch size (0 if empty)."""
        if not self._unlearn_records:
            return 0
        return self._dispatch_unlearns(FLUSH_FORCED)

    def _dispatch_unlearns(self, reason: str) -> int:
        records = self._unlearn_records
        ids = self._unlearn_ids
        handles = self._unlearn_handles
        overrun = self._unlearn_overrun
        self._unlearn_records = []
        self._unlearn_ids = []
        self._unlearn_handles = []
        self._unlearn_oldest = None

        entry = self.engine.unlearn_batch(
            ids[0] if len(ids) == 1 else f"{ids[0]}+{len(ids) - 1}",
            records,
            allow_budget_overrun=overrun,
            record_request_ids=ids,
        )
        for handle in handles:
            handle._entry = entry
        self.stats.n_unlearn_requests += len(handles)
        self.stats.n_unlearn_batches += 1
        self.stats.flush_reasons[reason] += 1
        self.stats.unlearn_batch_sizes.append(len(handles))
        return len(handles)

    def _dispatch(self, reason: str) -> int:
        matrix = np.asarray(self._rows, dtype=np.int64)
        handles = self._handles
        self._rows = []
        self._handles = []
        self._oldest = None

        started = self._clock()
        labels = self.engine.predict_rows(matrix)
        elapsed = self._clock() - started

        for handle, label in zip(handles, labels):
            handle._label = int(label)
        self.stats.n_requests += len(handles)
        self.stats.n_batches += 1
        self.stats.dispatch_seconds += elapsed
        self.stats.flush_reasons[reason] += 1
        self.stats.batch_sizes.append(len(handles))
        return len(handles)
