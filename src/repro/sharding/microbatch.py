"""The micro-batching front end of the sharded serving engine.

Online traffic arrives one request at a time, while the packed kernel
amortises its cost across a batch. :class:`ShardedMicroBatcher` collects
prediction requests until ``max_batch`` of them are queued or the oldest
has waited ``max_delay_ms`` (:class:`~repro.serving.microbatch.MicroBatchConfig`)
and answers them together. With one shard it is the plain batcher; with
``K`` shards it is SISA's shard-and-aggregate step.

A prediction submitted before a deletion must not observe it. A deletion
touches exactly one shard, so only **that shard's contribution** to the
pending predictions has to be computed before the deletion applies:

* every queued prediction accumulates one contribution per shard (vote
  counts for label requests, probability means for soft-vote requests);
* a deletion routed to shard ``i`` forces shard ``i`` to contribute to the
  currently pending rows (a *partial* flush -- one packed call on shard
  ``i`` only), then joins shard ``i``'s deletion-coalescing window; the
  other shards' windows keep filling undisturbed. When no other shard
  still owes those rows an answer (always, at one shard), the window
  resolves at once as a forced flush;
* the full window dispatch (size/delay/forced) asks each shard only for
  the rows it has not contributed to yet, so no work is repeated.

Ordering invariant: a prediction submission first dispatches every
shard's queued deletions, so while prediction rows accumulate no deletion
window is open -- every queued deletion postdates every pending row, and
its owning shard's contributions were computed at deletion-submit time.
The interleaving a caller observes equals submission order, per shard.

Deletions for the same shard coalesce into one group-committed WAL frame
and one batch-kernel pass on that shard (a GDPR deletion storm against one
user's shard costs one sync) instead of a write and a sync per
deletion.

The batcher is synchronous, like the rest of the serving layer: a caller
that needs an answer before the window fills calls ``result()`` on its
handle, which forces a flush. The clock is injectable so tests can drive
the delay windows deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.dataprep.dataset import Record
from repro.serving.audit import AuditEntry
from repro.serving.microbatch import (
    FLUSH_FORCED,
    FLUSH_FULL,
    FLUSH_WINDOW,
    MicroBatchConfig,
)
from repro.sharding.service import ShardedServingEngine

#: Partial flush of one shard's contributions, triggered by a routed
#: deletion. The other shards' windows are left untouched.
FLUSH_SHARD = "shard"


@dataclass
class ShardedMicroBatchStats:
    """Dispatch accounting of one :class:`ShardedMicroBatcher`."""

    n_requests: int = 0
    n_batches: int = 0
    dispatch_seconds: float = 0.0
    batch_sizes: list[int] = field(default_factory=list)
    flush_reasons: dict[str, int] = field(
        default_factory=lambda: {
            FLUSH_FULL: 0,
            FLUSH_WINDOW: 0,
            FLUSH_FORCED: 0,
            FLUSH_SHARD: 0,
        }
    )
    #: Partial (single-shard) contribution flushes, per shard.
    partial_flushes: dict[int, int] = field(default_factory=dict)
    #: Rows computed during partial flushes, per shard.
    partial_rows: dict[int, int] = field(default_factory=dict)
    n_unlearn_requests: int = 0
    n_unlearn_batches: int = 0
    unlearn_batch_sizes: dict[int, list[int]] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        return self.n_requests / self.n_batches if self.n_batches else 0.0

    @property
    def rows_per_second(self) -> float:
        if self.dispatch_seconds <= 0:
            return 0.0
        return self.n_requests / self.dispatch_seconds


class PendingShardedPrediction:
    """Handle for a queued prediction; resolves once every shard contributed."""

    __slots__ = ("_batcher", "_proba_mode", "_votes", "_proba", "_n_contributed",
                 "_result")

    def __init__(self, batcher: "ShardedMicroBatcher", proba_mode: bool) -> None:
        self._batcher = batcher
        self._proba_mode = proba_mode
        self._votes = 0
        self._proba = 0.0
        self._n_contributed = 0
        self._result: int | float | None = None

    @property
    def done(self) -> bool:
        return self._result is not None

    def _contribute(self, votes: int | None, proba: float | None) -> None:
        if votes is not None:
            self._votes += votes
        if proba is not None:
            self._proba += proba
        self._n_contributed += 1

    def _resolve(self, n_shards: int, n_trees: int) -> None:
        assert self._n_contributed == n_shards
        if self._proba_mode:
            self._result = self._proba / n_shards
        else:
            self._result = 1 if 2 * self._votes > n_trees else 0

    def result(self) -> int | float:
        """The aggregated answer; forces a flush if still queued."""
        if self._result is None:
            self._batcher.flush()
        assert self._result is not None
        return self._result


class PendingShardUnlearn:
    """Handle for a deletion queued in its owning shard's window."""

    __slots__ = ("_batcher", "_shard", "_entry")

    def __init__(self, batcher: "ShardedMicroBatcher", shard: int) -> None:
        self._batcher = batcher
        self._shard = shard
        self._entry: AuditEntry | None = None

    @property
    def shard_id(self) -> int:
        return self._shard

    @property
    def done(self) -> bool:
        return self._entry is not None

    def result(self) -> AuditEntry:
        """The shard batch's audit entry; forces that shard's flush."""
        if self._entry is None:
            self._batcher.flush_unlearns(self._shard)
        assert self._entry is not None
        return self._entry


class _ShardUnlearnWindow:
    """One shard's open deletion-coalescing window."""

    __slots__ = ("records", "ids", "handles", "overrun", "oldest")

    def __init__(self) -> None:
        self.records: list[Record] = []
        self.ids: list[str] = []
        self.handles: list[PendingShardUnlearn] = []
        self.overrun = False
        self.oldest: float | None = None


class ShardedMicroBatcher:
    """Collects requests against a :class:`ShardedServingEngine`.

    Args:
        engine: the sharded engine answering batches and deletions.
        config: batching policy (size and delay bounds), shared by the
            prediction window and every shard's deletion window.
        clock: injectable monotonic time source (tests drive the windows
            deterministically).
    """

    def __init__(
        self,
        engine: ShardedServingEngine,
        config: MicroBatchConfig | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.engine = engine
        self.config = config or MicroBatchConfig()
        self.stats = ShardedMicroBatchStats()
        self._clock = clock
        self._rows: list[Sequence[int]] = []
        self._handles: list[PendingShardedPrediction] = []
        self._oldest: float | None = None
        # rows[:done_upto[s]] already carry shard s's contribution.
        self._done_upto = [0] * engine.n_shards
        self._unlearn_windows = [
            _ShardUnlearnWindow() for _ in range(engine.n_shards)
        ]

    @property
    def n_queued(self) -> int:
        return len(self._rows)

    def n_queued_unlearns(self, shard: int | None = None) -> int:
        if shard is not None:
            return len(self._unlearn_windows[shard].records)
        return sum(len(window.records) for window in self._unlearn_windows)

    def shard_pending_rows(self, shard: int) -> int:
        """Pending rows shard ``shard`` has not contributed to yet."""
        return len(self._rows) - self._done_upto[shard]

    # ------------------------------------------------------------------ #
    # predictions
    # ------------------------------------------------------------------ #

    @staticmethod
    def _as_row(record: Record | Sequence[int] | np.ndarray) -> Sequence[int]:
        if isinstance(record, Record):
            return record.values
        return record

    def _submit(self, record, proba_mode: bool) -> PendingShardedPrediction:
        # Queued deletions (on any shard) must land before this prediction.
        self.flush_unlearns()
        handle = PendingShardedPrediction(self, proba_mode)
        self._rows.append(self._as_row(record))
        self._handles.append(handle)
        if self._oldest is None:
            self._oldest = self._clock()
        if len(self._rows) >= self.config.max_batch:
            self._dispatch(FLUSH_FULL)
        elif (self._clock() - self._oldest) * 1e3 >= self.config.max_delay_ms:
            self._dispatch(FLUSH_WINDOW)
        return handle

    def submit_predict(
        self, record: Record | Sequence[int] | np.ndarray
    ) -> PendingShardedPrediction:
        """Queue one label request (aggregated hard vote across shards)."""
        return self._submit(record, proba_mode=False)

    def submit_predict_proba(
        self, record: Record | Sequence[int] | np.ndarray
    ) -> PendingShardedPrediction:
        """Queue one soft-vote probability request."""
        return self._submit(record, proba_mode=True)

    def flush(self) -> int:
        """Dispatch the pending prediction window; returns its size."""
        if not self._rows:
            return 0
        return self._dispatch(FLUSH_FORCED)

    def _contribute_shard(self, shard: int) -> int:
        """Fold shard ``shard``'s answers into every uncovered pending row.

        One packed call per needed kind (votes / probabilities) on this
        shard only -- the partial flush a routed deletion triggers.
        """
        start_at = self._done_upto[shard]
        pending = self._handles[start_at:]
        if not pending:
            self._done_upto[shard] = len(self._rows)
            return 0
        rows = self._rows[start_at:]
        engine = self.engine.engines[shard]
        label_positions = [
            index for index, handle in enumerate(pending) if not handle._proba_mode
        ]
        proba_positions = [
            index for index, handle in enumerate(pending) if handle._proba_mode
        ]
        started = self._clock()
        if label_positions:
            matrix = np.asarray(
                [rows[index] for index in label_positions], dtype=np.int64
            )
            votes = engine.predict_votes_rows(matrix)
            for index, vote in zip(label_positions, votes):
                pending[index]._contribute(int(vote), None)
        if proba_positions:
            matrix = np.asarray(
                [rows[index] for index in proba_positions], dtype=np.int64
            )
            probas = engine.predict_proba_rows(matrix)
            for index, proba in zip(proba_positions, probas):
                pending[index]._contribute(None, float(proba))
        self.stats.dispatch_seconds += self._clock() - started
        self._done_upto[shard] = len(self._rows)
        return len(pending)

    def _dispatch(self, reason: str) -> int:
        handles = self._handles
        n_shards = self.engine.n_shards
        n_trees = self.engine.model.n_trees
        for shard in range(n_shards):
            self._contribute_shard(shard)
        for handle in handles:
            handle._resolve(n_shards, n_trees)
        size = len(handles)
        self._rows = []
        self._handles = []
        self._oldest = None
        self._done_upto = [0] * n_shards
        self.stats.n_requests += size
        self.stats.n_batches += 1
        self.stats.flush_reasons[reason] += 1
        self.stats.batch_sizes.append(size)
        return size

    # ------------------------------------------------------------------ #
    # deletions
    # ------------------------------------------------------------------ #

    def _answer_before_deletion(self, shard: int) -> None:
        """Fold shard ``shard``'s answers into the pending rows it lacks.

        A deletion on ``shard`` must not be observed by the predictions
        queued before it. When every other shard has already answered
        those rows (always, at one shard) this completes the window, which
        then resolves as a forced flush; otherwise it is a partial flush
        of ``shard`` alone and the window keeps filling.
        """
        covered = self.shard_pending_rows(shard)
        if not covered:
            return
        n_rows = len(self._rows)
        if all(
            upto == n_rows
            for other, upto in enumerate(self._done_upto)
            if other != shard
        ):
            self._dispatch(FLUSH_FORCED)
            return
        self._contribute_shard(shard)
        self.stats.flush_reasons[FLUSH_SHARD] += 1
        self.stats.partial_flushes[shard] = (
            self.stats.partial_flushes.get(shard, 0) + 1
        )
        self.stats.partial_rows[shard] = (
            self.stats.partial_rows.get(shard, 0) + covered
        )

    def submit_unlearn(
        self,
        request_id: str,
        record: Record,
        allow_budget_overrun: bool = False,
    ) -> PendingShardUnlearn:
        """Queue one deletion in its owning shard's coalescing window.

        Only the owning shard's pending prediction contributions are forced
        (partial flush); every other shard's window keeps filling. A change
        of the overrun flag closes the shard's open window first, because
        the WAL frame carries one flag per batch.
        """
        shard = self.engine.owning_shard(record)
        self._answer_before_deletion(shard)
        window = self._unlearn_windows[shard]
        if window.records and window.overrun != allow_budget_overrun:
            self.flush_unlearns(shard)
            window = self._unlearn_windows[shard]
        handle = PendingShardUnlearn(self, shard)
        window.records.append(record)
        window.ids.append(request_id)
        window.handles.append(handle)
        window.overrun = allow_budget_overrun
        if window.oldest is None:
            window.oldest = self._clock()
        if len(window.records) >= self.config.max_batch:
            self._dispatch_unlearns(shard, FLUSH_FULL)
        elif (self._clock() - window.oldest) * 1e3 >= self.config.max_delay_ms:
            self._dispatch_unlearns(shard, FLUSH_WINDOW)
        return handle

    def unlearn(self, request_id: str, record: Record, **kwargs) -> AuditEntry:
        """Synchronous deletion: owning shard's windows drain, then apply.

        The non-coalescing path (answer before returning). Only the owning
        shard's state is forced; other shards' prediction windows keep
        filling -- the whole point of shard-aware flushing.
        """
        shard = self.engine.owning_shard(record)
        self._answer_before_deletion(shard)
        self.flush_unlearns(shard)
        return self.engine.engines[shard].unlearn(request_id, record, **kwargs)

    def flush_unlearns(self, shard: int | None = None) -> int:
        """Dispatch queued deletions (one shard, or all); returns the count."""
        if shard is not None:
            if not self._unlearn_windows[shard].records:
                return 0
            return self._dispatch_unlearns(shard, FLUSH_FORCED)
        total = 0
        for shard_id in range(self.engine.n_shards):
            if self._unlearn_windows[shard_id].records:
                total += self._dispatch_unlearns(shard_id, FLUSH_FORCED)
        return total

    def _dispatch_unlearns(self, shard: int, reason: str) -> int:
        window = self._unlearn_windows[shard]
        records = window.records
        ids = window.ids
        handles = window.handles
        overrun = window.overrun
        self._unlearn_windows[shard] = _ShardUnlearnWindow()

        entry = self.engine.engines[shard].unlearn_batch(
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
        self.stats.unlearn_batch_sizes.setdefault(shard, []).append(len(handles))
        return len(handles)
