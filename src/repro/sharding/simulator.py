"""Serving simulator for the sharded service: per-shard latency and balance.

Replays a :class:`~repro.serving.workload.Workload` (bursty deletion
storms, heavy-tailed per-user deletion sizes) against a fitted
:class:`~repro.sharding.model.ShardedHedgeCut`:

* predictions accumulate into micro-batches dispatched through the
  aggregated packed path (one call per shard per batch);
* each deletion event (one user's records) splits by owning shard and
  each shard's sub-batch runs through that shard's native write
  kernel, **timed per shard** -- the report exposes per-shard deletion
  latency percentiles and how evenly the deletion traffic spread over the
  shards (the shard-imbalance question SISA deployments care about).

Ordering matches the serving layer: a deletion event flushes the pending
prediction batch first, so no prediction in the schedule observes a
deletion that comes after it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.dataprep.dataset import Dataset, Record
from repro.serving.workload import Workload
from repro.sharding.model import ShardedHedgeCut
from repro.sharding.partitioner import PartitionStats


@dataclass
class ShardedRunReport:
    """Measurements of one sharded-simulator run."""

    n_shards: int
    n_predictions: int = 0
    n_deletion_events: int = 0
    n_deletions: int = 0
    total_seconds: float = 0.0
    n_batches: int = 0
    batch_seconds: float = 0.0
    batch_latencies_us: list[float] = field(default_factory=list)
    unlearn_seconds: float = 0.0
    #: Per-shard deletion sub-batch latencies (one sample per sub-batch).
    shard_unlearn_latencies_us: dict[int, list[float]] = field(default_factory=dict)
    #: Per-shard count of records deleted.
    shard_deletions: dict[int, int] = field(default_factory=dict)
    #: Deletions skipped because a shard's deletion budget ran out.
    n_budget_skipped: int = 0

    @property
    def requests_per_second(self) -> float:
        total = self.n_predictions + self.n_deletion_events
        return total / self.total_seconds if self.total_seconds > 0 else 0.0

    @property
    def rows_per_second(self) -> float:
        """Batched prediction throughput over in-dispatch seconds."""
        if self.batch_seconds <= 0:
            return 0.0
        return self.n_predictions / self.batch_seconds

    @property
    def deletions_per_second(self) -> float:
        """Record-deletion throughput over in-kernel seconds."""
        if self.unlearn_seconds <= 0:
            return 0.0
        return self.n_deletions / self.unlearn_seconds

    @property
    def deletion_balance(self) -> PartitionStats:
        """How evenly deletion traffic spread across the shards."""
        sizes = tuple(
            self.shard_deletions.get(shard, 0) for shard in range(self.n_shards)
        )
        return PartitionStats(shard_sizes=sizes)

    def shard_latency_percentile(self, shard: int, percentile: float) -> float:
        """Deletion sub-batch latency percentile (us) for one shard."""
        samples = self.shard_unlearn_latencies_us.get(shard)
        if not samples:
            raise ValueError(f"no deletion latencies recorded for shard {shard}")
        return float(np.percentile(np.asarray(samples), percentile))

    def unlearn_latency_percentile(self, percentile: float) -> float:
        """Deletion sub-batch latency percentile (us) across all shards."""
        samples = [
            sample
            for shard_samples in self.shard_unlearn_latencies_us.values()
            for sample in shard_samples
        ]
        if not samples:
            raise ValueError("no deletion latencies were recorded")
        return float(np.percentile(np.asarray(samples), percentile))


class ShardedServingSimulator:
    """Replays mixed workloads against a fitted sharded model.

    Args:
        model: the deployed :class:`ShardedHedgeCut`.
        prediction_pool: rows prediction events index into (the test set).
        unlearn_pool: training records deletion events consume, in order;
            each record is deleted at most once per run.
        batch_size: prediction micro-batch bound.
        record_latencies: collect per-dispatch latency samples.
    """

    def __init__(
        self,
        model: ShardedHedgeCut,
        prediction_pool: Dataset,
        unlearn_pool: list[Record] | None = None,
        batch_size: int = 64,
        record_latencies: bool = True,
    ) -> None:
        if prediction_pool.n_rows == 0:
            raise ValueError("prediction pool must not be empty")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.model = model
        self._pool_matrix = prediction_pool.feature_matrix()
        self.unlearn_pool = list(unlearn_pool or [])
        self.batch_size = batch_size
        self.record_latencies = record_latencies

    def run(self, workload: Workload) -> ShardedRunReport:
        """Replay one schedule; returns the per-shard measurement report.

        Deletion events beyond the unlearn pool (or the shards' remaining
        budgets) are skipped with the budget-overrun escape hatch off --
        the workload generator already caps deletions by the pool size, so
        this only matters for hand-built schedules.
        """
        model = self.model
        report = ShardedRunReport(n_shards=model.n_shards)
        pool_matrix = self._pool_matrix
        pending: list[int] = []
        pool_cursor = 0

        def dispatch_predictions() -> None:
            if not pending:
                return
            rows = pool_matrix[np.asarray(pending, dtype=np.intp)]
            batch_start = time.perf_counter()
            model.predict_rows(rows)
            elapsed = time.perf_counter() - batch_start
            report.n_batches += 1
            report.batch_seconds += elapsed
            if self.record_latencies:
                report.batch_latencies_us.append(elapsed * 1e6)
            pending.clear()

        start = time.perf_counter()
        for event in workload.events:
            if event.kind == "predict":
                pending.append(event.row)
                report.n_predictions += 1
                if len(pending) >= self.batch_size:
                    dispatch_predictions()
                continue

            # One user's deletion burst: ordering first, then per-shard
            # sub-batches through each owning shard's batch kernel.
            dispatch_predictions()
            records = self.unlearn_pool[pool_cursor : pool_cursor + event.size]
            pool_cursor += len(records)
            if not records:
                continue
            report.n_deletion_events += 1
            for shard_id, positions in sorted(model.group_by_shard(records).items()):
                sub_batch = [records[position] for position in positions]
                # A shard whose epsilon budget ran out would need retraining
                # in production; the simulator skips (and counts) instead.
                budget = model.shards[shard_id].remaining_deletion_budget
                if len(sub_batch) > budget:
                    report.n_budget_skipped += len(sub_batch) - budget
                    sub_batch = sub_batch[:budget]
                    if not sub_batch:
                        continue
                shard_start = time.perf_counter()
                model.shards[shard_id].unlearn_batch(sub_batch)
                elapsed = time.perf_counter() - shard_start
                report.unlearn_seconds += elapsed
                report.n_deletions += len(sub_batch)
                report.shard_deletions[shard_id] = (
                    report.shard_deletions.get(shard_id, 0) + len(sub_batch)
                )
                if self.record_latencies:
                    report.shard_unlearn_latencies_us.setdefault(
                        shard_id, []
                    ).append(elapsed * 1e6)
        dispatch_predictions()
        report.total_seconds = time.perf_counter() - start
        return report
