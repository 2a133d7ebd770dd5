"""Single-node serving loop mixing prediction and unlearning requests."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.ensemble import HedgeCutClassifier
from repro.dataprep.dataset import Dataset, Record


@dataclass(frozen=True)
class RequestMix:
    """Workload composition for one simulator run.

    Attributes:
        n_requests: total number of requests issued.
        unlearn_fraction: fraction of requests replaced by unlearning
            requests (the paper mixes in deletion requests for 0.1% of the
            training records by replacing randomly selected prediction
            requests, Section 6.2.2).
    """

    n_requests: int
    unlearn_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("n_requests must be positive")
        if not 0.0 <= self.unlearn_fraction < 1.0:
            raise ValueError("unlearn_fraction must be in [0, 1)")


@dataclass
class ThroughputReport:
    """Measurements of one serving-simulator run.

    When the simulator runs with a batch window (``batch_size`` set),
    predictions are dispatched in micro-batches through the packed kernel:
    ``n_batches`` counts the dispatches, ``batch_latencies_us`` holds one
    latency sample per dispatch, and ``rows_per_second`` reports the
    prediction throughput over the time actually spent inside dispatches.
    """

    n_predictions: int
    n_unlearnings: int
    total_seconds: float
    prediction_latencies_us: list[float] = field(default_factory=list)
    unlearning_latencies_us: list[float] = field(default_factory=list)
    n_batches: int = 0
    batch_latencies_us: list[float] = field(default_factory=list)
    batch_seconds: float = 0.0

    @property
    def requests_per_second(self) -> float:
        total = self.n_predictions + self.n_unlearnings
        return total / self.total_seconds if self.total_seconds > 0 else 0.0

    @property
    def predictions_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.n_predictions / self.total_seconds

    @property
    def rows_per_second(self) -> float:
        """Batched prediction throughput (rows over in-dispatch seconds)."""
        if self.batch_seconds <= 0:
            return 0.0
        return self.n_predictions / self.batch_seconds

    def latency_percentile(self, percentile: float, kind: str = "prediction") -> float:
        """Latency percentile in microseconds for one request kind.

        ``kind`` is ``"prediction"``, ``"unlearning"`` or ``"batch"`` (one
        sample per micro-batch dispatch of a batched run).
        """
        if kind == "prediction":
            samples = self.prediction_latencies_us
        elif kind == "batch":
            samples = self.batch_latencies_us
        else:
            samples = self.unlearning_latencies_us
        if not samples:
            raise ValueError(f"no {kind} latencies were recorded")
        return float(np.percentile(np.asarray(samples), percentile))


class ServingSimulator:
    """Drives a deployed HedgeCut model with a mixed online workload.

    Args:
        model: a fitted classifier (the "deployed model").
        prediction_pool: records predictions are drawn from (the test set).
        unlearn_pool: training records available for deletion requests;
            each is unlearned at most once per run.
        seed: request-schedule randomness.
        record_latencies: collect per-request latencies (adds measurement
            overhead; throughput experiments disable it).
        batch_size: when set, predictions are collected into micro-batches
            of up to this many requests and dispatched through the packed
            batch kernel; an unlearning request (or the end of the run)
            flushes the open batch first, preserving request ordering.
    """

    def __init__(
        self,
        model: HedgeCutClassifier,
        prediction_pool: Dataset,
        unlearn_pool: list[Record] | None = None,
        seed: int | None = None,
        record_latencies: bool = False,
        batch_size: int | None = None,
    ) -> None:
        if prediction_pool.n_rows == 0:
            raise ValueError("prediction pool must not be empty")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive when set")
        self.model = model
        self.prediction_values = [
            prediction_pool.record(row).values for row in range(prediction_pool.n_rows)
        ]
        self._pool_matrix = prediction_pool.feature_matrix()
        self.unlearn_pool = list(unlearn_pool or [])
        self.seed = seed
        self.record_latencies = record_latencies
        self.batch_size = batch_size

    def run(self, mix: RequestMix) -> ThroughputReport:
        """Execute one workload and measure throughput (and latencies).

        Unlearning requests are scheduled by replacing randomly selected
        prediction slots, capped by the available unlearn pool and the
        model's remaining deletion budget.

        Rounding rule: the unlearning request count is
        ``round(n_requests * unlearn_fraction)`` (banker's rounding), but
        whenever ``unlearn_fraction > 0`` at least one unlearning request is
        issued -- small workloads must not silently degenerate into
        prediction-only runs (e.g. ``n_requests=2, unlearn_fraction=0.2``
        would otherwise round to zero). The pool/budget caps still apply
        after this floor.
        """
        rng = np.random.default_rng(self.seed)
        n_scheduled = int(round(mix.n_requests * mix.unlearn_fraction))
        if mix.unlearn_fraction > 0.0:
            n_scheduled = max(1, n_scheduled)
        n_unlearn = min(
            n_scheduled,
            len(self.unlearn_pool),
            self.model.remaining_deletion_budget,
        )
        unlearn_slots = set(
            int(slot)
            for slot in rng.choice(mix.n_requests, size=n_unlearn, replace=False)
        )
        prediction_choices = rng.integers(
            0, len(self.prediction_values), size=mix.n_requests
        )

        predict = self.model.predict
        unlearn = self.model.unlearn
        prediction_values = self.prediction_values
        unlearn_queue = iter(self.unlearn_pool[:n_unlearn])

        report = ThroughputReport(
            n_predictions=mix.n_requests - n_unlearn,
            n_unlearnings=n_unlearn,
            total_seconds=0.0,
        )

        if self.batch_size is not None:
            self._run_batched(
                mix, unlearn_slots, prediction_choices, unlearn_queue, report
            )
            return report

        start = time.perf_counter()
        if self.record_latencies:
            for slot in range(mix.n_requests):
                request_start = time.perf_counter()
                if slot in unlearn_slots:
                    unlearn(next(unlearn_queue))
                    elapsed = (time.perf_counter() - request_start) * 1e6
                    report.unlearning_latencies_us.append(elapsed)
                else:
                    predict(prediction_values[prediction_choices[slot]])
                    elapsed = (time.perf_counter() - request_start) * 1e6
                    report.prediction_latencies_us.append(elapsed)
        else:
            for slot in range(mix.n_requests):
                if slot in unlearn_slots:
                    unlearn(next(unlearn_queue))
                else:
                    predict(prediction_values[prediction_choices[slot]])
        report.total_seconds = time.perf_counter() - start
        return report

    def _run_batched(
        self,
        mix: RequestMix,
        unlearn_slots: set[int],
        prediction_choices: np.ndarray,
        unlearn_queue,
        report: ThroughputReport,
    ) -> None:
        """Batched request loop: predictions go through the packed kernel.

        Consecutive prediction requests accumulate into a micro-batch that
        is dispatched when it reaches ``batch_size``, when an unlearning
        request arrives (ordering: the batch predates the deletion), or at
        the end of the run.
        """
        predict_rows = self.model.predict_rows
        unlearn = self.model.unlearn
        pool_matrix = self._pool_matrix
        batch_size = self.batch_size
        pending: list[int] = []

        def dispatch() -> None:
            if not pending:
                return
            rows = pool_matrix[np.asarray(pending, dtype=np.intp)]
            batch_start = time.perf_counter()
            predict_rows(rows)
            elapsed = time.perf_counter() - batch_start
            report.n_batches += 1
            report.batch_seconds += elapsed
            if self.record_latencies:
                report.batch_latencies_us.append(elapsed * 1e6)
            pending.clear()

        start = time.perf_counter()
        for slot in range(mix.n_requests):
            if slot in unlearn_slots:
                dispatch()
                if self.record_latencies:
                    request_start = time.perf_counter()
                    unlearn(next(unlearn_queue))
                    elapsed = (time.perf_counter() - request_start) * 1e6
                    report.unlearning_latencies_us.append(elapsed)
                else:
                    unlearn(next(unlearn_queue))
            else:
                pending.append(int(prediction_choices[slot]))
                if len(pending) >= batch_size:
                    dispatch()
        dispatch()
        report.total_seconds = time.perf_counter() - start


class EngineServingSimulator:
    """Drives a *serving engine* with the same mixed online workload.

    Where :class:`ServingSimulator` measures the bare model,
    this variant measures a deployment front end -- anything exposing the
    engine surface (``predict_rows`` + ``unlearn``):
    :class:`~repro.serving.engine.ReplicatedServingEngine` (in-process
    replicas), :class:`~repro.serving.shm.ShmReplicatedServingEngine`
    (shared-memory reader fleet) or a sharded composition of either. The
    CLI's ``serve`` command uses it to compare ``--serving inprocess``
    against ``--serving shm`` under an identical request schedule.

    Args:
        engine: the deployment under test (not owned; caller closes it).
        prediction_pool: records predictions are drawn from.
        unlearn_pool: training records available for deletion requests.
        seed: request-schedule randomness (same seed + pools = same
            schedule across engines, which is what makes A/B runs fair).
        record_latencies: collect per-dispatch latency samples.
        batch_size: micro-batch bound for prediction dispatches.
    """

    def __init__(
        self,
        engine,
        prediction_pool: Dataset,
        unlearn_pool: list[Record] | None = None,
        seed: int | None = None,
        record_latencies: bool = False,
        batch_size: int = 64,
    ) -> None:
        if prediction_pool.n_rows == 0:
            raise ValueError("prediction pool must not be empty")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.engine = engine
        self._pool_matrix = prediction_pool.feature_matrix()
        self.unlearn_pool = list(unlearn_pool or [])
        self.seed = seed
        self.record_latencies = record_latencies
        self.batch_size = batch_size

    def run(self, mix: RequestMix) -> ThroughputReport:
        """Execute one workload against the engine (see
        :meth:`ServingSimulator.run` for the scheduling rules)."""
        rng = np.random.default_rng(self.seed)
        n_scheduled = int(round(mix.n_requests * mix.unlearn_fraction))
        if mix.unlearn_fraction > 0.0:
            n_scheduled = max(1, n_scheduled)
        n_unlearn = min(n_scheduled, len(self.unlearn_pool))
        unlearn_slots = set(
            int(slot)
            for slot in rng.choice(mix.n_requests, size=n_unlearn, replace=False)
        )
        prediction_choices = rng.integers(
            0, self._pool_matrix.shape[0], size=mix.n_requests
        )
        unlearn_queue = iter(self.unlearn_pool[:n_unlearn])

        report = ThroughputReport(
            n_predictions=mix.n_requests - n_unlearn,
            n_unlearnings=n_unlearn,
            total_seconds=0.0,
        )

        predict_rows = self.engine.predict_rows
        unlearn = self.engine.unlearn
        pool_matrix = self._pool_matrix
        batch_size = self.batch_size
        pending: list[int] = []

        def dispatch() -> None:
            if not pending:
                return
            rows = pool_matrix[np.asarray(pending, dtype=np.intp)]
            batch_start = time.perf_counter()
            predict_rows(rows)
            elapsed = time.perf_counter() - batch_start
            report.n_batches += 1
            report.batch_seconds += elapsed
            if self.record_latencies:
                report.batch_latencies_us.append(elapsed * 1e6)
            pending.clear()

        start = time.perf_counter()
        request_seq = 0
        for slot in range(mix.n_requests):
            if slot in unlearn_slots:
                dispatch()
                request_seq += 1
                request_id = f"sim-{request_seq}"
                if self.record_latencies:
                    request_start = time.perf_counter()
                    unlearn(request_id, next(unlearn_queue),
                            allow_budget_overrun=True)
                    elapsed = (time.perf_counter() - request_start) * 1e6
                    report.unlearning_latencies_us.append(elapsed)
                else:
                    unlearn(request_id, next(unlearn_queue),
                            allow_budget_overrun=True)
            else:
                pending.append(int(prediction_choices[slot]))
                if len(pending) >= batch_size:
                    dispatch()
        dispatch()
        report.total_seconds = time.perf_counter() - start
        return report
