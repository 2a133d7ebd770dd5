"""Serving loop mixing prediction and unlearning requests (Table 2)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

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

    Predictions are answered in dispatches of up to ``batch_size`` rows:
    ``n_batches`` counts the dispatches, ``batch_latencies_us`` holds one
    latency sample per dispatch (one per prediction at ``batch_size=1``),
    and ``rows_per_second`` reports the prediction throughput over the
    run's time outside deletion requests (``batch_seconds``).
    """

    n_predictions: int
    n_unlearnings: int
    total_seconds: float
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
        """Prediction throughput (rows over the seconds spent predicting)."""
        if self.batch_seconds <= 0:
            return 0.0
        return self.n_predictions / self.batch_seconds

    def latency_percentile(self, percentile: float, kind: str = "batch") -> float:
        """Latency percentile in microseconds for one request kind.

        ``kind`` is ``"batch"`` (one sample per prediction dispatch) or
        ``"unlearning"``.
        """
        samples = (
            self.batch_latencies_us if kind == "batch" else self.unlearning_latencies_us
        )
        if not samples:
            raise ValueError(f"no {kind} latencies were recorded")
        return float(np.percentile(np.asarray(samples), percentile))


class ServingSimulator:
    """Drives a deployment with a mixed online workload.

    The deployment is given by two callables, so a bare model and a
    serving engine run the same schedule through the same loop:

    * a fitted classifier: :meth:`for_model` wires ``model.predict`` (one
      request per call) or ``model.predict_rows`` (batches) and
      ``model.unlearn``, and cuts ``unlearn_pool`` to the model's
      remaining deletion budget;
    * an engine: ``engine.predict_rows`` and a closure issuing
      ``engine.unlearn(request_id, record, allow_budget_overrun=True)``.

    Args:
        predict_rows: answers one ``(n_rows, n_features)`` code matrix.
        unlearn: issues one deletion request for a :class:`Record`.
        prediction_pool: records predictions are drawn from (the test set).
        unlearn_pool: training records available for deletion requests;
            each is unlearned at most once per run, so the caller sizes it
            to what the deployment may delete.
        seed: request-schedule randomness (same seed and pools = same
            schedule for every deployment, which makes A/B runs fair).
        record_latencies: collect per-dispatch latencies (adds measurement
            overhead; throughput experiments disable it).
        batch_size: predictions per dispatch. Consecutive predictions
            collect into one dispatch of up to this many rows; an
            unlearning request (or the end of the run) dispatches the open
            batch first, preserving request ordering.
    """

    def __init__(
        self,
        predict_rows: Callable[[np.ndarray], object],
        unlearn: Callable[[Record], object],
        prediction_pool: Dataset,
        unlearn_pool: list[Record] | None = None,
        seed: int | None = None,
        record_latencies: bool = False,
        batch_size: int = 1,
    ) -> None:
        if prediction_pool.n_rows == 0:
            raise ValueError("prediction pool must not be empty")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.predict_rows = predict_rows
        self.unlearn = unlearn
        self._pool_matrix = prediction_pool.feature_matrix()
        self.unlearn_pool = list(unlearn_pool or [])
        self.seed = seed
        self.record_latencies = record_latencies
        self.batch_size = batch_size

    @classmethod
    def for_model(
        cls,
        model: HedgeCutClassifier,
        prediction_pool: Dataset,
        unlearn_pool: list[Record] | None = None,
        **kwargs,
    ) -> "ServingSimulator":
        """A simulator serving a bare fitted classifier (Table 2, the example).

        At ``batch_size=1`` each prediction is one ``model.predict`` call,
        the single-record path the paper's Table 2 times; larger batches go
        through ``model.predict_rows``. Deletions call ``model.unlearn``
        on a pool cut to the model's remaining deletion budget, so a run
        never asks the model to delete past it.
        """
        if kwargs.get("batch_size", 1) == 1:
            predict = model.predict

            def predict_rows(rows: np.ndarray) -> object:
                return predict(rows[0].tolist())

        else:
            predict_rows = model.predict_rows
        pool = list(unlearn_pool or [])[: model.remaining_deletion_budget]
        return cls(
            predict_rows, model.unlearn, prediction_pool, unlearn_pool=pool, **kwargs
        )

    def _schedule(self, mix: RequestMix) -> tuple[set[int], np.ndarray]:
        """The run's deletion slots and per-slot prediction-pool rows.

        Unlearning requests replace randomly selected prediction slots.
        Their count is ``round(n_requests * unlearn_fraction)`` (banker's
        rounding), but whenever ``unlearn_fraction > 0`` at least one is
        issued -- small workloads must not silently degenerate into
        prediction-only runs (``n_requests=2, unlearn_fraction=0.2`` would
        otherwise round to zero). The unlearn pool caps the count after
        this floor.
        """
        rng = np.random.default_rng(self.seed)
        n_scheduled = int(round(mix.n_requests * mix.unlearn_fraction))
        if mix.unlearn_fraction > 0.0:
            n_scheduled = max(1, n_scheduled)
        n_unlearn = min(n_scheduled, len(self.unlearn_pool))
        unlearn_slots = set(
            int(slot)
            for slot in rng.choice(mix.n_requests, size=n_unlearn, replace=False)
        )
        prediction_rows = rng.integers(
            0, self._pool_matrix.shape[0], size=mix.n_requests
        )
        return unlearn_slots, prediction_rows

    def run(self, mix: RequestMix) -> ThroughputReport:
        """Execute one workload and measure throughput (and latencies)."""
        unlearn_slots, prediction_rows = self._schedule(mix)
        n_unlearn = len(unlearn_slots)
        report = ThroughputReport(
            n_predictions=mix.n_requests - n_unlearn,
            n_unlearnings=n_unlearn,
            total_seconds=0.0,
        )
        # The run's dispatches in request order, built before the clock
        # starts: a prediction batch is one slice of consecutive prediction
        # slots' code rows, and ``None`` stands for a deletion request.
        requests = self._pool_matrix[prediction_rows]
        plan: list[np.ndarray | None] = []
        first = 0  # first slot of the open batch
        for slot in range(mix.n_requests):
            if slot in unlearn_slots:
                if slot > first:
                    plan.append(requests[first:slot])
                plan.append(None)
                first = slot + 1
            elif slot + 1 - first >= self.batch_size:
                plan.append(requests[first : slot + 1])
                first = slot + 1
        if mix.n_requests > first:
            plan.append(requests[first:])

        predict_rows = self.predict_rows
        unlearn = self.unlearn
        unlearn_queue = iter(self.unlearn_pool[:n_unlearn])
        record_latencies = self.record_latencies
        clock = time.perf_counter
        unlearn_seconds = 0.0
        start = clock()
        for rows in plan:
            if rows is None:
                request_start = clock()
                unlearn(next(unlearn_queue))
                elapsed = clock() - request_start
                unlearn_seconds += elapsed
                if record_latencies:
                    report.unlearning_latencies_us.append(elapsed * 1e6)
            elif record_latencies:
                batch_start = clock()
                predict_rows(rows)
                report.batch_latencies_us.append((clock() - batch_start) * 1e6)
            else:
                predict_rows(rows)
        report.total_seconds = clock() - start
        report.n_batches = len(plan) - n_unlearn
        report.batch_seconds = report.total_seconds - unlearn_seconds
        return report
