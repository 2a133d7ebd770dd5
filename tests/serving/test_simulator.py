"""Tests for the model-serving simulator."""

import pytest

from repro.serving.simulator import RequestMix, ServingSimulator, ThroughputReport


def _simulator(model, prediction_pool, **kwargs):
    """A simulator driving a bare model, the way Table 2 builds one."""
    return ServingSimulator.for_model(model, prediction_pool, **kwargs)


class TestRequestMix:
    def test_rejects_zero_requests(self):
        with pytest.raises(ValueError):
            RequestMix(n_requests=0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            RequestMix(n_requests=10, unlearn_fraction=1.0)
        with pytest.raises(ValueError):
            RequestMix(n_requests=10, unlearn_fraction=-0.1)


class TestThroughputReport:
    def test_rates(self):
        report = ThroughputReport(n_predictions=90, n_unlearnings=10, total_seconds=2.0)
        assert report.requests_per_second == pytest.approx(50.0)
        assert report.predictions_per_second == pytest.approx(45.0)

    def test_zero_time_guard(self):
        report = ThroughputReport(n_predictions=0, n_unlearnings=0, total_seconds=0.0)
        assert report.requests_per_second == 0.0

    def test_percentile_requires_samples(self):
        report = ThroughputReport(1, 0, 1.0)
        with pytest.raises(ValueError):
            report.latency_percentile(99)


class TestSimulation:
    def test_pure_prediction_workload(self, fitted_model, income_split):
        _, test = income_split
        simulator = _simulator(fitted_model, test, seed=0)
        report = simulator.run(RequestMix(n_requests=200))
        assert report.n_predictions == 200
        assert report.n_unlearnings == 0
        assert report.requests_per_second > 0

    def test_mixed_workload_consumes_unlearn_pool(self, fitted_model, income_split):
        train, test = income_split
        budget = fitted_model.deletion_budget
        pool = [train.record(row) for row in range(budget)]
        simulator = _simulator(fitted_model, test, unlearn_pool=pool, seed=0)
        report = simulator.run(RequestMix(n_requests=400, unlearn_fraction=0.01))
        expected = min(4, budget)
        assert report.n_unlearnings == expected
        assert fitted_model.n_unlearned == expected

    def test_unlearnings_capped_by_budget(self, fitted_model, income_split):
        train, test = income_split
        budget = fitted_model.deletion_budget
        assert budget > 0
        pool = [train.record(row) for row in range(budget + 5)]
        simulator = _simulator(fitted_model, test, unlearn_pool=pool, seed=1)
        report = simulator.run(RequestMix(n_requests=2000, unlearn_fraction=0.5))
        # 1,000 deletions are scheduled; the run stops at the budget.
        assert report.n_unlearnings == budget
        assert fitted_model.n_unlearned == budget
        assert fitted_model.remaining_deletion_budget == 0

    def test_latency_recording(self, fitted_model, income_split):
        _, test = income_split
        simulator = _simulator(fitted_model, test, seed=2, record_latencies=True)
        report = simulator.run(RequestMix(n_requests=50))
        # One dispatch per prediction at the default batch size of one.
        assert report.n_batches == 50
        assert len(report.batch_latencies_us) == 50
        p50 = report.latency_percentile(50)
        p99 = report.latency_percentile(99)
        assert 0 < p50 <= p99

    def test_tiny_workload_still_issues_an_unlearning_request(
        self, fitted_model, income_split
    ):
        """unlearn_fraction > 0 must never round down to zero deletions."""
        train, test = income_split
        pool = [train.record(0)]
        simulator = _simulator(fitted_model, test, unlearn_pool=pool, seed=3)
        # 2 * 0.2 rounds to 0; the documented floor guarantees one request.
        report = simulator.run(RequestMix(n_requests=2, unlearn_fraction=0.2))
        assert report.n_unlearnings == 1
        assert fitted_model.n_unlearned == 1

    def test_zero_fraction_issues_no_unlearning_request(
        self, fitted_model, income_split
    ):
        train, test = income_split
        pool = [train.record(0)]
        simulator = _simulator(fitted_model, test, unlearn_pool=pool, seed=3)
        report = simulator.run(RequestMix(n_requests=2, unlearn_fraction=0.0))
        assert report.n_unlearnings == 0
        assert fitted_model.n_unlearned == 0

    def test_unlearning_floor_respects_empty_pool(self, fitted_model, income_split):
        _, test = income_split
        simulator = _simulator(fitted_model, test, unlearn_pool=[], seed=3)
        report = simulator.run(RequestMix(n_requests=2, unlearn_fraction=0.4))
        assert report.n_unlearnings == 0

    def test_empty_prediction_pool_rejected(self, fitted_model, income_split):
        import numpy as np

        _, test = income_split
        empty = test.take(np.asarray([], dtype=np.int64))
        with pytest.raises(ValueError):
            _simulator(fitted_model, empty)


class TestBatchedSimulation:
    """The batch-window path routes predictions through the packed kernel."""

    def test_rejects_bad_batch_size(self, fitted_model, income_split):
        _, test = income_split
        with pytest.raises(ValueError):
            _simulator(fitted_model, test, batch_size=0)

    def test_pure_prediction_workload_batches(self, fitted_model, income_split):
        _, test = income_split
        simulator = _simulator(fitted_model, test, seed=0, batch_size=32)
        report = simulator.run(RequestMix(n_requests=100))
        assert report.n_predictions == 100
        assert report.n_batches == 4  # 32 + 32 + 32 + 4
        assert report.rows_per_second > 0
        assert report.requests_per_second > 0

    def test_unlearning_flushes_open_batch(self, fitted_model, income_split):
        train, test = income_split
        pool = [train.record(row) for row in range(3)]
        simulator = _simulator(
            fitted_model, test, unlearn_pool=pool, seed=0, batch_size=1000
        )
        report = simulator.run(RequestMix(n_requests=200, unlearn_fraction=0.01))
        assert report.n_unlearnings >= 1
        assert report.n_predictions + report.n_unlearnings == 200
        # Every deletion cuts the open batch, plus the final flush.
        assert report.n_batches >= report.n_unlearnings
        assert fitted_model.n_unlearned == report.n_unlearnings

    def test_batch_latencies_recorded(self, fitted_model, income_split):
        _, test = income_split
        simulator = _simulator(
            fitted_model, test, seed=0, record_latencies=True, batch_size=16
        )
        report = simulator.run(RequestMix(n_requests=64))
        assert len(report.batch_latencies_us) == report.n_batches == 4
        assert report.latency_percentile(50, kind="batch") > 0


class TestSchedule:
    def test_schedule_is_independent_of_batching(self, income_split):
        """Same seed and pools: the same request stream at any batch size."""
        train, test = income_split
        pool = [train.record(row) for row in range(3)]

        def request_stream(batch_size):
            stream = []
            simulator = ServingSimulator(
                lambda rows: stream.extend(tuple(row) for row in rows.tolist()),
                lambda record: stream.append(pool.index(record)),
                test,
                unlearn_pool=pool,
                seed=7,
                batch_size=batch_size,
            )
            simulator.run(RequestMix(n_requests=150, unlearn_fraction=0.02))
            return stream

        stream = request_stream(1)
        assert [item for item in stream if isinstance(item, int)] == [0, 1, 2]
        assert request_stream(16) == stream
