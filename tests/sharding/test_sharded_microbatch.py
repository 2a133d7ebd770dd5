"""Shard-aware micro-batching: partial flushes, ordering, coalescing."""

from __future__ import annotations

import pytest

from repro.serving.microbatch import FLUSH_FORCED, FLUSH_FULL, MicroBatchConfig
from repro.sharding.microbatch import FLUSH_SHARD, ShardedMicroBatcher
from repro.sharding.service import ShardedServingEngine
from repro.sharding.store import ShardedModelStore


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def engine(sharded_model, tmp_path):
    store = ShardedModelStore(tmp_path / "store", n_shards=4)
    service = ShardedServingEngine(sharded_model, store)
    yield service
    service.close()


@pytest.fixture()
def batcher(engine):
    return ShardedMicroBatcher(
        engine, MicroBatchConfig(max_batch=64, max_delay_ms=10_000.0), clock=FakeClock()
    )


def records_for_shard(engine, dataset, shard, count, start=0):
    """The first ``count`` training records owned by ``shard``."""
    picked = []
    for row in range(start, dataset.n_rows):
        record = dataset.record(row)
        if engine.owning_shard(record) == shard:
            picked.append(record)
            if len(picked) == count:
                return picked
    raise AssertionError(f"not enough records for shard {shard}")


class TestPredictionBatching:
    def test_results_match_direct_engine_answers(self, batcher, engine, income_split):
        _, test = income_split
        handles = [batcher.submit_predict(test.record(row)) for row in range(8)]
        proba_handle = batcher.submit_predict_proba(test.record(9))
        assert batcher.n_queued == 9
        batcher.flush()
        for row, handle in enumerate(handles):
            assert handle.result() == engine.predict(test.record(row).values)
        assert proba_handle.result() == pytest.approx(
            engine.predict_proba(test.record(9).values)
        )

    def test_full_window_dispatches_itself(self, engine, income_split):
        _, test = income_split
        batcher = ShardedMicroBatcher(
            engine, MicroBatchConfig(max_batch=4, max_delay_ms=10_000.0)
        )
        handles = [batcher.submit_predict(test.record(row)) for row in range(4)]
        assert batcher.n_queued == 0
        assert all(handle.done for handle in handles)
        assert batcher.stats.flush_reasons[FLUSH_FULL] == 1

    def test_result_forces_flush(self, batcher, engine, income_split):
        _, test = income_split
        handle = batcher.submit_predict(test.record(0))
        assert not handle.done
        assert handle.result() == engine.predict(test.record(0).values)
        assert batcher.stats.flush_reasons[FLUSH_FORCED] == 1


class TestShardScopedFlush:
    def test_deletion_only_flushes_owning_shard_window(
        self, batcher, engine, income_split
    ):
        """The satellite fix: shard i's deletion leaves shards j != i alone."""
        train, test = income_split
        for row in range(6):
            batcher.submit_predict(test.record(row))
        (record,) = records_for_shard(engine, train, shard=2, count=1)
        batcher.submit_unlearn("del-1", record)
        # Shard 2 contributed to all six pending rows; the others did not.
        for shard in range(engine.n_shards):
            expected = 0 if shard == 2 else 6
            assert batcher.shard_pending_rows(shard) == expected
        assert batcher.n_queued == 6  # predictions still pending
        assert batcher.stats.flush_reasons[FLUSH_SHARD] == 1
        assert batcher.stats.partial_flushes == {2: 1}
        assert batcher.stats.partial_rows == {2: 6}

    def test_prediction_before_deletion_does_not_observe_it(
        self, batcher, engine, income_split
    ):
        train, test = income_split
        probe = test.record(0)
        expected = engine.predict_proba(probe.values)
        handle = batcher.submit_predict_proba(probe)
        # Enough deletions on the probe's heaviest-voting shard to plausibly
        # move the probability if ordering were violated.
        shard = engine.owning_shard(train.record(0))
        for position, record in enumerate(
            records_for_shard(engine, train, shard=shard, count=5)
        ):
            batcher.submit_unlearn(f"del-{position}", record)
        batcher.flush_unlearns()
        batcher.flush()
        assert handle.result() == pytest.approx(expected)

    def test_prediction_after_deletion_observes_it(self, batcher, engine, income_split):
        train, test = income_split
        (record,) = records_for_shard(engine, train, shard=1, count=1)
        unlearn_handle = batcher.submit_unlearn("del-1", record)
        # Submitting a prediction drains every queued deletion window first.
        batcher.submit_predict(test.record(0))
        assert unlearn_handle.done
        assert batcher.n_queued_unlearns() == 0

    def test_deletions_coalesce_per_shard(self, batcher, engine, income_split):
        train, _ = income_split
        shard_1 = records_for_shard(engine, train, shard=1, count=3)
        shard_3 = records_for_shard(engine, train, shard=3, count=2)
        handles = [
            batcher.submit_unlearn(f"del-{position}", record)
            for position, record in enumerate(shard_1 + shard_3)
        ]
        assert batcher.n_queued_unlearns(1) == 3
        assert batcher.n_queued_unlearns(3) == 2
        batcher.flush_unlearns()
        # One group-committed batch per shard, not one per request.
        assert batcher.stats.n_unlearn_batches == 2
        assert batcher.stats.unlearn_batch_sizes[1] == [3]
        assert batcher.stats.unlearn_batch_sizes[3] == [2]
        entries = {handle.result().request_id for handle in handles}
        assert len(entries) == 2  # one audit entry per shard batch

    def test_single_shard_flush_leaves_other_windows_queued(
        self, batcher, engine, income_split
    ):
        train, _ = income_split
        (record_1,) = records_for_shard(engine, train, shard=1, count=1)
        (record_3,) = records_for_shard(engine, train, shard=3, count=1)
        handle_1 = batcher.submit_unlearn("del-1", record_1)
        handle_3 = batcher.submit_unlearn("del-3", record_3)
        assert handle_1.result().shard_id == 1  # forces shard 1 only
        assert not handle_3.done
        assert batcher.n_queued_unlearns(3) == 1

    def test_synchronous_unlearn_leaves_other_windows_queued(
        self, batcher, engine, income_split
    ):
        train, test = income_split
        queued, direct = records_for_shard(engine, train, shard=0, count=2)
        (elsewhere,) = records_for_shard(engine, train, shard=3, count=1)
        prediction = batcher.submit_predict(test.record(0))
        queued_handle = batcher.submit_unlearn("del-0", queued)
        other_handle = batcher.submit_unlearn("del-3", elsewhere)
        batcher.unlearn("del-1", direct)
        assert queued_handle.done  # the owning shard's window drained first
        assert not other_handle.done  # other shards' windows keep filling
        assert not prediction.done  # shards 1 and 2 still owe its answer

    def test_overrun_flag_change_closes_the_shard_window(
        self, batcher, engine, income_split
    ):
        train, _ = income_split
        records = records_for_shard(engine, train, shard=0, count=2)
        first = batcher.submit_unlearn("del-a", records[0], allow_budget_overrun=True)
        batcher.submit_unlearn("del-b", records[1], allow_budget_overrun=False)
        assert first.done  # the flag change flushed the open window
        assert batcher.n_queued_unlearns(0) == 1


class TestMixedWindowCorrectness:
    def test_interleaved_stream_matches_serial_execution(
        self, engine, sharded_model_session, income_split, tmp_path
    ):
        """Batched answers equal a serial replay of the same request stream."""
        import copy

        train, test = income_split
        serial_model = copy.deepcopy(sharded_model_session)
        batcher = ShardedMicroBatcher(
            engine, MicroBatchConfig(max_batch=64, max_delay_ms=10_000.0)
        )
        prediction_handles = []
        expected = []
        deletions = iter(range(50, 80))
        for step in range(24):
            if step % 4 == 3:
                record = train.record(next(deletions))
                batcher.submit_unlearn(
                    f"del-{step}", record, allow_budget_overrun=True
                )
                serial_model.unlearn(record, allow_budget_overrun=True)
            else:
                probe = test.record(step % test.n_rows)
                prediction_handles.append(
                    (batcher.submit_predict_proba(probe), len(expected))
                )
                expected.append(serial_model.predict_proba(probe.values))
        batcher.flush_unlearns()
        batcher.flush()
        for handle, position in prediction_handles:
            assert handle.result() == pytest.approx(expected[position])
