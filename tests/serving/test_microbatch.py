"""Tests for the micro-batcher, at one shard and at four.

:class:`ShardedMicroBatcher` over a one-shard engine is the unsharded
batcher. Each test class runs at ``n_shards = 1``; its ``...AtFourShards``
subclass at the end of the module runs the same checks at ``K = 4``.
``tests/sharding/test_sharded_microbatch.py`` covers what only ``K > 1``
has: other shards' windows left filling.
"""

import copy

import numpy as np
import pytest

from repro.serving.microbatch import (
    FLUSH_FORCED,
    FLUSH_FULL,
    FLUSH_WINDOW,
    MicroBatchConfig,
)
from repro.sharding.microbatch import ShardedMicroBatcher
from repro.sharding.model import ShardedHedgeCut
from repro.sharding.service import ShardedServingEngine
from repro.sharding.store import ShardedModelStore

from tests.conftest import make_random_dataset


class FakeClock:
    """Deterministic clock; tests advance it explicitly (seconds)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def dataset():
    return make_random_dataset(n_rows=300, seed=11)


@pytest.fixture()
def model(request, dataset):
    n_shards = getattr(request.cls, "n_shards", 1)
    return ShardedHedgeCut(
        n_shards=n_shards, n_trees=4, epsilon=0.05, seed=5
    ).fit(dataset)


def _engine(tmp_path, model):
    store = ShardedModelStore(tmp_path / "store", n_shards=model.n_shards)
    return ShardedServingEngine(model, store, n_replicas=2)


@pytest.fixture()
def engine(tmp_path, model):
    service = _engine(tmp_path, model)
    yield service
    service.close()


def _batcher(engine, max_batch=4, max_delay_ms=5.0, clock=None):
    config = MicroBatchConfig(max_batch=max_batch, max_delay_ms=max_delay_ms)
    return ShardedMicroBatcher(engine, config, clock=clock or FakeClock())


def _same_shard(engine, dataset, count):
    """The shard owning row 0 and its first ``count`` rows (rows 0.. at K=1)."""
    shard = engine.owning_shard(dataset.record(0))
    records = [
        record
        for record in dataset.records(range(dataset.n_rows))
        if engine.owning_shard(record) == shard
    ]
    return shard, records[:count]


def _one_per_shard(engine, dataset):
    """One record owned by each shard, in shard order."""
    owned = {}
    for record in dataset.records(range(dataset.n_rows)):
        owned.setdefault(engine.owning_shard(record), record)
    return [owned[shard] for shard in range(engine.n_shards)]


class TestConfig:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            MicroBatchConfig(max_batch=0)
        with pytest.raises(ValueError):
            MicroBatchConfig(max_delay_ms=-1.0)


class TestFlushTriggers:
    def test_full_batch_dispatches_immediately(self, engine, dataset):
        batcher = _batcher(engine, max_batch=3)
        handles = [batcher.submit_predict(dataset.record(row)) for row in range(3)]
        assert all(handle.done for handle in handles)
        assert batcher.n_queued == 0
        assert batcher.stats.flush_reasons[FLUSH_FULL] == 1

    def test_window_expiry_dispatches(self, engine, dataset):
        clock = FakeClock()
        batcher = _batcher(engine, max_batch=100, max_delay_ms=2.0, clock=clock)
        first = batcher.submit_predict(dataset.record(0))
        assert not first.done
        clock.advance(0.0025)  # 2.5 ms > the 2 ms window
        second = batcher.submit_predict(dataset.record(1))
        assert first.done and second.done
        assert batcher.stats.flush_reasons[FLUSH_WINDOW] == 1

    def test_result_forces_flush(self, engine, dataset):
        batcher = _batcher(engine, max_batch=100)
        handle = batcher.submit_predict(dataset.record(0))
        assert not handle.done
        label = handle.result()
        assert handle.done
        assert label in (0, 1)
        assert batcher.stats.flush_reasons[FLUSH_FORCED] == 1

    def test_flush_on_empty_queue_is_noop(self, engine):
        batcher = _batcher(engine)
        assert batcher.flush() == 0
        assert batcher.flush_unlearns() == 0
        assert batcher.flush_unlearns(engine.n_shards - 1) == 0
        assert batcher.stats.n_batches == 0
        assert batcher.stats.n_unlearn_batches == 0


class TestCorrectness:
    def test_batched_labels_match_single_record_path(self, engine, model, dataset):
        batcher = _batcher(engine, max_batch=8)
        rows = list(range(40))
        handles = [batcher.submit_predict(dataset.record(row)) for row in rows]
        batcher.flush()
        expected = [model.predict(dataset.record(row)) for row in rows]
        assert [handle.result() for handle in handles] == expected

    def test_unlearn_flushes_queued_predictions_first(self, engine, model, dataset):
        batcher = _batcher(engine, max_batch=100)
        before = model.predict_batch(dataset.take(np.arange(5)))
        handles = [batcher.submit_predict(dataset.record(row)) for row in range(5)]
        *first, last = _one_per_shard(engine, dataset)
        for position, record in enumerate(first):
            batcher.unlearn(f"req-{position}", record, allow_budget_overrun=True)
            # Some shard still owes the queued rows an answer.
            assert not any(handle.done for handle in handles)
        entry = batcher.unlearn("req-last", last, allow_budget_overrun=True)
        assert entry.succeeded
        # Every shard answered the queued rows before its deletion applied.
        assert all(handle.done for handle in handles)
        assert batcher.n_queued == 0
        assert batcher.stats.flush_reasons[FLUSH_FORCED] == 1
        assert [handle.result() for handle in handles] == before.tolist()

    def test_accepts_raw_value_sequences(self, engine, dataset):
        batcher = _batcher(engine, max_batch=2)
        record = dataset.record(3)
        by_record = batcher.submit_predict(record)
        by_values = batcher.submit_predict(record.values)
        by_array = batcher.submit_predict(np.asarray(record.values))
        assert by_record.result() == by_values.result() == by_array.result()


class TestUnlearnCoalescing:
    def test_full_window_group_commits_once(self, engine, dataset):
        batcher = _batcher(engine, max_batch=3)
        shard, records = _same_shard(engine, dataset, 3)
        handles = [
            batcher.submit_unlearn(f"req-{row}", record, allow_budget_overrun=True)
            for row, record in enumerate(records)
        ]
        assert all(handle.done for handle in handles)
        entry = handles[0].result()
        assert entry.succeeded
        assert entry.n_records == 3
        # Every member of the coalesced batch shares one audit entry.
        assert all(handle.result() is entry for handle in handles)
        # One group-committed WAL frame covering three sequence numbers.
        owner = engine.engines[shard]
        assert len(list(owner.store.wal.frames())) == 1
        assert owner.durable_seq == 3
        assert batcher.stats.n_unlearn_batches == 1
        assert batcher.stats.unlearn_batch_sizes == {shard: [3]}
        assert batcher.stats.flush_reasons[FLUSH_FULL] == 1

    def test_window_expiry_dispatches_unlearns(self, engine, dataset):
        clock = FakeClock()
        batcher = _batcher(engine, max_batch=100, max_delay_ms=2.0, clock=clock)
        shard, records = _same_shard(engine, dataset, 2)
        first = batcher.submit_unlearn("req-0", records[0], allow_budget_overrun=True)
        assert not first.done
        clock.advance(0.0025)  # 2.5 ms > the 2 ms window
        second = batcher.submit_unlearn(
            "req-1", records[1], allow_budget_overrun=True
        )
        assert first.done and second.done
        assert batcher.stats.flush_reasons[FLUSH_WINDOW] == 1
        assert batcher.stats.unlearn_batch_sizes == {shard: [2]}

    def test_result_forces_group_commit(self, engine, dataset):
        batcher = _batcher(engine, max_batch=100)
        handle = batcher.submit_unlearn(
            "req-0", dataset.record(0), allow_budget_overrun=True
        )
        assert not handle.done
        entry = handle.result()
        assert entry.succeeded and entry.n_records == 1
        assert batcher.stats.flush_reasons[FLUSH_FORCED] == 1

    def test_predictions_before_deletion_never_observe_it(
        self, engine, model, dataset
    ):
        batcher = _batcher(engine, max_batch=100)
        before = model.predict_batch(dataset.take(np.arange(5)))
        handles = [batcher.submit_predict(dataset.record(row)) for row in range(5)]
        for position, record in enumerate(_one_per_shard(engine, dataset)):
            batcher.submit_unlearn(f"req-{position}", record, allow_budget_overrun=True)
        # The deletion arrivals answered the queued predictions first; the
        # deletions themselves are still coalescing.
        assert all(handle.done for handle in handles)
        assert batcher.n_queued_unlearns() == engine.n_shards
        batcher.flush_unlearns()
        assert [handle.result() for handle in handles] == before.tolist()

    def test_prediction_after_deletion_observes_it(self, engine, model, dataset):
        batcher = _batcher(engine, max_batch=100)
        handle = batcher.submit_unlearn(
            "req-0", dataset.record(0), allow_budget_overrun=True
        )
        prediction = batcher.submit_predict(dataset.record(0))
        # The prediction arrival flushed the queued deletion first.
        assert handle.done
        assert batcher.n_queued_unlearns() == 0
        assert prediction.result() == model.predict(dataset.record(0))

    def test_overrun_flag_change_closes_window(self, engine, dataset):
        batcher = _batcher(engine, max_batch=100)
        _, records = _same_shard(engine, dataset, 2)
        first = batcher.submit_unlearn("req-0", records[0], allow_budget_overrun=True)
        second = batcher.submit_unlearn("req-1", records[1])
        # One WAL frame carries one flag: the flag flip dispatched the
        # open window and started a fresh one.
        assert first.done and not second.done
        assert first.result().n_records == 1
        assert batcher.n_queued_unlearns() == 1

    def test_synchronous_unlearn_flushes_queued_deletions_first(
        self, engine, dataset
    ):
        batcher = _batcher(engine, max_batch=100)
        _, records = _same_shard(engine, dataset, 2)
        queued = batcher.submit_unlearn("req-0", records[0], allow_budget_overrun=True)
        entry = batcher.unlearn("req-1", records[1], allow_budget_overrun=True)
        assert queued.done
        assert queued.result().log_offset == 1
        assert entry.log_offset == 2  # queued deletion landed first

    def test_coalesced_deletions_match_direct_batch(self, tmp_path, model, dataset):
        reference = copy.deepcopy(model)
        engine = _engine(tmp_path, model)
        batcher = _batcher(engine, max_batch=4)
        shard, records = _same_shard(engine, dataset, 8)
        for row, record in enumerate(records):
            batcher.submit_unlearn(f"req-{row}", record, allow_budget_overrun=True)
        batcher.flush_unlearns()
        reference.unlearn_batch(records, allow_budget_overrun=True)
        assert batcher.stats.n_unlearn_requests == 8
        assert batcher.stats.unlearn_batch_sizes == {shard: [4, 4]}
        expected = reference.predict_batch(dataset)
        for _ in range(2):  # both replicas
            assert np.array_equal(engine.predict_batch(dataset), expected)
        engine.close()

    def test_interleaved_equals_serial_replay(self, tmp_path, model, dataset):
        """Property: any predict/delete interleaving == serial submission."""
        reference = copy.deepcopy(model)
        engine = _engine(tmp_path, model)
        batcher = _batcher(engine, max_batch=100)
        rng = np.random.default_rng(29)
        serial_answers = []
        batched_handles = []
        deleted = 0
        for step in range(60):
            if rng.random() < 0.3 and deleted < 15:
                record = dataset.record(deleted)
                batcher.submit_unlearn(
                    f"req-{deleted}", record, allow_budget_overrun=True
                )
                reference.unlearn(record, allow_budget_overrun=True)
                deleted += 1
            else:
                row = int(rng.integers(0, dataset.n_rows))
                # Serial twin answers immediately, in submission order.
                serial_answers.append(reference.predict(dataset.record(row)))
                batched_handles.append(batcher.submit_predict(dataset.record(row)))
        batcher.flush_unlearns()
        batcher.flush()
        assert [handle.result() for handle in batched_handles] == serial_answers
        expected = reference.predict_batch(dataset)
        assert np.array_equal(engine.predict_batch(dataset), expected)
        engine.close()


class TestStats:
    def test_dispatch_accounting(self, engine, dataset):
        # Real clock here: the throughput figure needs nonzero elapsed time.
        batcher = ShardedMicroBatcher(engine, MicroBatchConfig(max_batch=4))
        for row in range(10):
            batcher.submit_predict(dataset.record(row))
        batcher.flush()
        stats = batcher.stats
        assert stats.n_requests == 10
        assert stats.n_batches == 3  # 4 + 4 + forced 2
        assert stats.batch_sizes == [4, 4, 2]
        assert stats.mean_batch_size == pytest.approx(10 / 3)
        assert stats.rows_per_second > 0


# The same checks over a four-shard engine (the ``model`` fixture reads
# ``n_shards`` from the test class).


class TestFlushTriggersAtFourShards(TestFlushTriggers):
    n_shards = 4


class TestCorrectnessAtFourShards(TestCorrectness):
    n_shards = 4


class TestUnlearnCoalescingAtFourShards(TestUnlearnCoalescing):
    n_shards = 4


class TestStatsAtFourShards(TestStats):
    n_shards = 4
