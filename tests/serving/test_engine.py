"""Tests for the replicated, crash-recoverable serving engine."""

import copy

import numpy as np
import pytest

from repro.core.ensemble import HedgeCutClassifier
from repro.persistence.store import ModelStore
from repro.serving.audit import AuditedUnlearner
from repro.serving.engine import ReplicatedServingEngine

from tests.conftest import make_random_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_random_dataset(n_rows=300, seed=11)


@pytest.fixture()
def model(dataset):
    return HedgeCutClassifier(n_trees=4, epsilon=0.05, seed=5).fit(dataset)


def _engine(tmp_path, model, **kwargs):
    return ReplicatedServingEngine(model, ModelStore(tmp_path / "store"), **kwargs)


class TestConstruction:
    def test_rejects_bad_arguments(self, tmp_path, model):
        with pytest.raises(ValueError):
            _engine(tmp_path, model, n_replicas=0)
        with pytest.raises(ValueError):
            _engine(tmp_path, model, consistency="quantum")

    def test_replicas_start_in_sync(self, tmp_path, model):
        engine = _engine(tmp_path, model, n_replicas=3)
        assert engine.n_replicas == 3
        assert engine.staleness() == [0, 0, 0]

    def test_every_replica_starts_with_a_write_pack(self, tmp_path, model):
        """No replica builds its write pack on the first request's path."""
        engine = _engine(tmp_path, model, n_replicas=3)
        assert [
            replica.model.packed._unlearn_pack is not None
            for replica in engine._replicas
        ] == [True, True, True]


class TestStrongConsistency:
    def test_deletions_reach_every_replica(self, tmp_path, model, dataset):
        reference = copy.deepcopy(model)
        engine = _engine(tmp_path, model, n_replicas=3, consistency="strong")
        for row in range(6):
            entry = engine.unlearn(f"req-{row}", dataset.record(row),
                                   allow_budget_overrun=True)
            assert entry.succeeded
            reference.unlearn(dataset.record(row), allow_budget_overrun=True)
        assert engine.staleness() == [0, 0, 0]
        expected = reference.predict_batch(dataset)
        # Every replica (cycled through by round-robin) answers identically.
        for _ in range(3):
            assert np.array_equal(engine.predict_batch(dataset), expected)

    def test_round_robin_cycles_replicas(self, tmp_path, model, dataset):
        engine = _engine(tmp_path, model, n_replicas=2)
        record = dataset.record(0)
        predictions = {engine.predict(record) for _ in range(4)}
        assert len(predictions) == 1  # replicas agree; cursor still cycles


class TestReadYourDeletes:
    def test_reads_observe_acknowledged_deletions(self, tmp_path, model, dataset):
        reference = copy.deepcopy(model)
        engine = _engine(
            tmp_path, model, n_replicas=3, consistency="read_your_deletes"
        )
        for row in range(8):
            engine.unlearn(f"req-{row}", dataset.record(row), allow_budget_overrun=True)
            reference.unlearn(dataset.record(row), allow_budget_overrun=True)
        # Secondary replicas are stale until they serve a read.
        assert engine.staleness()[1:] == [8, 8]
        expected = reference.predict_batch(dataset)
        for _ in range(3):
            assert np.array_equal(engine.predict_batch(dataset), expected)
        assert engine.staleness() == [0, 0, 0]


class TestEventualConsistency:
    def test_staleness_grows_then_sync_catches_up(self, tmp_path, model, dataset):
        engine = _engine(tmp_path, model, n_replicas=2, consistency="eventual")
        for row in range(5):
            engine.unlearn(f"req-{row}", dataset.record(row), allow_budget_overrun=True)
        assert engine.staleness() == [0, 5]
        engine.sync()
        assert engine.staleness() == [0, 0]
        expected = engine.primary.predict_batch(dataset)
        for _ in range(2):
            assert np.array_equal(engine.predict_batch(dataset), expected)


class TestAuditTrail:
    def test_every_deletion_gets_an_entry_with_log_offset(
        self, tmp_path, model, dataset
    ):
        engine = _engine(tmp_path, model)
        for row in range(5):
            engine.unlearn(f"req-{row}", dataset.record(row), allow_budget_overrun=True)
        assert len(engine.audit_entries) == 5
        assert [entry.log_offset for entry in engine.audit_entries] == [1, 2, 3, 4, 5]
        assert engine.evidence_for("req-3").log_offset == 4

    def test_audit_log_survives_snapshot_recover_roundtrip(
        self, tmp_path, model, dataset
    ):
        engine = _engine(tmp_path, model)
        for row in range(4):
            engine.unlearn(f"req-{row}", dataset.record(row), allow_budget_overrun=True)
        engine.snapshot()
        engine.write_audit_log(tmp_path / "audit.jsonl")
        engine.close()

        # Restart from durable state only.
        recovered = ReplicatedServingEngine.recover(
            ModelStore(tmp_path / "store"), n_replicas=2
        )
        entries = AuditedUnlearner.read_log(tmp_path / "audit.jsonl")
        assert [entry.request_id for entry in entries] == [f"req-{i}" for i in range(4)]
        assert all(entry.succeeded for entry in entries)
        # Audit offsets still index into the recovered durable state.
        assert entries[-1].log_offset == 4
        assert recovered.primary.n_unlearned == 4
        # New deletions continue the durable sequence after the offsets in
        # the persisted audit trail.
        entry = recovered.unlearn("req-4", dataset.record(4), allow_budget_overrun=True)
        assert entry.log_offset == 5

    def test_failed_request_is_audited_with_offset(self, tmp_path, model, dataset):
        engine = _engine(tmp_path, model)
        budget = model.deletion_budget
        for row in range(budget):
            engine.unlearn(f"req-{row}", dataset.record(row))
        entry = engine.unlearn("req-over", dataset.record(budget))
        assert not entry.succeeded
        assert entry.log_offset == budget + 1  # logged before it failed


class TestBatchUnlearning:
    def test_batch_reaches_every_replica_atomically(self, tmp_path, model, dataset):
        reference = copy.deepcopy(model)
        engine = _engine(tmp_path, model, n_replicas=3, consistency="strong")
        records = [dataset.record(row) for row in range(8)]
        entry = engine.unlearn_batch(
            "req-batch",
            records,
            allow_budget_overrun=True,
            record_request_ids=[f"req-{row}" for row in range(8)],
        )
        assert entry.succeeded
        assert entry.n_records == 8
        assert entry.log_offset == 1  # the batch's first durable seq
        assert engine.durable_seq == 8
        assert engine.staleness() == [0, 0, 0]
        _ = reference.packed
        reference.unlearn_batch(records, allow_budget_overrun=True)
        expected = reference.predict_batch(dataset)
        for _ in range(3):
            assert np.array_equal(engine.predict_batch(dataset), expected)

    def test_batch_is_one_wal_frame(self, tmp_path, model, dataset):
        engine = _engine(tmp_path, model)
        engine.unlearn_batch(
            "req-batch",
            [dataset.record(row) for row in range(5)],
            allow_budget_overrun=True,
        )
        frames = list(engine.store.wal.frames())
        assert len(frames) == 1  # group commit: one frame for the batch
        assert (frames[0].first_seq, frames[0].last_seq) == (1, 5)

    def test_eventual_batch_staleness_then_sync(self, tmp_path, model, dataset):
        engine = _engine(tmp_path, model, n_replicas=2, consistency="eventual")
        records = [dataset.record(row) for row in range(5)]
        engine.unlearn_batch("req-batch", records, allow_budget_overrun=True)
        assert engine.staleness() == [0, 5]
        engine.sync()
        assert engine.staleness() == [0, 0]
        expected = engine.primary.predict_batch(dataset)
        for _ in range(2):
            assert np.array_equal(engine.predict_batch(dataset), expected)

    def test_batch_and_single_offsets_interleave(self, tmp_path, model, dataset):
        engine = _engine(tmp_path, model, n_replicas=2)
        first = engine.unlearn("req-0", dataset.record(0), allow_budget_overrun=True)
        batch = engine.unlearn_batch(
            "req-batch",
            [dataset.record(1), dataset.record(2), dataset.record(3)],
            allow_budget_overrun=True,
        )
        last = engine.unlearn("req-4", dataset.record(4), allow_budget_overrun=True)
        assert (first.log_offset, batch.log_offset, last.log_offset) == (1, 2, 5)
        assert batch.n_records == 3
        assert engine.staleness() == [0, 0]

    def test_recover_after_kill_with_batch_frames(self, tmp_path, model, dataset):
        reference = copy.deepcopy(model)
        engine = _engine(tmp_path, model, n_replicas=2)
        engine.snapshot()
        engine.unlearn("req-0", dataset.record(0), allow_budget_overrun=True)
        records = [dataset.record(row) for row in range(1, 9)]
        engine.unlearn_batch("req-batch", records, allow_budget_overrun=True)
        engine.close()  # crash: no final snapshot

        reference.unlearn(dataset.record(0), allow_budget_overrun=True)
        _ = reference.packed
        reference.unlearn_batch(records, allow_budget_overrun=True)

        recovered = ReplicatedServingEngine.recover(
            ModelStore(tmp_path / "store"), n_replicas=2
        )
        assert recovered.staleness() == [0, 0]
        assert np.array_equal(
            recovered.predict_batch(dataset), reference.predict_batch(dataset)
        )


class TestCrashRecovery:
    def test_recover_after_kill(self, tmp_path, model, dataset):
        reference = copy.deepcopy(model)
        engine = _engine(tmp_path, model, n_replicas=2)
        engine.snapshot()
        for row in range(7):
            engine.unlearn(f"req-{row}", dataset.record(row), allow_budget_overrun=True)
            reference.unlearn(dataset.record(row), allow_budget_overrun=True)
        engine.close()  # crash: no final snapshot

        recovered = ReplicatedServingEngine.recover(
            ModelStore(tmp_path / "store"), n_replicas=2
        )
        assert recovered.staleness() == [0, 0]
        assert np.array_equal(
            recovered.predict_batch(dataset), reference.predict_batch(dataset)
        )

    def test_snapshot_then_recover_replays_nothing(self, tmp_path, model, dataset):
        engine = _engine(tmp_path, model)
        for row in range(3):
            engine.unlearn(f"req-{row}", dataset.record(row), allow_budget_overrun=True)
        engine.snapshot()
        engine.close()

        store = ModelStore(tmp_path / "store")
        recovered = store.recover()
        assert recovered.n_replayed == 0
        assert recovered.model.n_unlearned == 3
