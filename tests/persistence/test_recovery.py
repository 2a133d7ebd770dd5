"""Crash-recovery tests: kill-after-K-deletions, restore, compare.

The acceptance property: a process that snapshots its model, applies K
durably logged deletions and then crashes must recover -- latest snapshot
plus WAL-tail replay -- to a state whose predictions are identical to an
uninterrupted model that applied the same deletion sequence. The model
under test contains maintenance nodes, so recovery also exercises variant
statistics and active-variant switches.
"""

import copy

import numpy as np
import pytest

from repro.core.ensemble import HedgeCutClassifier
from repro.core.exceptions import HedgeCutError
from repro.dataprep.dataset import Record
from repro.persistence.store import ModelStore
from repro.serving.audit import AuditedUnlearner

from tests.conftest import make_random_dataset


@pytest.fixture(scope="module")
def noisy_setup():
    dataset = make_random_dataset(n_rows=300, seed=11)
    model = HedgeCutClassifier(n_trees=4, epsilon=0.05, seed=5).fit(dataset)
    assert model.node_census().n_maintenance_nodes > 0
    return model, dataset


def _crash_after_k_deletions(store_dir, model, dataset, k, snapshot_at=0):
    """Run the durability protocol for ``k`` deletions, then 'crash'.

    Returns nothing: the only survivors are the files in ``store_dir``,
    exactly as after a real process kill (the in-memory model is dropped).
    """
    work = copy.deepcopy(model)
    with ModelStore(store_dir) as store:
        store.save_snapshot(work, wal_seq=0)
        for row in range(k):
            record = dataset.record(row)
            store.wal.append(record, request_id=f"req-{row}", allow_budget_overrun=True)
            work.unlearn(record, allow_budget_overrun=True)
            if snapshot_at and row + 1 == snapshot_at:
                store.save_snapshot(work, wal_seq=store.wal.last_seq)
        # Crash: no final snapshot, no clean shutdown beyond closing the
        # file handle (appends are flushed per record).


class TestCrashRecovery:
    @pytest.mark.parametrize("k", [1, 7, 15])
    def test_recovered_equals_uninterrupted(self, tmp_path, noisy_setup, k):
        model, dataset = noisy_setup
        _crash_after_k_deletions(tmp_path / "store", model, dataset, k)

        uninterrupted = copy.deepcopy(model)
        for row in range(k):
            uninterrupted.unlearn(dataset.record(row), allow_budget_overrun=True)

        recovered = ModelStore(tmp_path / "store").recover()
        assert recovered.n_replayed == k
        assert recovered.wal_seq == k
        assert recovered.model.n_unlearned == uninterrupted.n_unlearned
        assert np.array_equal(
            recovered.model.predict_batch(dataset),
            uninterrupted.predict_batch(dataset),
        )

    def test_mid_campaign_snapshot_replays_only_the_tail(self, tmp_path, noisy_setup):
        model, dataset = noisy_setup
        _crash_after_k_deletions(tmp_path / "store", model, dataset, k=12, snapshot_at=5)

        uninterrupted = copy.deepcopy(model)
        for row in range(12):
            uninterrupted.unlearn(dataset.record(row), allow_budget_overrun=True)

        recovered = ModelStore(tmp_path / "store").recover()
        # The snapshot at seq 5 absorbs the first five deletions.
        assert recovered.snapshot is not None
        assert recovered.snapshot.wal_seq == 5
        assert recovered.n_replayed == 7
        assert np.array_equal(
            recovered.model.predict_batch(dataset),
            uninterrupted.predict_batch(dataset),
        )

    def test_recovery_continues_unlearning_identically(self, tmp_path, noisy_setup):
        """Recover mid-campaign, then finish the campaign on both sides."""
        model, dataset = noisy_setup
        _crash_after_k_deletions(tmp_path / "store", model, dataset, k=6)

        uninterrupted = copy.deepcopy(model)
        for row in range(6):
            uninterrupted.unlearn(dataset.record(row), allow_budget_overrun=True)

        recovered = ModelStore(tmp_path / "store").recover().model
        for row in range(6, 15):
            uninterrupted.unlearn(dataset.record(row), allow_budget_overrun=True)
            recovered.unlearn(dataset.record(row), allow_budget_overrun=True)
        assert np.array_equal(
            recovered.predict_batch(dataset), uninterrupted.predict_batch(dataset)
        )

    def test_corrupt_latest_snapshot_falls_back(self, tmp_path, noisy_setup):
        model, dataset = noisy_setup
        store_dir = tmp_path / "store"
        _crash_after_k_deletions(store_dir, model, dataset, k=8, snapshot_at=4)

        snapshots = ModelStore(store_dir).snapshot_paths()
        assert len(snapshots) == 2
        latest = snapshots[-1]
        latest.write_bytes(latest.read_bytes()[:-40] + b"\x00" * 40)

        uninterrupted = copy.deepcopy(model)
        for row in range(8):
            uninterrupted.unlearn(dataset.record(row), allow_budget_overrun=True)

        recovered = ModelStore(store_dir).recover()
        assert recovered.skipped_snapshots == [latest]
        assert np.array_equal(
            recovered.model.predict_batch(dataset),
            uninterrupted.predict_batch(dataset),
        )

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(HedgeCutError):
            ModelStore(tmp_path / "empty").recover()

    @pytest.mark.shm
    def test_shm_engine_rematerialises_segments_from_store(
        self, tmp_path, noisy_setup
    ):
        """The shared-memory fleet recovers through the same snapshot +
        WAL-tail protocol: the store's replayed state is re-published into
        fresh segments and the reader processes serve it bit-identically."""
        from repro.serving.shm import ShmReplicatedServingEngine

        model, dataset = noisy_setup
        _crash_after_k_deletions(tmp_path / "store", model, dataset, k=7)

        uninterrupted = copy.deepcopy(model)
        for row in range(7):
            uninterrupted.unlearn(dataset.record(row), allow_budget_overrun=True)

        with ShmReplicatedServingEngine.recover(
            ModelStore(tmp_path / "store"), n_readers=2
        ) as engine:
            assert engine.durable_seq == 7
            assert engine.staleness() == [0, 0]
            assert np.array_equal(
                engine.predict_batch(dataset),
                uninterrupted.predict_batch(dataset),
            )
            assert np.array_equal(
                engine.predict_proba_batch(dataset),
                uninterrupted.predict_proba_batch(dataset),
            )


def _crash_after_batched_campaign(store_dir, model, dataset, ops, snapshot_after=0):
    """Like :func:`_crash_after_k_deletions`, but mixing single-record
    frames with group-committed batch frames. ``ops`` is a list of
    row-index lists: singletons take the single-record path, everything
    else one ``append_batch`` frame plus one batch-kernel apply.
    """
    work = copy.deepcopy(model)
    with ModelStore(store_dir) as store:
        store.save_snapshot(work, wal_seq=0)
        for index, rows in enumerate(ops):
            records = [dataset.record(row) for row in rows]
            if len(records) == 1:
                store.wal.append(
                    records[0], request_id=f"req-{index}", allow_budget_overrun=True
                )
                work.unlearn(records[0], allow_budget_overrun=True)
            else:
                store.wal.append_batch(
                    records,
                    request_ids=[f"req-{index}-{i}" for i in range(len(records))],
                    allow_budget_overrun=True,
                )
                _ = work.packed  # live apply goes through the batch kernel
                work.unlearn_batch(records, allow_budget_overrun=True)
            if snapshot_after and index + 1 == snapshot_after:
                store.save_snapshot(work, wal_seq=store.wal.last_seq)


def _apply_campaign_live(model, dataset, ops):
    applied = copy.deepcopy(model)
    for rows in ops:
        records = [dataset.record(row) for row in rows]
        if len(records) == 1:
            applied.unlearn(records[0], allow_budget_overrun=True)
        else:
            _ = applied.packed
            applied.unlearn_batch(records, allow_budget_overrun=True)
    return applied


class TestBatchFrameRecovery:
    """Replaying group-committed batch frames matches live application."""

    def test_recovered_matches_live_batched_application(self, tmp_path, noisy_setup):
        model, dataset = noisy_setup
        ops = [[0], list(range(1, 9)), [9], list(range(10, 14))]
        _crash_after_batched_campaign(tmp_path / "store", model, dataset, ops)

        uninterrupted = _apply_campaign_live(model, dataset, ops)

        recovered = ModelStore(tmp_path / "store").recover()
        assert recovered.n_replayed == 14
        assert recovered.wal_seq == 14
        assert recovered.model.n_unlearned == uninterrupted.n_unlearned
        assert np.array_equal(
            recovered.model.predict_batch(dataset),
            uninterrupted.predict_batch(dataset),
        )

    def test_snapshot_between_batches_replays_only_the_tail(
        self, tmp_path, noisy_setup
    ):
        model, dataset = noisy_setup
        ops = [list(range(0, 6)), [6], list(range(7, 12))]
        _crash_after_batched_campaign(
            tmp_path / "store", model, dataset, ops, snapshot_after=1
        )

        uninterrupted = _apply_campaign_live(model, dataset, ops)

        recovered = ModelStore(tmp_path / "store").recover()
        # The snapshot at seq 6 absorbs the first batch; replay covers the
        # single at seq 7 plus the five-record batch frame behind it.
        assert recovered.snapshot is not None
        assert recovered.snapshot.wal_seq == 6
        assert recovered.n_replayed == 6
        assert recovered.wal_seq == 12
        assert np.array_equal(
            recovered.model.predict_batch(dataset),
            uninterrupted.predict_batch(dataset),
        )

    def test_recovery_continues_batching_identically(self, tmp_path, noisy_setup):
        """Recover past a batch frame, then keep unlearning in batches."""
        model, dataset = noisy_setup
        ops = [list(range(0, 5))]
        _crash_after_batched_campaign(tmp_path / "store", model, dataset, ops)

        uninterrupted = _apply_campaign_live(model, dataset, ops)
        recovered = ModelStore(tmp_path / "store").recover().model

        tail = [dataset.record(row) for row in range(5, 12)]
        for side in (uninterrupted, recovered):
            _ = side.packed
            side.unlearn_batch(tail, allow_budget_overrun=True)
        assert np.array_equal(
            recovered.predict_batch(dataset), uninterrupted.predict_batch(dataset)
        )


def _mixed_ops(dataset, k):
    """The first ``k`` of a fixed mixed insert/delete schedule."""
    ops = []
    for step in range(k):
        if step % 3 == 2:
            ops.append(("insert", dataset.record(200 + step)))
        else:
            ops.append(("delete", dataset.record(step)))
    return ops


def _apply_mixed(model, ops, store=None):
    """Apply ``ops`` to ``model`` on its packed write path, logging first."""
    _ = model.packed
    for kind, record in ops:
        if kind == "insert":
            if store is not None:
                store.wal.append_insertion(record, request_id="ins")
            model.learn_one(record)
        else:
            if store is not None:
                store.wal.append(record, request_id="del", allow_budget_overrun=True)
            model.unlearn(record, allow_budget_overrun=True)


class TestMixedStreamRecovery:
    """Replaying an interleaved insert/delete tail matches the live model."""

    @pytest.mark.parametrize("k", [3, 10, 24])
    def test_recovery_equals_live_model(self, tmp_path, noisy_setup, k):
        model, dataset = noisy_setup
        live = copy.deepcopy(model)
        with ModelStore(tmp_path / "store") as store:
            store.save_snapshot(live, wal_seq=0)
            _apply_mixed(live, _mixed_ops(dataset, k), store=store)
            # Crash: no final snapshot.

        recovered = ModelStore(tmp_path / "store").recover()
        assert recovered.n_replayed == k
        assert recovered.n_replay_failures == 0
        np.testing.assert_array_equal(
            recovered.model.predict_proba_batch(dataset),
            live.predict_proba_batch(dataset),
        )


class TestRejectedRecordReplay:
    def test_negative_code_frames_replay_as_failures(self, tmp_path, noisy_setup):
        # A request is logged before the model sees it. A record with a
        # negative code is refused as a typed error, so the audit counts
        # it as failed and recovery replays it as a failure, deletion
        # and insertion alike.
        model, dataset = noisy_setup
        live = copy.deepcopy(model)
        _ = live.packed.unlearn_pack()
        good = dataset.record(0)
        bad = Record((-1,) + tuple(good.values[1:]), good.label)
        with ModelStore(tmp_path / "store") as store:
            store.save_snapshot(live, wal_seq=0)
            audit = AuditedUnlearner(live, wal=store.wal)
            audit.unlearn("del-ok", good, allow_budget_overrun=True)
            audit.unlearn("del-bad", bad, allow_budget_overrun=True)
            audit.learn_one("ins-bad", bad)
            audit.learn_one("ins-ok", dataset.record(250))
        assert [entry.succeeded for entry in audit.entries] == [True, False, False, True]

        recovered = ModelStore(tmp_path / "store").recover()
        assert recovered.n_replayed == 2
        assert recovered.n_replay_failures == 2
        assert recovered.wal_seq == 4
        np.testing.assert_array_equal(
            recovered.model.predict_proba_batch(dataset),
            live.predict_proba_batch(dataset),
        )


class TestSnapshotHousekeeping:
    def test_snapshots_are_pruned(self, tmp_path, noisy_setup):
        model, dataset = noisy_setup
        work = copy.deepcopy(model)
        with ModelStore(tmp_path / "store", keep_snapshots=2) as store:
            store.save_snapshot(work, wal_seq=0)
            for row in range(6):
                record = dataset.record(row)
                store.wal.append(record, allow_budget_overrun=True)
                work.unlearn(record, allow_budget_overrun=True)
                store.save_snapshot(work)
            assert len(store.snapshot_paths()) == 2

    def test_snapshot_compacts_wal(self, tmp_path, noisy_setup):
        model, dataset = noisy_setup
        work = copy.deepcopy(model)
        with ModelStore(tmp_path / "store") as store:
            for row in range(5):
                record = dataset.record(row)
                store.wal.append(record, allow_budget_overrun=True)
                work.unlearn(record, allow_budget_overrun=True)
            store.save_snapshot(work)
            # Everything up to the snapshot is compacted away.
            assert list(store.wal.records(after_seq=0)) == []
            assert store.wal.last_seq == 5  # sequence numbering continues
