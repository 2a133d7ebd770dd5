"""Tests for the shared-memory replica fleet (:mod:`repro.serving.shm`).

Everything here is marked ``shm`` (creates shared-memory segments and/or
spawns reader processes). The quick in-process and small-fleet tests run
in tier-1; the heavy kill/restart matrix additionally carries ``slow``.
"""

import copy
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.ensemble import HedgeCutClassifier
from repro.persistence.store import ModelStore
from repro.serving import shm as shm_module
from repro.serving.microbatch import MicroBatchConfig
from repro.serving.shm import (
    HDR_SEQLOCK,
    SharedEnsembleReader,
    SharedPackedEnsemble,
    ShmReplicatedServingEngine,
    TornReadError,
)

from tests.conftest import make_random_dataset

pytestmark = pytest.mark.shm


@pytest.fixture(scope="module")
def dataset():
    return make_random_dataset(n_rows=300, seed=11)


@pytest.fixture()
def model(dataset):
    return HedgeCutClassifier(n_trees=4, epsilon=0.05, seed=5).fit(dataset)


@pytest.fixture()
def segment_name(request):
    # Unique per test: parallel test processes must never share segments.
    return f"hc-test-{os.getpid():x}-{abs(hash(request.node.nodeid)) % 10**8:x}"


def _alive(pid):
    """Whether process ``pid`` still runs (an unreaped zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _engine(tmp_path, model, **kwargs):
    kwargs.setdefault("n_readers", 2)
    return ShmReplicatedServingEngine(
        model, ModelStore(tmp_path / "store"), **kwargs
    )


class TestSharedRoundtrip:
    """Writer plus an in-process reader: the protocol without processes."""

    def test_reader_is_bit_identical_to_packed(self, model, dataset, segment_name):
        packed = model.packed
        matrix = dataset.feature_matrix()
        with SharedPackedEnsemble(segment_name, packed) as shared:
            with SharedEnsembleReader(segment_name) as reader:
                assert np.array_equal(
                    reader.predict_proba_rows(matrix),
                    packed.predict_proba_rows(matrix),
                )
                assert np.array_equal(
                    reader.predict_rows(matrix), packed.predict_rows(matrix)
                )
                assert np.array_equal(
                    reader.predict_votes_rows(matrix),
                    packed.predict_votes_rows(matrix),
                )
                assert reader.stats.n_reads == 3
                assert shared.wal_seq == 0

    def test_leaf_publish_reaches_attached_reader(self, model, dataset, segment_name):
        with SharedPackedEnsemble(segment_name, model.packed) as shared:
            with SharedEnsembleReader(segment_name) as reader:
                matrix = dataset.feature_matrix()
                for row in range(10):
                    model.unlearn(dataset.record(row), allow_budget_overrun=True)
                # Same pack object, same epoch: cheap leaf publish suffices.
                assert shared.publish(model.packed, wal_seq=10) in ("leaves", "structure")
                assert reader.wal_seq == 10
                assert np.array_equal(
                    reader.predict_proba_rows(matrix),
                    model.packed.predict_proba_rows(matrix),
                )

    def test_variant_switch_publishes_span_delta(self, model, dataset, segment_name):
        # A variant switch splices in place: the publish copies only the
        # dirty spans, cuts NO new generation, and the attached reader sees
        # the new structure bit-identically without re-mapping segments.
        packed = model.packed
        info = next(
            (
                span
                for span in packed._spans.values()
                if len(span.node.variants) > 1
            ),
            None,
        )
        if info is None:
            pytest.skip("model has no multi-variant maintenance node")
        node = info.node
        with SharedPackedEnsemble(segment_name, packed) as shared:
            with SharedEnsembleReader(segment_name) as reader:
                matrix = dataset.feature_matrix()
                reader.predict_rows(matrix)
                assert reader.generation == 0
                node.active_index = (node.active_index + 1) % len(node.variants)
                assert packed.splice_subtree(node) == info.tree
                assert shared.publish(packed, wal_seq=1) == "spans"
                assert shared.generation == 0  # geometry unchanged
                assert shared.span_publishes == 1
                assert 0 < shared.last_structural_bytes
                assert (
                    shared.last_structural_bytes
                    < shared.generation_structural_bytes
                )
                assert reader.wal_seq == 1
                assert np.array_equal(
                    reader.predict_proba_rows(matrix),
                    packed.predict_proba_rows(matrix),
                )
                assert reader.generation == 0
                assert reader.stats.generation_switches == 1  # initial only

    def test_rebuild_cuts_new_generation(self, model, dataset, segment_name):
        # A genuinely geometry-changing event (here: a snapshot-restore
        # style rebuild via pickle) still goes through the full structural
        # path: new epoch, new generation segments.
        import pickle

        with SharedPackedEnsemble(segment_name, model.packed) as shared:
            with SharedEnsembleReader(segment_name) as reader:
                matrix = dataset.feature_matrix()
                reader.predict_rows(matrix)
                rebuilt = pickle.loads(pickle.dumps(model.packed))
                assert shared.publish(rebuilt, wal_seq=1) == "structure"
                assert shared.generation == 1
                assert np.array_equal(
                    reader.predict_proba_rows(matrix),
                    rebuilt.predict_proba_rows(matrix),
                )
                assert reader.generation == 1
                assert reader.stats.generation_switches == 2  # initial + bump

    def test_attach_to_missing_segment_fails(self):
        with pytest.raises(FileNotFoundError):
            SharedEnsembleReader("hc-test-no-such-segment")

    def test_torn_publish_exhausts_retry_bound(self, model, dataset, segment_name):
        with SharedPackedEnsemble(segment_name, model.packed) as shared:
            with SharedEnsembleReader(
                segment_name, max_retries=5, retry_wait_s=1e-5
            ) as reader:
                matrix = dataset.feature_matrix()[:4]
                # Simulate a writer dead mid-publish: seqlock left odd.
                shared._header[HDR_SEQLOCK] += 1
                with pytest.raises(TornReadError):
                    reader.predict_rows(matrix)
                # Writer completes the publish: reads succeed again and the
                # retries were counted, not silently swallowed.
                shared._header[HDR_SEQLOCK] += 1
                reader.predict_rows(matrix)
                assert reader.stats.n_reads == 1

    def test_wal_barrier_times_out_without_writer(self, model, segment_name):
        with SharedPackedEnsemble(segment_name, model.packed):
            with SharedEnsembleReader(segment_name, wal_timeout_s=0.05) as reader:
                reader.wait_for_wal(0)  # already published
                with pytest.raises(TornReadError):
                    reader.wait_for_wal(10**6)
                assert reader.stats.wal_waits == 1

    def test_orphaned_segments_are_reclaimed(self, model, segment_name):
        # A writer that never closed (SIGKILL) leaves named segments behind;
        # the next writer under the same name must claim them, not crash.
        abandoned = SharedPackedEnsemble(segment_name, model.packed)
        try:
            with SharedPackedEnsemble(segment_name, model.packed) as shared:
                with SharedEnsembleReader(segment_name) as reader:
                    assert reader.wal_seq == shared.wal_seq
        finally:
            abandoned.close(unlink=False)  # its segments were taken over


class TestFleetEngine:
    """The full engine: reader processes, consistency modes, crash healing."""

    def test_strong_reads_match_reference_after_campaign(
        self, tmp_path, model, dataset
    ):
        reference = copy.deepcopy(model)
        with _engine(tmp_path, model, consistency="strong") as engine:
            for row in range(6):
                entry = engine.unlearn(
                    f"req-{row}", dataset.record(row), allow_budget_overrun=True
                )
                assert entry.succeeded
                reference.unlearn(dataset.record(row), allow_budget_overrun=True)
            assert engine.staleness() == [0, 0]
            expected = reference.predict_proba_batch(dataset)
            # Round-robin over both readers: each answers bit-identically.
            for _ in range(2):
                assert np.array_equal(engine.predict_proba_batch(dataset), expected)
            assert np.array_equal(
                engine.predict_batch(dataset), reference.predict_batch(dataset)
            )

    def test_read_your_deletes_publishes_lazily(self, tmp_path, model, dataset):
        reference = copy.deepcopy(model)
        with _engine(tmp_path, model, consistency="read_your_deletes") as engine:
            for row in range(8):
                engine.unlearn(
                    f"req-{row}", dataset.record(row), allow_budget_overrun=True
                )
                reference.unlearn(dataset.record(row), allow_budget_overrun=True)
            assert engine.staleness() == [8, 8]  # durable but unpublished
            expected = reference.predict_proba_batch(dataset)
            assert np.array_equal(engine.predict_proba_batch(dataset), expected)
            assert engine.staleness() == [0, 0]  # the read forced the publish

    def test_eventual_reads_can_lag_until_sync(self, tmp_path, model, dataset):
        stale_model = copy.deepcopy(model)
        reference = copy.deepcopy(model)
        with _engine(
            tmp_path, model, n_readers=1, consistency="eventual"
        ) as engine:
            stale = stale_model.predict_proba_batch(dataset)
            for row in range(8):
                engine.unlearn(
                    f"req-{row}", dataset.record(row), allow_budget_overrun=True
                )
                reference.unlearn(dataset.record(row), allow_budget_overrun=True)
            assert engine.staleness() == [8]
            assert np.array_equal(engine.predict_proba_batch(dataset), stale)
            engine.sync()
            assert engine.staleness() == [0]
            assert np.array_equal(
                engine.predict_proba_batch(dataset),
                reference.predict_proba_batch(dataset),
            )

    def test_batch_deletions_group_commit(self, tmp_path, model, dataset):
        reference = copy.deepcopy(model)
        with _engine(tmp_path, model) as engine:
            records = [dataset.record(row) for row in range(12)]
            entry = engine.unlearn_batch(
                "batch-1", records, allow_budget_overrun=True
            )
            assert entry.succeeded
            for record in records:
                reference.unlearn(record, allow_budget_overrun=True)
            assert engine.durable_seq == 12
            assert np.array_equal(
                engine.predict_proba_batch(dataset),
                reference.predict_proba_batch(dataset),
            )

    def test_single_record_requests(self, tmp_path, model, dataset):
        reference = copy.deepcopy(model)
        with _engine(tmp_path, model, n_readers=1) as engine:
            record = dataset.record(3)
            assert engine.predict(record) == reference.predict(record)
            assert engine.predict_proba(record) == reference.predict_proba(record)

    def test_pipelined_fleet_matches_sync_path(self, tmp_path, model, dataset):
        with _engine(tmp_path, model) as engine:
            matrix = dataset.feature_matrix()
            expected = engine.predict_proba_rows(matrix)
            engine.broadcast_eval_matrix(matrix)
            handles = [
                engine.submit_eval("proba", start, min(start + 64, 300))
                for start in range(0, 300, 64)
            ]
            stitched = np.concatenate([handle.result() for handle in handles])
            assert np.array_equal(stitched, expected)

    def test_reader_sigkill_heals_transparently(self, tmp_path, model, dataset):
        with _engine(tmp_path, model, n_readers=2) as engine:
            expected = engine.predict_proba_batch(dataset)
            victim_pid = engine._readers[0].process.pid
            os.kill(victim_pid, signal.SIGKILL)
            engine._readers[0].process.join(timeout=5)
            # Both round-robin slots must answer: the dead reader is
            # detected, respawned (fresh attach by name) and re-sent.
            for _ in range(2):
                assert np.array_equal(engine.predict_proba_batch(dataset), expected)
            assert engine.reader_respawns == 1
            assert engine._readers[0].process.pid != victim_pid

    def test_rejects_bad_arguments(self, tmp_path, model):
        with pytest.raises(ValueError):
            _engine(tmp_path, model, n_readers=0)
        with pytest.raises(ValueError):
            _engine(tmp_path, model, consistency="quantum")


class TestCrashRecovery:
    """SIGKILL either role mid-campaign; recovery must be bit-identical."""

    def test_recover_resumes_from_snapshot_plus_wal(self, tmp_path, model, dataset):
        reference = copy.deepcopy(model)
        with _engine(tmp_path, model, n_readers=1) as engine:
            for row in range(4):
                engine.unlearn(
                    f"req-{row}", dataset.record(row), allow_budget_overrun=True
                )
                reference.unlearn(dataset.record(row), allow_budget_overrun=True)
            engine.snapshot()
            for row in range(4, 9):
                engine.unlearn(
                    f"req-{row}", dataset.record(row), allow_budget_overrun=True
                )
                reference.unlearn(dataset.record(row), allow_budget_overrun=True)
            # No snapshot of the tail: recovery must replay it from the WAL.
        recovered = ShmReplicatedServingEngine.recover(
            ModelStore(tmp_path / "store"), n_readers=2
        )
        with recovered:
            assert recovered.durable_seq == 9
            assert np.array_equal(
                recovered.predict_proba_batch(dataset),
                reference.predict_proba_batch(dataset),
            )

    def test_readers_exit_when_their_writer_is_killed(
        self, tmp_path, model, segment_name
    ):
        """SIGKILL a writer with a 2-reader fleet: both readers see EOF on
        their pipes and exit rather than outliving it as orphans."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        pids_out, pids_in = ctx.Pipe(duplex=False)

        def doomed_writer() -> None:
            engine = _engine(tmp_path, model, segment_name=segment_name)
            pids_in.send([reader.process.pid for reader in engine._readers])
            os.kill(os.getpid(), signal.SIGKILL)

        writer = ctx.Process(target=doomed_writer)
        writer.start()
        reader_pids = []
        try:
            assert pids_out.poll(60), "the writer never reported its readers"
            reader_pids = pids_out.recv()
            writer.join(timeout=30)
            assert writer.exitcode == -signal.SIGKILL
            deadline = time.monotonic() + 5.0
            while any(map(_alive, reader_pids)) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not any(map(_alive, reader_pids)), "a reader outlived its writer"
        finally:
            for pid in filter(_alive, reader_pids):
                os.kill(pid, signal.SIGKILL)
            # The dead writer could not unlink its segments.
            for path in Path("/dev/shm").glob(f"{segment_name}-*"):
                path.unlink()

    @pytest.mark.slow
    def test_writer_sigkill_mid_publish_recovers_bit_identically(
        self, tmp_path, dataset, segment_name
    ):
        """Kill the writer in the torn-publish window (seqlock odd), then
        recover: readers saw bounded retries, never wrong answers, and the
        restarted fleet serves the exact uninterrupted-run state."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")

        def crashing_campaign() -> None:
            model = HedgeCutClassifier(n_trees=4, epsilon=0.05, seed=5).fit(dataset)
            engine = ShmReplicatedServingEngine(
                model,
                ModelStore(tmp_path / "store"),
                n_readers=1,
                consistency="strong",
                segment_name=segment_name,
            )
            for row in range(4):
                engine.unlearn(
                    f"req-{row}", dataset.record(row), allow_budget_overrun=True
                )
            engine.snapshot()
            # Die inside the seqlock window of the *next* publish: the WAL
            # frame for req-4 is durable, the shared header is torn.
            shm_module._PUBLISH_FAULT_HOOK = lambda: os.kill(
                os.getpid(), signal.SIGKILL
            )
            engine.unlearn(
                "req-4", dataset.record(4), allow_budget_overrun=True
            )
            raise AssertionError("the fault hook must have killed this process")

        writer = ctx.Process(target=crashing_campaign)
        writer.start()
        writer.join(timeout=120)
        assert writer.exitcode == -signal.SIGKILL

        # The uninterrupted reference run of the same 5-deletion campaign.
        reference = HedgeCutClassifier(n_trees=4, epsilon=0.05, seed=5).fit(dataset)
        for row in range(5):
            reference.unlearn(dataset.record(row), allow_budget_overrun=True)

        # The same segment name makes the restart reclaim the dead
        # writer's segments.
        recovered = ShmReplicatedServingEngine.recover(
            ModelStore(tmp_path / "store"), n_readers=2, segment_name=segment_name
        )
        with recovered:
            assert recovered.durable_seq == 5  # req-4's frame survived
            assert np.array_equal(
                recovered.predict_proba_batch(dataset),
                reference.predict_proba_batch(dataset),
            )

    @pytest.mark.slow
    def test_reader_sigkill_storm_mid_campaign(self, tmp_path, model, dataset):
        """Repeatedly kill readers while deletions and reads interleave:
        answers stay bit-identical to the reference throughout."""
        reference = copy.deepcopy(model)
        with _engine(tmp_path, model, n_readers=2) as engine:
            for round_id in range(6):
                engine.unlearn(
                    f"req-{round_id}",
                    dataset.record(round_id),
                    allow_budget_overrun=True,
                )
                reference.unlearn(
                    dataset.record(round_id), allow_budget_overrun=True
                )
                if round_id % 2 == 0:
                    victim = engine._readers[round_id % 2]
                    os.kill(victim.process.pid, signal.SIGKILL)
                    victim.process.join(timeout=5)
                expected = reference.predict_proba_batch(dataset)
                for _ in range(2):  # hit both round-robin slots
                    assert np.array_equal(
                        engine.predict_proba_batch(dataset), expected
                    )
            assert engine.reader_respawns == 3


class TestShardedShm:
    def test_per_shard_segment_fleet_matches_inprocess(self, tmp_path, dataset):
        from repro.sharding.model import ShardedHedgeCut
        from repro.sharding.service import ShardedServingEngine
        from repro.sharding.store import ShardedModelStore

        model = ShardedHedgeCut(
            n_shards=2, n_trees=4, epsilon=0.05, seed=5
        ).fit(dataset)
        reference = copy.deepcopy(model)
        store = ShardedModelStore(tmp_path / "sharded", n_shards=2)
        with ShardedServingEngine(
            model, store, n_replicas=1, serving="shm"
        ) as engine:
            for row in range(6):
                engine.unlearn(
                    f"req-{row}", dataset.record(row), allow_budget_overrun=True
                )
                reference.unlearn(dataset.record(row), allow_budget_overrun=True)
            matrix = dataset.feature_matrix()
            assert np.array_equal(
                engine.predict_proba_rows(matrix),
                reference.predict_proba_rows(matrix),
            )
            assert np.array_equal(
                engine.predict_rows(matrix), reference.predict_rows(matrix)
            )

    def test_microbatcher_dispatches_over_the_fleet(self, tmp_path, dataset):
        """The batcher over a K=2 shm fleet: the benchmark's fleet stack."""
        from repro.sharding.microbatch import ShardedMicroBatcher
        from repro.sharding.model import ShardedHedgeCut
        from repro.sharding.service import ShardedServingEngine
        from repro.sharding.store import ShardedModelStore

        model = ShardedHedgeCut(
            n_shards=2, n_trees=4, epsilon=0.05, seed=5
        ).fit(dataset)
        reference = copy.deepcopy(model)
        store = ShardedModelStore(tmp_path / "sharded", n_shards=2)
        with ShardedServingEngine(
            model, store, n_replicas=1, serving="shm"
        ) as engine:
            batcher = ShardedMicroBatcher(engine, MicroBatchConfig(max_batch=4))
            before = [
                batcher.submit_predict(dataset.record(row).values)
                for row in range(6)
            ]
            deletions = [
                batcher.submit_unlearn(
                    f"req-{row}", dataset.record(row), allow_budget_overrun=True
                )
                for row in range(6)
            ]
            expected_before = reference.predict_batch(dataset)[:6]
            for row in range(6):
                reference.unlearn(dataset.record(row), allow_budget_overrun=True)
            after = [
                batcher.submit_predict(dataset.record(row).values)
                for row in range(8)
            ]
            batcher.flush()
            assert all(handle.result().succeeded for handle in deletions)
            assert np.array_equal(
                [handle.result() for handle in before], expected_before
            )
            assert np.array_equal(
                [handle.result() for handle in after],
                reference.predict_batch(dataset)[:8],
            )
            assert batcher.stats.n_requests == 14

    def test_rejects_unknown_serving_mode(self, tmp_path, dataset):
        from repro.sharding.model import ShardedHedgeCut
        from repro.sharding.service import ShardedServingEngine
        from repro.sharding.store import ShardedModelStore

        model = ShardedHedgeCut(n_shards=2, n_trees=4, epsilon=0.05, seed=5).fit(
            dataset
        )
        store = ShardedModelStore(tmp_path / "sharded", n_shards=2)
        with pytest.raises(ValueError):
            ShardedServingEngine(model, store, serving="carrier-pigeon")
