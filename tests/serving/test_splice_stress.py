"""Stress tests for in-place span splicing under concurrent serving.

Two scenarios the reserved-span layout must survive:

* a deletion's variant switch splices a subtree and the next publish
  mirrors the span while a shared-memory reader is mid-traversal -- the
  reader must retry under the seqlock (observed via :class:`ReaderStats`)
  and land on a validated, consistent read;
* crash recovery replays a WAL tail whose operations include a variant
  switch, so the recovered pack is a *spliced* pack -- it must be
  bit-identical (all seven flat arrays) to an eager from-scratch rebuild.
"""

import copy
import pickle
import threading
import time

import numpy as np
import pytest

from repro.core.ensemble import HedgeCutClassifier
from repro.core.packed import PackedEnsemble
from repro.persistence.store import ModelStore
from repro.serving import shm as shm_module
from repro.serving.shm import (
    SharedEnsembleReader,
    SharedPackedEnsemble,
    TornReadError,
)

from tests.conftest import make_random_dataset

pytestmark = pytest.mark.shm


@pytest.fixture(scope="module")
def dataset():
    return make_random_dataset(n_rows=300, seed=11)


def _assert_packs_bit_identical(spliced: PackedEnsemble, fresh: PackedEnsemble):
    """All seven flat arrays equal: the splice left zero residue."""
    a, b = spliced.arrays(), fresh.arrays()
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.payload, b.payload)
    assert np.array_equal(a.right, b.right)
    assert np.array_equal(a.route_flat, b.route_flat)
    assert np.array_equal(a.tree_roots, b.tree_roots)
    assert np.array_equal(a.leaf_n, b.leaf_n)
    assert np.array_equal(a.leaf_n_plus, b.leaf_n_plus)


def _unlearn_until_switch(model, dataset, max_rows=120):
    """Unlearn rows one by one until a deletion switches a variant."""
    for row in range(max_rows):
        report = model.unlearn(dataset.record(row), allow_budget_overrun=True)
        if report.variant_switches > 0:
            return report
    pytest.skip("campaign produced no variant switch to splice")


class TestFlushSpliceUnderConcurrentReads:
    def test_reader_mid_traversal_retries_and_validates(self, dataset, tmp_path):
        model = HedgeCutClassifier(n_trees=4, epsilon=0.05, seed=5).fit(dataset)
        packed = model.packed  # force the packed write path

        segment_name = f"hc-stress-{tmp_path.name[-8:]}"
        matrix = dataset.feature_matrix()[:16]
        in_window = threading.Event()
        result: dict = {}

        def _reader_main(reader):
            # Start the read only once the publish is in flight: a native
            # read takes microseconds, so a thread left to race the
            # publish could finish before the seqlock even turns odd.
            assert in_window.wait(timeout=5.0)
            result["probas"] = reader.predict_proba_rows(matrix)

        def _fault_hook():
            # Runs inside _commit while the seqlock is odd -- the span
            # memcpy is done but the publish is not sealed. A bounded
            # optimistic read here MUST observe the torn window, spin its
            # retry budget under the seqlock, and surface TornReadError:
            # the deterministic proof that mid-splice readers retry
            # rather than serving half-published structure.
            with SharedEnsembleReader(
                segment_name, max_retries=4, retry_wait_s=1e-5
            ) as probe:
                try:
                    probe.predict_proba_rows(matrix)
                except TornReadError:
                    result["torn_window_observed"] = True
            # Let the concurrent reader thread into the window too before
            # the seqlock seals (its read then completes post-commit).
            in_window.set()
            time.sleep(0.05)

        with SharedPackedEnsemble(segment_name, packed) as shared:
            with SharedEnsembleReader(
                segment_name, max_retries=10_000, retry_wait_s=1e-4
            ) as reader:
                # Splice while the segment is live: the switching deletion
                # rewrites the node's reserved span in the writer's pack and
                # leaves the dirty ranges for the next publish to mirror.
                report = _unlearn_until_switch(model, dataset)
                assert packed.has_dirty_spans
                thread = threading.Thread(target=_reader_main, args=(reader,))
                shm_module._PUBLISH_FAULT_HOOK = _fault_hook
                try:
                    thread.start()
                    kind = shared.publish(packed, wal_seq=1)
                finally:
                    shm_module._PUBLISH_FAULT_HOOK = None
                    thread.join(timeout=10.0)
                assert not thread.is_alive()
                assert kind == "spans"
                assert shared.generation == 0  # no new segments cut
                assert result.get("torn_window_observed"), (
                    "the mid-publish probe read did not retry and tear"
                )
                # The concurrent read completed only after the commit:
                # its result must be the *post-splice* state, bit-for-bit.
                assert np.array_equal(
                    result["probas"], packed.predict_proba_rows(matrix)
                )

        # And the spliced pack itself carries no residue of the old
        # variants: byte-identical to an eager from-scratch rebuild.
        _assert_packs_bit_identical(packed, pickle.loads(pickle.dumps(packed)))
        assert report.variant_switches >= 1


class TestRecoveryAcrossSplice:
    def test_wal_tail_replay_splices_bit_identically(self, dataset, tmp_path):
        model = HedgeCutClassifier(n_trees=4, epsilon=0.05, seed=5).fit(dataset)
        assert model.node_census().n_maintenance_nodes > 0

        # Live campaign: durably log deletions, apply them through the
        # packed fast path, and keep going until one of them splices.
        work = copy.deepcopy(model)
        switches = 0
        k = 0
        with ModelStore(tmp_path / "store") as store:
            store.save_snapshot(work, wal_seq=0)
            _ = work.packed
            while k < 120 and switches == 0:
                record = dataset.record(k)
                store.wal.append(
                    record, request_id=f"req-{k}", allow_budget_overrun=True
                )
                switches += work.unlearn(
                    record, allow_budget_overrun=True
                ).variant_switches
                k += 1
            # Crash here: no final snapshot.
        if switches == 0:
            pytest.skip("campaign produced no variant switch to splice")

        recovered = ModelStore(tmp_path / "store").recover()
        assert recovered.n_replayed == k

        # Recovery replays the tail through the same write path, so its
        # pack was spliced too -- and must equal both the uninterrupted
        # live pack and an eager from-scratch rebuild, bit for bit.
        _assert_packs_bit_identical(recovered.model.packed, work.packed)
        _assert_packs_bit_identical(
            recovered.model.packed,
            pickle.loads(pickle.dumps(recovered.model.packed)),
        )
        assert np.array_equal(
            recovered.model.predict_batch(dataset),
            work.predict_batch(dataset),
        )
