"""Tests for versioned, checksummed model snapshots."""

import copy
import json

import numpy as np
import pytest

from repro.core.ensemble import HedgeCutClassifier
from repro.core.nodes import MaintenanceNode, iter_nodes
from repro.persistence.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotFormatError,
    SnapshotIntegrityError,
    _checksum,
    load_snapshot,
    read_snapshot_info,
    save_snapshot,
)
from repro.persistence.store import ModelStore

from tests.conftest import make_random_dataset


@pytest.fixture(scope="module")
def noisy_model_and_data():
    """A model trained with a loose budget so maintenance nodes appear."""
    dataset = make_random_dataset(n_rows=300, seed=11)
    model = HedgeCutClassifier(n_trees=4, epsilon=0.05, seed=5).fit(dataset)
    assert model.node_census().n_maintenance_nodes > 0
    return model, dataset


class TestRoundTrip:
    def test_predictions_identical(self, tmp_path, noisy_model_and_data):
        model, dataset = noisy_model_and_data
        save_snapshot(model, tmp_path / "m.npz")
        restored, info = load_snapshot(tmp_path / "m.npz")
        assert np.array_equal(restored.predict_batch(dataset), model.predict_batch(dataset))
        assert info.n_trees == len(model.trees)

    def test_census_and_counters_identical(self, tmp_path, noisy_model_and_data):
        model, _ = noisy_model_and_data
        save_snapshot(model, tmp_path / "m.npz")
        restored, _ = load_snapshot(tmp_path / "m.npz")
        assert restored.node_census() == model.node_census()
        for original, copy_ in zip(model.trees, restored.trees):
            assert original.counters == copy_.counters

    def test_maintenance_state_preserved(self, tmp_path, noisy_model_and_data):
        model, _ = noisy_model_and_data
        save_snapshot(model, tmp_path / "m.npz")
        restored, _ = load_snapshot(tmp_path / "m.npz")
        originals = [
            node
            for tree in model.trees
            for node in iter_nodes(tree.root)
            if isinstance(node, MaintenanceNode)
        ]
        copies = [
            node
            for tree in restored.trees
            for node in iter_nodes(tree.root)
            if isinstance(node, MaintenanceNode)
        ]
        assert len(originals) == len(copies) > 0
        for original, copy_ in zip(originals, copies):
            assert original.active_index == copy_.active_index
            assert [v.gain for v in original.variants] == [v.gain for v in copy_.variants]
            assert [v.stats for v in original.variants] == [v.stats for v in copy_.variants]

    def test_unlearning_counters_and_schema_preserved(self, tmp_path, noisy_model_and_data):
        model, dataset = noisy_model_and_data
        model = copy.deepcopy(model)
        for row in range(3):
            model.unlearn(dataset.record(row), allow_budget_overrun=True)
        save_snapshot(model, tmp_path / "m.npz", wal_seq=3)
        restored, info = load_snapshot(tmp_path / "m.npz")
        assert restored.n_unlearned == model.n_unlearned == 3
        assert restored.deletion_budget == model.deletion_budget
        assert restored.n_trained_on == model.n_trained_on
        assert restored.schema == model.schema
        assert restored.params == model.params
        assert info.wal_seq == 3

    def test_unlearning_continues_identically_after_restore(
        self, tmp_path, noisy_model_and_data
    ):
        model, dataset = noisy_model_and_data
        original = copy.deepcopy(model)
        save_snapshot(model, tmp_path / "m.npz")
        restored, _ = load_snapshot(tmp_path / "m.npz")
        for row in range(10):
            original.unlearn(dataset.record(row), allow_budget_overrun=True)
            restored.unlearn(dataset.record(row), allow_budget_overrun=True)
        assert np.array_equal(
            restored.predict_batch(dataset), original.predict_batch(dataset)
        )


class TestSafety:
    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(SnapshotFormatError):
            save_snapshot(HedgeCutClassifier(n_trees=2), tmp_path / "m.npz")

    def test_corruption_detected(self, tmp_path, noisy_model_and_data):
        model, _ = noisy_model_and_data
        path = tmp_path / "m.npz"
        save_snapshot(model, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        # A flipped byte is caught either by the zip/zlib container or by
        # the snapshot checksum -- it must never load silently.
        with pytest.raises(Exception):
            load_snapshot(path)

    def test_tampered_metadata_detected(self, tmp_path, noisy_model_and_data):
        model, _ = noisy_model_and_data
        path = tmp_path / "m.npz"
        save_snapshot(model, path)
        # Rewrite the archive with an edited metadata block but the stored
        # (now stale) checksum: integrity verification must catch it.
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(str(arrays["__meta__"]))
        meta["n_unlearned"] = 999
        arrays["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
        with open(path, "wb") as sink:
            np.savez_compressed(sink, **arrays)
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(path)

    def test_not_a_snapshot_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez_compressed(path, data=np.arange(3))
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path)

    def test_future_version_rejected(self, tmp_path, noisy_model_and_data):
        model, _ = noisy_model_and_data
        path = tmp_path / "m.npz"
        save_snapshot(model, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(str(arrays["__meta__"]))
        meta["format_version"] = SNAPSHOT_VERSION + 1
        arrays["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
        with open(path, "wb") as sink:
            np.savez_compressed(sink, **arrays)
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path)


class TestInfo:
    def test_read_info_without_decoding(self, tmp_path, noisy_model_and_data):
        model, _ = noisy_model_and_data
        path = tmp_path / "m.npz"
        written = save_snapshot(model, path, wal_seq=17)
        info = read_snapshot_info(path)
        assert info.wal_seq == 17
        assert info.n_trees == len(model.trees)
        assert info.n_nodes == written.n_nodes
        assert info.checksum == written.checksum
        assert info.size_bytes == path.stat().st_size > 0


def _rewrite_params(path, edit) -> None:
    """Apply ``edit`` to a snapshot's stored params and re-seal its checksum.

    The result is a well-formed, integrity-checked file whose params differ
    from what this build writes -- as a snapshot from another build would.
    """
    _reseal(path, lambda meta, arrays: edit(meta["params"]))


def _reseal(path, edit) -> None:
    """Apply ``edit(meta, arrays)`` to a snapshot and re-seal its checksum."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files if key != "__meta__"}
        meta = json.loads(str(archive["__meta__"]))
    edit(meta, arrays)
    meta["checksum"] = _checksum(arrays, meta)
    with open(path, "wb") as sink:
        np.savez_compressed(
            sink, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays
        )


def _add_random_column(meta, arrays, set_row=None) -> None:
    """Give a snapshot the ``node_random`` column older builds wrote."""
    column = np.zeros(arrays["node_kind"].shape[0], dtype=np.bool_)
    if set_row is not None:
        column[set_row] = True
    arrays["node_random"] = column


class TestStoredParams:
    def test_legacy_trainer_key_loads_bit_identically(
        self, tmp_path, noisy_model_and_data
    ):
        model, dataset = noisy_model_and_data
        path = tmp_path / "m.npz"
        save_snapshot(model, path)
        _rewrite_params(path, lambda params: params.update(trainer="recursive"))
        restored, _ = load_snapshot(path)
        matrix = dataset.feature_matrix()
        assert restored.params == model.params
        assert np.array_equal(
            restored.predict_proba_rows(matrix), model.predict_proba_rows(matrix)
        )

    def test_store_recovers_from_legacy_trainer_key(
        self, tmp_path, noisy_model_and_data
    ):
        model, dataset = noisy_model_and_data
        with ModelStore(tmp_path / "store") as store:
            store.save_snapshot(model, wal_seq=0)
            (path,) = store.snapshot_paths()
        _rewrite_params(path, lambda params: params.update(trainer="recursive"))
        with ModelStore(tmp_path / "store") as store:
            recovered = store.recover()
        matrix = dataset.feature_matrix()
        assert recovered.skipped_snapshots == []
        assert np.array_equal(
            recovered.model.predict_proba_rows(matrix),
            model.predict_proba_rows(matrix),
        )

    def test_pre_topd_snapshot_loads_with_topd_zero(
        self, tmp_path, noisy_model_and_data
    ):
        # A snapshot from before the random-top-level knob has no topd key,
        # no node_random column and no random_splits counter: the files
        # this build writes.
        model, dataset = noisy_model_and_data
        path = tmp_path / "m.npz"
        save_snapshot(model, path)
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["__meta__"]))
            assert "node_random" not in archive.files
        assert "topd" not in meta["params"]
        assert all("random_splits" not in entry for entry in meta["tree_counters"])
        restored, _ = load_snapshot(path)
        assert np.array_equal(
            restored.predict_batch(dataset), model.predict_batch(dataset)
        )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta, arrays: meta["params"].update(topd=2),
            lambda meta, arrays: _add_random_column(meta, arrays, set_row=0),
            lambda meta, arrays: meta["tree_counters"][-1].update(random_splits=1),
        ],
        ids=["topd-param", "node-random-column", "random-splits-counter"],
    )
    def test_random_top_levels_raise_format_error(
        self, tmp_path, noisy_model_and_data, edit
    ):
        # Random, statistics-frozen top levels have no decoding here; they
        # must not load as statistics-maintained splits.
        model, _ = noisy_model_and_data
        path = tmp_path / "m.npz"
        save_snapshot(model, path)
        _reseal(path, edit)
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path)

    def test_topd_zero_snapshot_loads_bit_identically(
        self, tmp_path, noisy_model_and_data
    ):
        model, dataset = noisy_model_and_data

        def edit(meta, arrays):
            meta["params"]["topd"] = 0
            _add_random_column(meta, arrays)
            for entry in meta["tree_counters"]:
                entry["random_splits"] = 0

        matrix = dataset.feature_matrix()
        path = tmp_path / "m.npz"
        save_snapshot(model, path)
        _reseal(path, edit)
        restored, _ = load_snapshot(path)
        assert restored.params == model.params
        assert np.array_equal(
            restored.predict_proba_rows(matrix), model.predict_proba_rows(matrix)
        )

        with ModelStore(tmp_path / "store") as store:
            store.save_snapshot(model, wal_seq=0)
            (path,) = store.snapshot_paths()
        _reseal(path, edit)
        with ModelStore(tmp_path / "store") as store:
            recovered = store.recover()
        assert recovered.skipped_snapshots == []
        assert np.array_equal(
            recovered.model.predict_proba_rows(matrix),
            model.predict_proba_rows(matrix),
        )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda params: params.update(bogus=1),
            lambda params: params.pop("epsilon"),
            lambda params: params.update(n_trees=0),
        ],
        ids=["unknown-key", "missing-key", "invalid-value"],
    )
    def test_mismatched_params_raise_format_error(
        self, tmp_path, noisy_model_and_data, edit
    ):
        model, _ = noisy_model_and_data
        path = tmp_path / "m.npz"
        save_snapshot(model, path)
        _rewrite_params(path, edit)
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path)
