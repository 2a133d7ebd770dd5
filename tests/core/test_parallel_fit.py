"""Tests for process-pool parallel training (Section 5 parallelism)."""

import numpy as np
import pytest

from repro.core.ensemble import HedgeCutClassifier
from repro.core.params import HedgeCutParams
from repro.persistence.snapshot import load_snapshot, save_snapshot

from tests.conftest import make_random_dataset


class TestParallelTraining:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            HedgeCutParams(n_jobs=0)

    def test_parallel_equals_sequential(self):
        """Trees are fully independent, so worker processes must produce
        exactly the sequential result for the same seed."""
        dataset = make_random_dataset(n_rows=250, seed=61)
        sequential = HedgeCutClassifier(n_trees=4, seed=61).fit(dataset)
        parallel = HedgeCutClassifier(n_trees=4, seed=61, n_jobs=2).fit(dataset)
        assert np.array_equal(
            sequential.predict_batch(dataset), parallel.predict_batch(dataset)
        )
        assert (
            sequential.node_census().n_nodes == parallel.node_census().n_nodes
        )

    def test_parallel_model_supports_unlearning(self):
        dataset = make_random_dataset(n_rows=250, seed=62)
        model = HedgeCutClassifier(n_trees=2, epsilon=0.02, seed=62, n_jobs=2)
        model.fit(dataset)
        report = model.unlearn(dataset.record(0))
        assert report.leaves_updated >= 2

    def test_single_core_degrades_to_sequential(self, monkeypatch):
        """On a one-core machine a pool only adds spawn + dataset-copy
        overhead: ``n_jobs > 1`` must silently take the sequential path
        (and still train the identical model)."""
        import concurrent.futures

        def _no_pool(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor must not be spawned")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _no_pool
        )
        import repro.core.ensemble as ensemble_module

        monkeypatch.setattr(ensemble_module.os, "cpu_count", lambda: 1)
        dataset = make_random_dataset(n_rows=200, seed=61)
        degraded = HedgeCutClassifier(n_trees=4, seed=61, n_jobs=4).fit(dataset)
        sequential = HedgeCutClassifier(n_trees=4, seed=61).fit(dataset)
        assert np.array_equal(
            degraded.predict_batch(dataset), sequential.predict_batch(dataset)
        )

    def test_single_tree_never_pays_for_a_pool(self, monkeypatch):
        """Effective parallelism is capped by the tree count: one tree
        with many jobs must not spawn workers either."""
        import concurrent.futures

        def _no_pool(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor must not be spawned")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _no_pool
        )
        dataset = make_random_dataset(n_rows=200, seed=61)
        model = HedgeCutClassifier(n_trees=1, seed=61, n_jobs=8).fit(dataset)
        assert model.is_fitted

    def test_save_load_preserves_n_jobs(self, tmp_path):
        dataset = make_random_dataset(n_rows=200, seed=63)
        model = HedgeCutClassifier(n_trees=2, seed=63, n_jobs=2).fit(dataset)
        save_snapshot(model, tmp_path / "m.npz")
        restored, _ = load_snapshot(tmp_path / "m.npz")
        assert restored.params.n_jobs == 2
