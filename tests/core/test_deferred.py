"""Deferred-maintenance equivalence: ``deferred + flush == eager``.

The deferred mode's whole contract is that laziness is unobservable: a
model that tags maintenance nodes and re-scores later must land on the
*bit-identical* state an eager twin reaches, with the same cumulative
variant-switch count, no matter how deletions, insertions, predictions
and flushes interleave. The hypothesis suite drives random interleavings
of those four operations against twin models on registry datasets; the
unit tests pin the individual mechanisms (pending accounting, budget
trips, flush-on-predict, the pickling guard, write-through insertion).
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.deferred import MaintenanceFlushReport, flush_deferred
from repro.core.ensemble import HedgeCutClassifier
from repro.datasets.registry import load_dataset

from tests.conftest import make_random_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_random_dataset(n_rows=300, seed=11)


def _fit(dataset, maintenance="eager", **kwargs):
    params = dict(n_trees=4, epsilon=0.05, seed=5)
    params.update(kwargs)
    model = HedgeCutClassifier(maintenance=maintenance, **params).fit(dataset)
    assert model.node_census().n_maintenance_nodes > 0
    return model


def _probe(dataset):
    return dataset.take(np.arange(min(120, dataset.n_rows)))


class TestPendingAccounting:
    def test_deferred_delete_tags_without_rescoring(self, dataset):
        model = _fit(dataset, maintenance="deferred")
        model.flush_on_predict = False
        report = model.unlearn(dataset.record(0), allow_budget_overrun=True)
        assert report.maintenance_nodes_visited > 0
        assert model.pending_maintenance_nodes > 0
        assert model.pending_maintenance_visits >= model.pending_maintenance_nodes
        # Tagging skips the re-score entirely; switches surface at flush.
        assert report.variant_switches == 0

    def test_flush_drains_and_reports(self, dataset):
        model = _fit(dataset, maintenance="deferred")
        model.flush_on_predict = False
        for row in range(8):
            model.unlearn(dataset.record(row), allow_budget_overrun=True)
        pending_nodes = model.pending_maintenance_nodes
        report = model.flush_maintenance()
        assert isinstance(report, MaintenanceFlushReport)
        assert report.nodes_flushed == pending_nodes
        assert report.visits_replayed > 0
        assert model.pending_maintenance_nodes == 0
        assert model.pending_maintenance_visits == 0
        # A second flush is a no-op.
        assert model.flush_maintenance().visits_replayed == 0

    def test_flush_is_noop_on_unfitted_model(self):
        model = HedgeCutClassifier(n_trees=2, maintenance="deferred")
        assert model.flush_maintenance().nodes_flushed == 0

    def test_predict_flushes_pending_by_default(self, dataset):
        model = _fit(dataset, maintenance="deferred")
        model.unlearn(dataset.record(0), allow_budget_overrun=True)
        assert model.pending_maintenance_visits > 0
        model.predict(dataset.record(5))
        assert model.pending_maintenance_visits == 0

    def test_eager_call_flushes_older_deferred_work(self, dataset):
        model = _fit(dataset, maintenance="deferred")
        model.flush_on_predict = False
        model.unlearn(dataset.record(0), allow_budget_overrun=True)
        assert model.pending_maintenance_visits > 0
        model.unlearn(
            dataset.record(1), allow_budget_overrun=True, maintenance="eager"
        )
        assert model.pending_maintenance_visits == 0

    def test_deferred_object_path_rejected(self, dataset):
        model = _fit(dataset)
        with pytest.raises(ValueError, match="packed write path"):
            model.unlearn(dataset.record(0), path="object", maintenance="deferred")

    def test_bad_maintenance_mode_rejected(self, dataset):
        with pytest.raises(ValueError, match="maintenance"):
            HedgeCutClassifier(n_trees=2, maintenance="lazy")
        model = _fit(dataset)
        with pytest.raises(ValueError, match="maintenance"):
            model.unlearn(dataset.record(0), maintenance="lazy")

    def test_pickle_guard_blocks_pending_state(self, dataset):
        model = _fit(dataset, maintenance="deferred")
        model.flush_on_predict = False
        model.unlearn(dataset.record(0), allow_budget_overrun=True)
        with pytest.raises(RuntimeError, match="flush_maintenance"):
            pickle.dumps(model.packed)
        model.flush_maintenance()
        pickle.dumps(model.packed)  # fine once drained


class TestEquivalenceFixedSchedules:
    """Deterministic mixed schedules; the hypothesis class randomises."""

    def _run_schedule(self, dataset, maintenance, budget=None):
        model = _fit(
            dataset, maintenance=maintenance, maintenance_budget=budget
        )
        model.flush_on_predict = False
        switches = 0
        insert_rows = range(200, 240)
        inserts = iter([dataset.record(row) for row in insert_rows])
        for step, row in enumerate(range(60)):
            if step % 3 == 2:
                switches += model.learn_one(next(inserts)).variant_switches
            elif step % 7 == 5:
                records = [dataset.record(row), dataset.record(row + 100)]
                switches += model.unlearn_batch(
                    records, allow_budget_overrun=True
                ).variant_switches
            else:
                switches += model.unlearn(
                    dataset.record(row), allow_budget_overrun=True
                ).variant_switches
        switches += model.flush_maintenance().variant_switches
        return model, switches

    @pytest.mark.parametrize("budget", [None, 8, 1])
    def test_deferred_plus_flush_equals_eager(self, dataset, budget):
        eager, eager_switches = self._run_schedule(dataset, "eager")
        deferred, deferred_switches = self._run_schedule(
            dataset, "deferred", budget=budget
        )
        probe = _probe(dataset)
        np.testing.assert_array_equal(
            deferred.predict_proba_batch(probe), eager.predict_proba_batch(probe)
        )
        assert deferred_switches == eager_switches

    def test_budget_trips_bound_pending_visits(self, dataset):
        model = _fit(dataset, maintenance="deferred", maintenance_budget=2)
        model.flush_on_predict = False
        for row in range(30):
            model.unlearn(dataset.record(row), allow_budget_overrun=True)
            # A node that reaches the budget is flushed immediately, so no
            # node ever holds more than budget pending visits afterwards.
            pack = model.packed.unlearn_pack()
            if len(pack.pending_mnode):
                counts = np.bincount(pack.pending_mnode)
                assert counts.max() <= 2

    def test_partial_flush_keeps_remaining_consistent(self, dataset):
        eager, eager_switches = self._run_schedule(dataset, "eager")
        model = _fit(dataset, maintenance="deferred")
        model.flush_on_predict = False
        total = 0
        inserts = iter([dataset.record(row) for row in range(200, 240)])
        for step, row in enumerate(range(60)):
            if step % 3 == 2:
                total += model.learn_one(next(inserts)).variant_switches
            elif step % 7 == 5:
                records = [dataset.record(row), dataset.record(row + 100)]
                total += model.unlearn_batch(
                    records, allow_budget_overrun=True
                ).variant_switches
            else:
                total += model.unlearn(
                    dataset.record(row), allow_budget_overrun=True
                ).variant_switches
            if step == 30:
                # Flush half the tagged nodes mid-stream via the kernel.
                pack = model.packed.unlearn_pack()
                tagged = np.unique(pack.pending_mnode)
                report = flush_deferred(pack, node_ids=tagged[: len(tagged) // 2])
                total += report.variant_switches
                for index in report.switched_trees:
                    model.packed.repack_tree(index)
        total += model.flush_maintenance().variant_switches
        probe = _probe(dataset)
        np.testing.assert_array_equal(
            model.predict_proba_batch(probe), eager.predict_proba_batch(probe)
        )
        assert total == eager_switches


class TestLearnOneWriteThrough:
    def test_insertion_is_o1_on_packed_model(self, dataset):
        """Regression: learn_one must not invalidate the unlearn pack."""
        model = _fit(dataset)
        pack_before = model.packed.unlearn_pack()
        assert not pack_before._stale
        model.learn_one(dataset.record(250))
        pack_after = model.packed._unlearn_pack
        assert pack_after is pack_before  # no rebuild scheduled
        assert not pack_after._stale  # and no mark-stale write-through

    def test_insertion_matches_object_walk(self, dataset):
        packed_model = _fit(dataset)
        object_model = copy.deepcopy(packed_model)
        object_model._packed = None
        record = dataset.record(250)
        packed_report = packed_model.learn_one(record)
        object_report = object_model.learn_one(record)
        assert packed_report.leaves_updated == object_report.leaves_updated
        assert packed_report.variant_switches == object_report.variant_switches
        probe = _probe(dataset)
        np.testing.assert_array_equal(
            packed_model.predict_proba_batch(probe),
            object_model.predict_proba_batch(probe),
        )

    def test_insert_then_delete_roundtrip_restores_stats(self, dataset):
        model = _fit(dataset)
        baseline = model.predict_proba_batch(_probe(dataset))
        record = dataset.record(250)
        model.learn_one(record)
        model.unlearn(record, allow_budget_overrun=True)
        np.testing.assert_array_equal(
            model.predict_proba_batch(_probe(dataset)), baseline
        )


_BASE_MODELS: dict[str, tuple] = {}


def _twin_models(name):
    """Fitted eager/deferred twins on a registry dataset (cached fit)."""
    if name not in _BASE_MODELS:
        data = load_dataset(name, n_rows=400, seed=3)
        model = HedgeCutClassifier(n_trees=3, epsilon=0.05, seed=7).fit(data)
        assert model.node_census().n_maintenance_nodes > 0
        _BASE_MODELS[name] = (data, model)
    data, base = _BASE_MODELS[name]
    eager = copy.deepcopy(base)
    deferred = copy.deepcopy(base)
    deferred.maintenance = "deferred"
    deferred.flush_on_predict = False
    return data, eager, deferred


class TestEquivalenceProperty:
    """Random interleavings of delete / insert / predict / flush."""

    @given(
        name=st.sampled_from(["income", "heart"]),
        ops=st.lists(
            st.tuples(st.sampled_from("ddipf"), st.integers(0, 10_000)),
            min_size=5,
            max_size=40,
        ),
        budget=st.sampled_from([None, 4, 1]),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_interleaving_is_equivalent(self, name, ops, budget):
        data, eager, deferred = _twin_models(name)
        deferred.maintenance_budget = budget
        delete_rows = list(range(200))
        insert_rows = list(range(200, 400))
        eager_switches = deferred_switches = 0
        for kind, pick in ops:
            if kind == "d":
                if not delete_rows:
                    continue
                record = data.record(delete_rows.pop(pick % len(delete_rows)))
                eager_switches += eager.unlearn(
                    record, allow_budget_overrun=True
                ).variant_switches
                deferred_switches += deferred.unlearn(
                    record, allow_budget_overrun=True
                ).variant_switches
            elif kind == "i":
                if not insert_rows:
                    continue
                record = data.record(insert_rows.pop(pick % len(insert_rows)))
                eager_switches += eager.learn_one(record).variant_switches
                deferred_switches += deferred.learn_one(record).variant_switches
            elif kind == "p":
                row = data.feature_matrix()[pick % data.n_rows][None, :]
                # flush_on_predict is off, so the test owns the flush
                # (and must keep counting the switches it surfaces).
                deferred_switches += deferred.flush_maintenance().variant_switches
                np.testing.assert_array_equal(
                    deferred.predict_rows(row), eager.predict_rows(row)
                )
            else:
                deferred_switches += deferred.flush_maintenance().variant_switches
        deferred_switches += deferred.flush_maintenance().variant_switches
        probe = _probe(data)
        np.testing.assert_array_equal(
            deferred.predict_proba_batch(probe), eager.predict_proba_batch(probe)
        )
        assert deferred_switches == eager_switches
