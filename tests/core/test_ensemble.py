"""Tests for the public HedgeCutClassifier API."""

import numpy as np
import pytest

from repro.core.ensemble import HedgeCutClassifier, _as_values
from repro.core.exceptions import (
    DeletionBudgetExhausted,
    NotFittedError,
    UnlearningError,
)
from repro.dataprep.dataset import Record
from repro.persistence.snapshot import SnapshotFormatError, load_snapshot, save_snapshot

from tests.conftest import make_random_dataset


class TestFit:
    def test_fit_returns_self(self, income_split):
        train, _ = income_split
        model = HedgeCutClassifier(n_trees=2, seed=0)
        assert model.fit(train) is model
        assert model.is_fitted

    def test_fit_builds_requested_tree_count(self, fitted_model_session):
        assert len(fitted_model_session.trees) == 5

    def test_fit_is_deterministic_per_seed(self, income_split):
        train, test = income_split
        first = HedgeCutClassifier(n_trees=3, seed=123).fit(train)
        second = HedgeCutClassifier(n_trees=3, seed=123).fit(train)
        assert np.array_equal(first.predict_batch(test), second.predict_batch(test))

    def test_different_seeds_differ(self, income_split):
        train, test = income_split
        first = HedgeCutClassifier(n_trees=3, seed=1).fit(train)
        second = HedgeCutClassifier(n_trees=3, seed=2).fit(train)
        # Almost surely at least one prediction differs on 120 test rows.
        assert not np.array_equal(
            first.predict_batch(test), second.predict_batch(test)
        ) or not np.array_equal(
            first.predict_batch(train), second.predict_batch(train)
        )

    def test_empty_dataset_rejected(self, income_small):
        model = HedgeCutClassifier(n_trees=1)
        with pytest.raises(ValueError):
            model.fit(income_small.take(np.asarray([], dtype=np.int64)))


class TestNotFitted:
    def test_predict_requires_fit(self):
        with pytest.raises(NotFittedError):
            HedgeCutClassifier().predict((0, 0, 0))

    def test_unlearn_requires_fit(self):
        with pytest.raises(NotFittedError):
            HedgeCutClassifier().unlearn(Record(values=(0,), label=0))

    def test_budget_requires_fit(self):
        with pytest.raises(NotFittedError):
            _ = HedgeCutClassifier().deletion_budget


class TestPrediction:
    def test_predict_accepts_record_and_tuple(self, fitted_model_session, income_split):
        train, _ = income_split
        record = train.record(0)
        by_record = fitted_model_session.predict(record)
        by_tuple = fitted_model_session.predict(record.values)
        assert by_record == by_tuple

    def test_predict_batch_matches_single(self, fitted_model_session, income_split):
        _, test = income_split
        batch = fitted_model_session.predict_batch(test)
        singles = [
            fitted_model_session.predict(test.record(row).values)
            for row in range(min(40, test.n_rows))
        ]
        assert batch[: len(singles)].tolist() == singles

    def test_predict_proba_in_unit_interval(self, fitted_model_session, income_split):
        _, test = income_split
        for row in range(0, test.n_rows, 17):
            proba = fitted_model_session.predict_proba(test.record(row).values)
            assert 0.0 <= proba <= 1.0

    def test_model_beats_majority_class(self, fitted_model_session, income_split):
        _, test = income_split
        predictions = fitted_model_session.predict_batch(test)
        accuracy = float(np.mean(predictions == test.labels))
        majority = max(
            float(np.mean(test.labels)), 1.0 - float(np.mean(test.labels))
        )
        assert accuracy >= majority - 0.05


class TestValueForms:
    """A record's values reach the kernel the same way in every accepted
    form; a tuple of plain ints skips the per-value conversion."""

    def test_every_form_predicts_alike(self, fitted_model_session, income_split):
        model = fitted_model_session
        _, test = income_split
        for row in range(0, test.n_rows, 7):
            record = test.record(row)
            values = tuple(record.values)
            forms = [
                record,
                values,
                list(values),
                np.asarray(values, dtype=np.int64),
                tuple(np.int64(value) for value in values),
            ]
            assert {model.predict(form) for form in forms} == {model.predict(values)}
            assert len({model.predict_proba(form) for form in forms}) == 1

    def test_only_plain_int_tuples_pass_through(self):
        values = (3, 0, 2)
        assert _as_values(values) is values
        for form in ([3, 0, 2], np.array(values), (np.int64(3), 0, 2), (3, False, 2)):
            converted = _as_values(form)
            assert converted == values and form is not converted
            assert {type(value) for value in converted} == {int}

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda values: ("a",) + values[1:], ValueError),
            (lambda values: (None,) + values[1:], TypeError),
            (lambda values: (2**70,) + values[1:], OverflowError),
            (lambda values: values[:1], IndexError),
        ],
    )
    def test_bad_values_raise(self, fitted_model_session, income_split, edit, error):
        _, test = income_split
        bad = edit(tuple(test.record(0).values))
        for form in (bad, list(bad)):
            with pytest.raises(error):
                fitted_model_session.predict(form)
            with pytest.raises(error):
                fitted_model_session.predict_proba(form)


class TestUnlearning:
    def test_unlearn_consumes_budget(self, fitted_model, income_split):
        train, _ = income_split
        budget = fitted_model.deletion_budget
        assert budget >= 1
        fitted_model.unlearn(train.record(0))
        assert fitted_model.n_unlearned == 1
        assert fitted_model.remaining_deletion_budget == budget - 1

    def test_budget_exhaustion_raises(self, fitted_model, income_split):
        train, _ = income_split
        for row in range(fitted_model.deletion_budget):
            fitted_model.unlearn(train.record(row))
        with pytest.raises(DeletionBudgetExhausted):
            fitted_model.unlearn(train.record(fitted_model.deletion_budget))

    def test_budget_overrun_opt_in(self, fitted_model, income_split):
        train, _ = income_split
        for row in range(fitted_model.deletion_budget):
            fitted_model.unlearn(train.record(row))
        report = fitted_model.unlearn(
            train.record(fitted_model.deletion_budget), allow_budget_overrun=True
        )
        assert report.leaves_updated >= 1

    def test_unlearn_requires_record_type(self, fitted_model):
        with pytest.raises(TypeError):
            fitted_model.unlearn((0, 0, 0))

    def test_unlearn_rejects_wrong_arity(self, fitted_model):
        with pytest.raises(UnlearningError):
            fitted_model.unlearn(Record(values=(0,), label=0))

    def test_unlearn_batch_aggregates(self, fitted_model, income_split):
        train, _ = income_split
        budget = fitted_model.deletion_budget
        records = [train.record(row) for row in range(min(2, budget))]
        report = fitted_model.unlearn_batch(records)
        assert report.leaves_updated >= len(records) * len(fitted_model.trees)

    def test_unlearning_keeps_predictions_valid(self, fitted_model, income_split):
        train, test = income_split
        fitted_model.unlearn(train.record(5))
        predictions = fitted_model.predict_batch(test)
        assert set(np.unique(predictions)).issubset({0, 1})


class TestOnlineLearning:
    def test_learn_one_increments_leaves(self, fitted_model, income_split):
        train, _ = income_split
        record = train.record(0)
        fitted_model.learn_one(record)
        # Learning the record back must allow unlearning it twice in a row.
        fitted_model.unlearn(record)
        fitted_model.unlearn(record, allow_budget_overrun=True)

    def test_learn_then_unlearn_roundtrip_preserves_predictions(
        self, fitted_model, fitted_model_session, income_split
    ):
        train, test = income_split
        record = train.record(3)
        fitted_model.learn_one(record)
        fitted_model.unlearn(record)
        before = fitted_model_session.predict_batch(test)
        after = fitted_model.predict_batch(test)
        assert np.array_equal(before, after)


class TestCensusAndPersistence:
    def test_node_census_aggregates_trees(self, fitted_model_session):
        structure = fitted_model_session.node_census()
        assert len(structure.per_tree) == 5
        assert structure.n_nodes > 0
        assert 0.0 <= structure.non_robust_fraction < 1.0
        assert structure.n_leaves > 0

    def test_save_load_roundtrip(self, tmp_path, fitted_model, income_split):
        _, test = income_split
        path = tmp_path / "model.npz"
        save_snapshot(fitted_model, path)
        restored, _ = load_snapshot(path)
        assert np.array_equal(
            fitted_model.predict_batch(test), restored.predict_batch(test)
        )
        assert restored.deletion_budget == fitted_model.deletion_budget

    def test_save_requires_fit(self, tmp_path):
        with pytest.raises(SnapshotFormatError):
            save_snapshot(HedgeCutClassifier(), tmp_path / "nope.npz")

    def test_load_preserves_unlearning_state(self, tmp_path, fitted_model, income_split):
        train, _ = income_split
        fitted_model.unlearn(train.record(0))
        path = tmp_path / "model.npz"
        save_snapshot(fitted_model, path)
        restored, _ = load_snapshot(path)
        assert restored.n_unlearned == 1


class TestRobustnessModesIntegration:
    @pytest.mark.parametrize("mode", ["greedy", "off"])
    def test_modes_train_and_predict(self, mode):
        dataset = make_random_dataset(n_rows=200, seed=21)
        model = HedgeCutClassifier(n_trees=2, seed=0, robustness_mode=mode)
        model.fit(dataset)
        assert model.predict(dataset.record(0).values) in (0, 1)
