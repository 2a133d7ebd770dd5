"""Property tests: batch unlearning vs the record-by-record loop.

A batch through the native write kernel (:mod:`repro.core.writes`) must be
*verdict-identical* to unlearning the same records one by one: same
aggregated :class:`UnlearningReport`, same variant switches in the same
trees, bit-identical ``predict_proba`` afterwards -- through interleaved
unlearn/predict campaigns. The fast cases run on the shared fixtures; the
full registry matrix is ``slow``-marked (``make test-all``).
"""

import copy

import numpy as np
import pytest

from repro.core.ensemble import HedgeCutClassifier
from repro.core.exceptions import DeletionBudgetExhausted, UnlearningError
from repro.core.nodes import MaintenanceNode, iter_nodes
from repro.core.unlearning import UnlearningReport
from repro.datasets.registry import available_datasets, load_dataset
from repro.evaluation.splits import train_test_split


def _active_variants(model):
    """(tree index, active_index) of every maintenance node, in DFS order."""
    actives = []
    for index, tree in enumerate(model.trees):
        for node in iter_nodes(tree.root):
            if isinstance(node, MaintenanceNode):
                actives.append((index, node.active_index))
    return actives


def _variant_gains(model):
    gains = []
    for tree in model.trees:
        for node in iter_nodes(tree.root):
            if isinstance(node, MaintenanceNode):
                gains.extend(variant.gain for variant in node.variants)
    return gains


def assert_batch_equivalent_campaign(model, train, test, batches, overrun=False):
    """Run the same deletion campaign scalar vs batched; compare verdicts.

    ``batches`` is a list of row-index lists; predictions are interleaved
    between batches on both sides and compared bit-for-bit.
    """
    scalar = copy.deepcopy(model)
    batched = copy.deepcopy(model)
    # Build both packs up front so the batched side takes the kernel path.
    assert np.array_equal(
        scalar.predict_proba_batch(test), batched.predict_proba_batch(test)
    )
    total = UnlearningReport()
    for rows in batches:
        records = [train.record(row) for row in rows]
        scalar_report = UnlearningReport()
        for record in records:
            scalar_report.merge(
                scalar.unlearn(record, allow_budget_overrun=True)
                if overrun
                else scalar.unlearn(record)
            )
        batch_report = batched.unlearn_batch(records, allow_budget_overrun=overrun)
        assert batch_report == scalar_report
        total.merge(batch_report)
        assert np.array_equal(
            scalar.predict_proba_batch(test), batched.predict_proba_batch(test)
        )
        assert _active_variants(scalar) == _active_variants(batched)
        assert _variant_gains(scalar) == _variant_gains(batched)
    assert scalar.n_unlearned == batched.n_unlearned
    return total


class TestKernelEquivalence:
    def test_single_batch_matches_scalar_loop(self, fitted_model, income_split):
        train, test = income_split
        assert_batch_equivalent_campaign(
            fitted_model, train, test, [list(range(4))]
        )

    def test_interleaved_campaign(self, fitted_model, income_split):
        train, test = income_split
        assert_batch_equivalent_campaign(
            fitted_model,
            train,
            test,
            [[0], list(range(1, 9)), list(range(9, 41)), [41, 42]],
            overrun=True,
        )

    def test_campaign_with_variant_switches(self):
        # The heart sample at this epsilon produces several switches over
        # a 300-record campaign (checked in-test), exercising the kernel's
        # prefix-replay re-scoring rather than only the no-switch path.
        data = load_dataset("heart", n_rows=1200, seed=3)
        train, test = train_test_split(data, test_fraction=0.2, seed=3)
        model = HedgeCutClassifier(n_trees=4, epsilon=0.05, seed=5).fit(train)
        total = assert_batch_equivalent_campaign(
            model, train, test, [list(range(150)), list(range(150, 300))],
            overrun=True,
        )
        assert total.variant_switches > 0, "campaign produced no variant switch"

    def test_scalar_fallback_matches_kernel(self, fitted_model, income_split):
        train, test = income_split
        records = [train.record(row) for row in range(6)]
        packed = copy.deepcopy(fitted_model)
        unpacked = copy.deepcopy(fitted_model)
        _ = packed.predict_proba_batch(test)  # pack built -> kernel path
        report_packed = packed.unlearn_batch(records, allow_budget_overrun=True)
        # no pack -> scalar loop
        report_unpacked = unpacked.unlearn_batch(records, allow_budget_overrun=True)
        assert report_packed == report_unpacked
        assert np.array_equal(
            packed.predict_proba_batch(test), unpacked.predict_proba_batch(test)
        )

    def test_kernel_path_after_scalar_interleaving(self, fitted_model, income_split):
        # Single unlearns and learn_one between batches update the same
        # count store the next batch reads; it must see their updates.
        train, test = income_split
        reference = copy.deepcopy(fitted_model)
        subject = copy.deepcopy(fitted_model)
        _ = subject.predict_proba_batch(test)
        subject.unlearn_batch([train.record(0), train.record(1)])
        # single-record writes between the batches
        subject.unlearn(train.record(2), allow_budget_overrun=True)
        subject.learn_one(train.record(3))
        subject.unlearn_batch(
            [train.record(4), train.record(5)], allow_budget_overrun=True
        )
        for row in (0, 1, 2, 4, 5):
            reference.unlearn(train.record(row), allow_budget_overrun=True)
        reference.learn_one(train.record(3))
        assert np.array_equal(
            subject.predict_proba_batch(test), reference.predict_proba_batch(test)
        )


class TestBatchValidation:
    def test_budget_prevalidated_before_any_tree(self, fitted_model, income_split):
        train, test = income_split
        _ = fitted_model.predict_proba_batch(test)
        remaining = fitted_model.remaining_deletion_budget
        before = fitted_model.predict_proba_batch(test).copy()
        records = [train.record(row) for row in range(remaining + 1)]
        with pytest.raises(DeletionBudgetExhausted):
            fitted_model.unlearn_batch(records)
        # Nothing was applied: counters and predictions are untouched.
        assert fitted_model.n_unlearned == 0
        assert np.array_equal(fitted_model.predict_proba_batch(test), before)

    def test_budget_prevalidated_on_scalar_fallback(self, fitted_model, income_split):
        train, _ = income_split
        remaining = fitted_model.remaining_deletion_budget
        records = [train.record(row) for row in range(remaining + 1)]
        with pytest.raises(DeletionBudgetExhausted):
            fitted_model.unlearn_batch(records)  # no pack -> scalar path
        assert fitted_model.n_unlearned == 0

    def test_kernel_batch_is_atomic_on_inconsistent_record(
        self, fitted_model, income_split
    ):
        train, test = income_split
        _ = fitted_model.predict_proba_batch(test)
        doomed = train.record(0)
        fitted_model.unlearn(doomed, allow_budget_overrun=True)
        before = fitted_model.predict_proba_batch(test).copy()
        n_before = fitted_model.n_unlearned
        # The doubly-deleted record poisons the whole batch: the kernel
        # must raise with zero mutation, including the healthy members.
        with pytest.raises(UnlearningError):
            fitted_model.unlearn_batch(
                [train.record(1), doomed, doomed], allow_budget_overrun=True
            )
        assert fitted_model.n_unlearned == n_before
        assert np.array_equal(fitted_model.predict_proba_batch(test), before)

    def test_empty_batch_is_a_noop(self, fitted_model):
        report = fitted_model.unlearn_batch([])
        assert report == UnlearningReport()
        assert fitted_model.n_unlearned == 0

    def test_shape_mismatch_rejected_up_front(self, fitted_model, income_split):
        from repro.dataprep.dataset import Record

        train, _ = income_split
        bad = Record(values=(0, 1), label=0)
        with pytest.raises(UnlearningError):
            fitted_model.unlearn_batch([train.record(0), bad])
        assert fitted_model.n_unlearned == 0


@pytest.mark.slow
class TestFullRegistryMatrix:
    """Scalar-vs-batch equivalence over every registry dataset."""

    @pytest.mark.parametrize("name", sorted(available_datasets()))
    def test_batch_equivalence_through_campaign(self, name):
        data = load_dataset(name, n_rows=1200, seed=3)
        train, test = train_test_split(data, test_fraction=0.25, seed=3)
        model = HedgeCutClassifier(n_trees=4, epsilon=0.02, seed=5).fit(train)
        assert_batch_equivalent_campaign(
            model,
            train,
            test,
            [[0], list(range(1, 17)), list(range(17, 120)), [120]],
            overrun=True,
        )
