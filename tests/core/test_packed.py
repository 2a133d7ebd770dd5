"""Equivalence and maintenance tests for the packed ensemble kernel.

Every read goes through the native traversal kernel, so it must agree
*exactly* with two independent references: the pure-Python
:func:`~repro.core.packed.walk_one` walk over the same flat arrays, and a
walk of the live node graph. Labels and vote counts must be identical and
probabilities bit-for-bit identical -- on a fresh model, in the middle of
an unlearning campaign (O(1) leaf write-through), after a forced
maintenance-variant switch (span splice) and across a snapshot/restore
round trip. The fast cases run on the shared fixtures; the full registry
matrix is ``slow``-marked and runs under ``make test-all``.
"""

import copy

import numpy as np
import pytest

from repro.core.ensemble import HedgeCutClassifier
from repro.core.nodes import Leaf, MaintenanceNode, SplitNode
from repro.core.packed import LEAF_MARKER, PackedEnsemble, walk_one
from repro.datasets.registry import available_datasets, load_dataset
from repro.evaluation.splits import train_test_split
from repro.persistence.snapshot import load_snapshot, save_snapshot

from tests.conftest import make_random_dataset


def walk_reference(arrays, matrix):
    """``(votes, probabilities)`` per row from the pure-Python walk.

    Probabilities are Python float sums of ``n_plus / n`` in tree order,
    divided by the tree count: the definition the kernel must reproduce
    bit for bit.
    """
    n_trees = arrays.tree_roots.shape[0]
    votes = np.zeros(matrix.shape[0], dtype=np.int64)
    probas = np.zeros(matrix.shape[0], dtype=np.float64)
    for row, values in enumerate(matrix.tolist()):
        total = 0.0
        for tree in range(n_trees):
            leaf = walk_one(arrays, values, tree)
            n, n_plus = int(arrays.leaf_n[leaf]), int(arrays.leaf_n_plus[leaf])
            votes[row] += 2 * n_plus > n
            total += n_plus / n if n > 0 else 0.5
        probas[row] = total / n_trees
    return votes, probas


def graph_reference(model, matrix):
    """``(votes, probabilities)`` per row from the live node graph."""
    votes = np.zeros(matrix.shape[0], dtype=np.int64)
    probas = np.zeros(matrix.shape[0], dtype=np.float64)
    for row, values in enumerate(matrix.tolist()):
        total = 0.0
        for tree in model.trees:
            node = tree.root
            while not isinstance(node, Leaf):
                if isinstance(node, MaintenanceNode):
                    node = node.active
                node = node.child_for_value(values[node.split.feature])
            votes[row] += node.predict()
            total += node.n_plus / node.n if node.n > 0 else 0.5
        probas[row] = total / len(model.trees)
    return votes, probas


def assert_packed_equivalent(model, dataset):
    """Batch and per-record reads match both references exactly."""
    matrix = dataset.feature_matrix()
    votes, probas = walk_reference(model.packed.arrays(), matrix)
    graph_votes, graph_probas = graph_reference(model, matrix)
    assert np.array_equal(votes, graph_votes)
    assert np.array_equal(probas, graph_probas)
    labels = (2 * votes > len(model.trees)).astype(np.uint8)
    assert np.array_equal(model.predict_votes_rows(matrix), votes)
    assert np.array_equal(model.predict_rows(matrix), labels)
    assert np.array_equal(model.predict_proba_rows(matrix), probas)
    for row, values in enumerate(matrix.tolist()):
        assert model.predict(values) == labels[row]
        assert model.predict_proba(values) == probas[row]


def _force_variant_switch(model) -> bool:
    """Flip the active variant of the first switchable maintenance node.

    Returns True when a node was switched (and its span spliced).
    """
    for index, tree in enumerate(model.trees):
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if isinstance(node, MaintenanceNode):
                if len(node.variants) > 1:
                    node.active_index = (node.active_index + 1) % len(node.variants)
                    model.invalidate_tree(index)
                    return True
                active = node.active
                stack.extend((active.left, active.right))
            elif isinstance(node, SplitNode):
                stack.extend((node.left, node.right))
    return False


class TestFreshEquivalence:
    def test_labels_and_probas_match_per_record(
        self, fitted_model_session, income_split
    ):
        _, test = income_split
        assert_packed_equivalent(fitted_model_session, test)

    def test_matches_walk_one_reference(self, fitted_model_session, income_split):
        _, test = income_split
        votes, _ = walk_reference(
            fitted_model_session.packed.arrays(), test.feature_matrix()
        )
        labels = (2 * votes > fitted_model_session.params.n_trees).astype(np.uint8)
        assert np.array_equal(fitted_model_session.predict_batch(test), labels)

    def test_scalar_walk_matches_per_record(self, fitted_model_session, income_split):
        _, test = income_split
        packed = fitted_model_session.packed
        for row in range(0, test.n_rows, 7):
            values = test.record(row).values
            assert packed.predict_one(values) == fitted_model_session.predict(values)
            assert packed.predict_proba_one(values) == fitted_model_session.predict_proba(
                values
            )

    def test_chunked_traversal_is_chunk_size_invariant(
        self, fitted_model_session, income_split
    ):
        """Rows are independent: any split of a batch gives the same answers."""
        _, test = income_split
        matrix = test.feature_matrix()
        packed = fitted_model_session.packed
        reference = packed.predict_proba_rows(matrix)
        chunked = np.concatenate([
            packed.predict_proba_rows(matrix[start:start + 7])
            for start in range(0, matrix.shape[0], 7)
        ])
        assert np.array_equal(chunked, reference)


class TestStructure:
    def test_children_are_adjacent(self, fitted_model_session):
        packed = fitted_model_session.packed
        internal = packed.feature != LEAF_MARKER
        rights = packed.right[internal]
        # The traversal computes left = right - 1; both children must be
        # real slots inside the pack.
        assert (rights >= 1).all()
        assert (rights < packed.n_slots).all()

    def test_leaf_payloads_cover_leaf_arrays(self, fitted_model_session):
        packed = fitted_model_session.packed
        leaf_payloads = packed.payload[packed.feature == LEAF_MARKER]
        # Every leaf slot (live or reserved-span padding) must point at a
        # valid leaf row, and the live leaves must occupy distinct rows.
        assert (leaf_payloads >= 0).all()
        assert (leaf_payloads < packed.n_leaves).all()
        live_rows = sorted(packed.leaf_index.values())
        assert len(live_rows) == len(set(live_rows))
        assert set(live_rows) <= set(leaf_payloads.tolist())

    def test_rejects_empty_ensemble(self, fitted_model_session):
        with pytest.raises(ValueError):
            PackedEnsemble([], fitted_model_session.schema)

    def test_rejects_non_matrix_input(self, fitted_model_session):
        with pytest.raises(ValueError):
            fitted_model_session.packed.predict_rows(np.arange(3))


class TestUnlearningMaintenance:
    def test_equivalent_mid_campaign(self, fitted_model, income_split):
        train, test = income_split
        fitted_model.predict_batch(test)  # build the pack up front
        for row in range(0, 40):
            fitted_model.unlearn(train.record(row), allow_budget_overrun=True)
            if row % 8 == 0:
                assert_packed_equivalent(fitted_model, test)
        assert_packed_equivalent(fitted_model, test)

    def test_leaf_write_through_mirrors_leaf_stats(self, fitted_model, income_split):
        train, test = income_split
        before_total = int(fitted_model.packed.leaf_n.sum())
        fitted_model.unlearn(train.record(0), allow_budget_overrun=True)
        # Whether the deletion only decremented leaves (write-through) or
        # also switched a variant (in-place span splice), the flat arrays
        # must mirror the live leaf objects exactly (padded rows are zero).
        live_total = sum(
            leaf.n for leaf in fitted_model.packed._leaf_objects if leaf is not None
        )
        assert int(fitted_model.packed.leaf_n.sum()) == live_total
        assert int(fitted_model.packed.leaf_n.sum()) <= before_total

    def test_equivalent_after_forced_variant_switch(self, fitted_model, income_split):
        _, test = income_split
        fitted_model.predict_batch(test)
        switched = _force_variant_switch(fitted_model)
        assert switched, "fixture model has no switchable maintenance node"
        assert_packed_equivalent(fitted_model, test)

    def test_learn_one_keeps_pack_in_sync(self, fitted_model, income_split):
        train, test = income_split
        fitted_model.predict_batch(test)
        fitted_model.learn_one(train.record(1))
        assert_packed_equivalent(fitted_model, test)

    def test_deepcopy_write_through_targets_copied_leaves(
        self, fitted_model, income_split
    ):
        train, test = income_split
        fitted_model.predict_batch(test)  # pack exists before the copy
        clone = copy.deepcopy(fitted_model)
        baseline = fitted_model.predict_proba_rows(test.feature_matrix())
        for row in range(10):
            clone.unlearn(train.record(row), allow_budget_overrun=True)
        assert_packed_equivalent(clone, test)
        # The original model's pack must be untouched by the clone's campaign.
        assert np.array_equal(
            fitted_model.predict_proba_rows(test.feature_matrix()), baseline
        )


class TestSingleRowFastPath:
    """A single-row request must answer exactly like its row in a batch.

    Single-record requests dominate online serving; they go through the
    same native kernel as batches, with the same int64 leaf counts and
    the same float64 operation order, so equivalence is exact.
    """

    def test_single_row_matrices_match_batch_slices(
        self, fitted_model_session, income_split
    ):
        _, test = income_split
        packed = fitted_model_session.packed
        matrix = test.feature_matrix()
        batch_probas = packed.predict_proba_rows(matrix)
        batch_labels = packed.predict_rows(matrix)
        batch_votes = packed.predict_votes_rows(matrix)
        for row in range(0, test.n_rows, 9):
            single = matrix[row : row + 1]
            assert packed.predict_proba_rows(single)[0] == batch_probas[row]
            assert packed.predict_rows(single)[0] == batch_labels[row]
            assert packed.predict_votes_rows(single)[0] == batch_votes[row]

    def test_single_row_dtypes_match_batch_path(self, fitted_model_session, income_split):
        _, test = income_split
        packed = fitted_model_session.packed
        single = test.feature_matrix()[:1]
        assert packed.predict_proba_rows(single).dtype == np.float64
        assert packed.predict_rows(single).dtype == np.uint8
        assert packed.predict_votes_rows(single).dtype == np.int64

    def test_fast_path_survives_unlearning(self, fitted_model, income_split):
        train, test = income_split
        for row in range(10):
            fitted_model.unlearn(train.record(row), allow_budget_overrun=True)
        packed = fitted_model.packed
        matrix = test.feature_matrix()
        batch = packed.predict_proba_rows(matrix)
        for row in range(0, test.n_rows, 13):
            assert packed.predict_proba_rows(matrix[row : row + 1])[0] == batch[row]


class TestSnapshotRoundTrip:
    def test_restore_then_pack_is_identical(self, fitted_model, income_split, tmp_path):
        train, test = income_split
        for row in range(8):
            fitted_model.unlearn(train.record(row), allow_budget_overrun=True)
        expected = fitted_model.predict_proba_batch(test)

        path = tmp_path / "model.hedgecut"
        save_snapshot(fitted_model, path)
        restored, _ = load_snapshot(path)
        assert np.array_equal(restored.predict_proba_batch(test), expected)
        assert_packed_equivalent(restored, test)


@pytest.mark.slow
class TestFullRegistryMatrix:
    """The equivalence matrix over every registry dataset (``make test-all``)."""

    @pytest.mark.parametrize("name", sorted(available_datasets()))
    def test_packed_equivalence_through_lifecycle(self, name, tmp_path):
        data = load_dataset(name, n_rows=1200, seed=3)
        train, test = train_test_split(data, test_fraction=0.25, seed=3)
        model = HedgeCutClassifier(n_trees=4, epsilon=0.02, seed=5).fit(train)

        # Fresh model.
        assert_packed_equivalent(model, test)

        # Mid unlearning campaign (leaf write-through + possible switches).
        for row in range(30):
            model.unlearn(train.record(row), allow_budget_overrun=True)
        assert_packed_equivalent(model, test)

        # Forced variant switch (single-tree repack), where one exists.
        if _force_variant_switch(model):
            assert_packed_equivalent(model, test)

        # Snapshot -> restore -> pack identity.
        path = tmp_path / f"{name}.hedgecut"
        save_snapshot(model, path)
        restored, _ = load_snapshot(path)
        assert np.array_equal(
            restored.predict_proba_batch(test), model.predict_proba_batch(test)
        )
        assert_packed_equivalent(restored, test)


def test_random_dataset_equivalence():
    """Hand-built mixed-schema dataset (numeric + categorical routing)."""
    data = make_random_dataset(n_rows=260, seed=23)
    model = HedgeCutClassifier(n_trees=3, epsilon=0.05, seed=7).fit(data)
    assert_packed_equivalent(model, data)
