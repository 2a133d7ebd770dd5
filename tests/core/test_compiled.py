"""The compiled traversal kernel on hand-built and single trained trees.

Each tree is packed alone (:class:`~repro.core.packed.PackedEnsemble` of
one tree) and read through the native kernel. Predictions must match a
walk of the node graph, follow the active variant of a maintenance node,
and see live leaf counts as soon as they are synced -- without a rebuild.
"""

import numpy as np
import pytest

from repro.core.nodes import Leaf, MaintenanceNode, SplitNode, SubtreeVariant
from repro.core.packed import LEAF_MARKER, PackedEnsemble
from repro.core.params import HedgeCutParams
from repro.core.splits import CategoricalSplit, NumericSplit, SplitStats
from repro.core.tree import HedgeCutTree, TreeBuilder
from repro.dataprep.dataset import FeatureKind, FeatureSchema

from tests.conftest import make_random_dataset, small_schema


def graph_predict(node, values):
    """Reference prediction by graph traversal."""
    while not isinstance(node, Leaf):
        if isinstance(node, MaintenanceNode):
            node = node.active.child_for_value(values[node.active.split.feature])
        else:
            node = node.child_for_value(values[node.split.feature])
    return node.predict()


def trained_tree(seed=0, **overrides):
    dataset = make_random_dataset(n_rows=250, seed=seed)
    params = HedgeCutParams(n_trees=1, seed=0, **overrides)
    tree = TreeBuilder(dataset, params, np.random.default_rng(seed)).build()
    return dataset, tree


def pack_root(root, n_values=4):
    """A one-tree pack over a single feature with ``n_values`` codes."""
    schema = (FeatureSchema("x", FeatureKind.NUMERIC, n_values),)
    return PackedEnsemble([HedgeCutTree(root)], schema)


class TestCompilation:
    def test_single_leaf_tree(self):
        packed = pack_root(Leaf(n=4, n_plus=3))
        assert packed.feature.tolist() == [LEAF_MARKER]
        assert packed.predict_one((0,)) == 1

    def test_numeric_split_tree(self):
        root = SplitNode(
            split=NumericSplit(feature=0, cut=3),
            stats=SplitStats(10, 5, 5, 5),
            left=Leaf(5, 5),
            right=Leaf(5, 0),
        )
        packed = pack_root(root)
        assert packed.predict_one((2,)) == 1
        assert packed.predict_one((3,)) == 0

    def test_categorical_split_tree(self):
        root = SplitNode(
            split=CategoricalSplit(feature=0, subset_mask=0b010, cardinality=3),
            stats=SplitStats(10, 5, 5, 5),
            left=Leaf(5, 5),
            right=Leaf(5, 0),
        )
        packed = pack_root(root, n_values=3)
        assert packed.predict_one((1,)) == 1
        assert packed.predict_one((0,)) == 0
        assert packed.predict_one((2,)) == 0

    def test_maintenance_node_resolves_active_variant(self):
        strong = SubtreeVariant(
            split=NumericSplit(feature=0, cut=4),
            stats=SplitStats(10, 5, 5, 5),
            left=Leaf(5, 5),
            right=Leaf(5, 0),
            gain=0.5,
        )
        weak = SubtreeVariant(
            split=NumericSplit(feature=0, cut=2),
            stats=SplitStats(10, 5, 5, 2),
            left=Leaf(5, 0),
            right=Leaf(5, 5),
            gain=0.1,
        )
        node = MaintenanceNode(variants=[strong, weak], active_index=0)
        packed = pack_root(node, n_values=6)
        # Active variant "strong": 1 < 4 goes left, positive leaf.
        assert packed.predict_one((1,)) == 1
        # Switch the active variant and splice its span in place: "weak"
        # routes 1 < 2 to its negative left leaf.
        node.active_index = 1
        assert packed.splice_subtree(node) == 0
        assert packed.predict_one((1,)) == 0


class TestEquivalenceWithGraph:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_compiled_matches_graph_on_training_data(self, seed):
        dataset, tree = trained_tree(seed=seed, epsilon=0.02)
        packed = PackedEnsemble([tree], small_schema())
        for row in range(dataset.n_rows):
            values = dataset.record(row).values
            assert packed.predict_one(values) == graph_predict(tree.root, values)

    def test_compiled_matches_graph_on_unseen_data(self):
        dataset, tree = trained_tree(seed=4)
        other = make_random_dataset(n_rows=100, seed=99)
        packed = PackedEnsemble([tree], small_schema())
        for row in range(other.n_rows):
            values = other.record(row).values
            assert packed.predict_one(values) == graph_predict(tree.root, values)

    def test_batch_matches_single(self):
        dataset, tree = trained_tree(seed=5)
        packed = PackedEnsemble([tree], small_schema())
        batch = packed.predict_batch(dataset)
        for row in range(dataset.n_rows):
            assert batch[row] == packed.predict_one(dataset.record(row).values)


class TestLiveLeafStatistics:
    def test_leaf_updates_visible_without_recompilation(self):
        leaf_left = Leaf(n=3, n_plus=2)
        root = SplitNode(
            split=NumericSplit(feature=0, cut=3),
            stats=SplitStats(6, 3, 3, 2),
            left=leaf_left,
            right=Leaf(3, 1),
        )
        packed = pack_root(root)
        arrays = packed.arrays()
        assert packed.predict_one((0,)) == 1
        # Unlearning decrements the live leaf object and writes it through
        # to the flat leaf arrays; the majority flips without a rebuild.
        leaf_left.n = 2
        leaf_left.n_plus = 1
        packed.sync_leaf(leaf_left)
        assert packed.predict_one((0,)) == 0
        assert packed.arrays() is arrays

    def test_proba_reads_live_counts(self):
        leaf = Leaf(n=4, n_plus=1)
        packed = pack_root(leaf)
        assert packed.predict_proba_one((0,)) == pytest.approx(0.25)
        leaf.n_plus = 3
        packed.sync_leaf(leaf)
        assert packed.predict_proba_one((0,)) == pytest.approx(0.75)
