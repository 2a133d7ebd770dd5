"""Hypothesis-driven end-to-end unlearning properties.

These generate small random datasets and removal sets and assert the two
behavioural contracts on whole models: statistics always equal a recount
of the survivors, and the packed kernel always agrees with the node
graph -- across random shapes, class skews and epsilon settings.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.ensemble import HedgeCutClassifier
from repro.core.nodes import Leaf, MaintenanceNode
from repro.dataprep.dataset import Dataset, FeatureKind, FeatureSchema

from tests.integration.test_unlearn_equals_retrain import assert_counts_match


@st.composite
def small_dataset(draw):
    n_rows = draw(st.integers(min_value=30, max_value=90))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    positive_rate = draw(st.floats(min_value=0.15, max_value=0.85))
    rng = np.random.default_rng(seed)
    schema = (
        FeatureSchema("x", FeatureKind.NUMERIC, 6),
        FeatureSchema("y", FeatureKind.CATEGORICAL, 3),
    )
    x = rng.integers(0, 6, size=n_rows)
    y = rng.integers(0, 3, size=n_rows)
    signal = (x >= 3).astype(float)
    labels = (rng.random(n_rows) < (0.2 + 0.6 * signal) * positive_rate / 0.5).astype(
        np.uint8
    )
    labels = np.clip(labels, 0, 1)
    return Dataset(schema, [x, y], labels), seed


class TestUnlearningProperties:
    @given(small_dataset(), st.data())
    @settings(max_examples=20, deadline=None)
    def test_statistics_always_equal_recount(self, dataset_and_seed, data):
        dataset, seed = dataset_and_seed
        model = HedgeCutClassifier(n_trees=2, epsilon=0.1, seed=seed)
        model.fit(dataset)
        n_remove = data.draw(
            st.integers(min_value=0, max_value=min(4, model.deletion_budget))
        )
        removed = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=dataset.n_rows - 1),
                min_size=n_remove,
                max_size=n_remove,
                unique=True,
            )
        )
        for row in removed:
            model.unlearn(dataset.record(row))
        surviving = [
            dataset.record(row)
            for row in range(dataset.n_rows)
            if row not in set(removed)
        ]
        for tree in model.trees:
            assert_counts_match(tree.root, surviving)

    @given(small_dataset())
    @settings(max_examples=20, deadline=None)
    def test_compiled_always_matches_graph(self, dataset_and_seed):
        dataset, seed = dataset_and_seed
        model = HedgeCutClassifier(n_trees=2, epsilon=0.05, seed=seed)
        model.fit(dataset)

        def graph_predict(node, values):
            while not isinstance(node, Leaf):
                if isinstance(node, MaintenanceNode):
                    node = node.active.child_for_value(
                        values[node.active.split.feature]
                    )
                else:
                    node = node.child_for_value(values[node.split.feature])
            return node.predict()

        packed = model.packed
        for index, tree in enumerate(model.trees):
            for row in range(0, dataset.n_rows, 7):
                values = dataset.record(row).values
                leaf = packed._walk_one(values, index)
                vote = int(2 * packed.leaf_n_plus[leaf] > packed.leaf_n[leaf])
                assert vote == graph_predict(tree.root, values)
