"""Equivalence of the baseline frontier cores against the recursive references.

CART without feature subsampling draws no random numbers, so the frontier
core must grow a *bit-identical* tree. The randomised learners (CART with
``max_features="sqrt"``, Random Forest, classic ERT) consume their
generators in breadth-first instead of depth-first order and are compared
on aggregate structure and held-out behaviour instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.cart import DecisionTreeClassifier, grow_cart_recursive
from repro.baselines.ert import ExtraTreesClassifier, grow_ert_recursive
from repro.baselines.forest import RandomForestClassifier
from repro.baselines.tree_common import BaselineLeaf, BaselineSplit, predict_matrix

from tests.conftest import make_random_dataset


def trees_identical(a, b) -> bool:
    """Structural equality of two baseline trees."""
    stack = [(a, b)]
    while stack:
        left, right = stack.pop()
        if type(left) is not type(right):
            return False
        if isinstance(left, BaselineLeaf):
            if (left.n, left.n_plus) != (right.n, right.n_plus):
                return False
        else:
            assert isinstance(left, BaselineSplit)
            if (left.feature, left.threshold) != (right.feature, right.threshold):
                return False
            stack.append((left.left, right.left))
            stack.append((left.right, right.right))
    return True


class _ReferenceEnsemble:
    """Majority vote over trees grown by a recursive reference."""

    def __init__(self, trees):
        self._trees = trees

    def predict_batch(self, dataset) -> np.ndarray:
        matrix = dataset.feature_matrix()
        votes = sum(predict_matrix(root, matrix) for root in self._trees)
        return (2 * votes > len(self._trees)).astype(np.uint8)


def recursive_cart(
    dataset,
    min_samples_split=2,
    min_samples_leaf=1,
    max_depth=None,
    max_features=None,
    seed=None,
):
    """``DecisionTreeClassifier.fit`` with the recursive reference grower."""
    model = DecisionTreeClassifier()
    model._root = grow_cart_recursive(
        dataset.feature_matrix(),
        dataset.labels.astype(np.int64),
        tuple(feature.n_values for feature in dataset.schema),
        np.arange(dataset.n_rows, dtype=np.int64),
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
        max_depth=max_depth,
        max_features_sqrt=max_features == "sqrt",
        rng=np.random.default_rng(seed),
    )
    return model


def recursive_ert(dataset, n_estimators, seed, min_samples_leaf=2):
    """``ExtraTreesClassifier.fit`` with the recursive reference grower."""
    matrix = dataset.feature_matrix()
    labels = dataset.labels.astype(np.int64)
    rows = np.arange(dataset.n_rows, dtype=np.int64)
    return _ReferenceEnsemble(
        [
            grow_ert_recursive(
                matrix,
                labels,
                rows,
                min_samples_leaf=min_samples_leaf,
                n_candidates=None,
                rng=rng,
            )
            for rng in np.random.default_rng(seed).spawn(n_estimators)
        ]
    )


def recursive_forest(dataset, n_estimators, seed):
    """``RandomForestClassifier.fit`` with the recursive CART reference."""
    matrix = dataset.feature_matrix()
    labels = dataset.labels.astype(np.int64)
    n_rows = dataset.n_rows
    trees = []
    for tree_rng in np.random.default_rng(seed).spawn(n_estimators):
        sample = tree_rng.integers(0, n_rows, size=n_rows)
        sub_matrix = matrix[sample]
        n_values = tuple(int(sub_matrix[:, f].max()) + 1 for f in range(matrix.shape[1]))
        trees.append(
            grow_cart_recursive(
                sub_matrix,
                labels[sample],
                n_values,
                np.arange(n_rows, dtype=np.int64),
                min_samples_split=2,
                min_samples_leaf=1,
                max_depth=None,
                max_features_sqrt=True,
                rng=np.random.default_rng(int(tree_rng.integers(0, 2**31 - 1))),
            )
        )
    return _ReferenceEnsemble(trees)


class TestCartFrontier:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exhaustive_cart_is_bit_identical(self, seed):
        """No feature subsampling -> no RNG -> identical trees."""
        dataset = make_random_dataset(n_rows=300, seed=seed)
        recursive = recursive_cart(dataset)
        frontier = DecisionTreeClassifier().fit(dataset)
        assert trees_identical(recursive._root, frontier._root)

    def test_exhaustive_cart_identical_on_income(self, income_small):
        recursive = recursive_cart(income_small, min_samples_leaf=2)
        frontier = DecisionTreeClassifier(min_samples_leaf=2).fit(income_small)
        assert trees_identical(recursive._root, frontier._root)

    def test_depth_cap_respected_and_identical(self, income_small):
        recursive = recursive_cart(income_small, max_depth=4)
        frontier = DecisionTreeClassifier(max_depth=4).fit(income_small)
        assert trees_identical(recursive._root, frontier._root)

    def test_subsampled_cart_accuracy_parity(self, income_small):
        labels = income_small.labels
        accs = {}
        for name, fit in (
            ("recursive", recursive_cart),
            ("frontier", lambda data, **kw: DecisionTreeClassifier(**kw).fit(data)),
        ):
            fits = [
                fit(income_small, max_features="sqrt", seed=seed) for seed in range(5)
            ]
            accs[name] = np.mean(
                [(t.predict_batch(income_small) == labels).mean() for t in fits]
            )
        assert abs(accs["recursive"] - accs["frontier"]) < 0.05


class TestErtFrontier:
    def test_accuracy_parity(self, income_small):
        labels = income_small.labels
        recursive = recursive_ert(income_small, n_estimators=8, seed=7)
        frontier = ExtraTreesClassifier(n_estimators=8, seed=7).fit(income_small)
        acc_rec = (recursive.predict_batch(income_small) == labels).mean()
        acc_fro = (frontier.predict_batch(income_small) == labels).mean()
        assert abs(acc_rec - acc_fro) < 0.06

    def test_aggregate_leaf_counts_match(self):
        dataset = make_random_dataset(n_rows=300, seed=33)

        def leaves(root) -> int:
            count, stack = 0, [root]
            while stack:
                node = stack.pop()
                if isinstance(node, BaselineLeaf):
                    count += 1
                else:
                    stack.extend((node.left, node.right))
            return count

        rec, fro = [], []
        for seed in range(6):
            rec.append(
                np.mean(
                    [
                        leaves(root)
                        for root in recursive_ert(dataset, n_estimators=3, seed=seed)
                        ._trees
                    ]
                )
            )
            fro.append(
                np.mean(
                    [
                        leaves(root)
                        for root in ExtraTreesClassifier(
                            n_estimators=3, seed=100 + seed
                        )
                        .fit(dataset)
                        ._trees
                    ]
                )
            )
        assert np.mean(fro) == pytest.approx(np.mean(rec), rel=0.15)


class TestForestFrontier:
    def test_accuracy_parity(self, income_small):
        labels = income_small.labels
        recursive = recursive_forest(income_small, n_estimators=6, seed=5)
        frontier = RandomForestClassifier(n_estimators=6, seed=5).fit(income_small)
        acc_rec = (recursive.predict_batch(income_small) == labels).mean()
        acc_fro = (frontier.predict_batch(income_small) == labels).mean()
        assert abs(acc_rec - acc_fro) < 0.06
