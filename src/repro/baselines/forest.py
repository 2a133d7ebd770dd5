"""Random Forest baseline: bagged greedy trees with feature subsampling.

The stand-in for scikit-learn's ``RandomForestClassifier`` with the paper's
configuration: 100 trees, Gini gain, per-node ``sqrt`` feature subsets and
bootstrap sampling of the training rows (Breiman 2001).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.cart import DecisionTreeClassifier
from repro.core.exceptions import NotFittedError
from repro.dataprep.dataset import Dataset


class RandomForestClassifier:
    """Bootstrap-aggregated decision trees.

    Args:
        n_estimators: number of trees (paper: 100).
        min_samples_split: per-tree split threshold.
        min_samples_leaf: minimum child partition size.
        max_depth: optional depth cap.
        seed: seed for bootstrap sampling and feature subsets.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_depth: int | None = None,
        seed: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be positive")
        self.n_estimators = n_estimators
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_depth = max_depth
        self.seed = seed
        self._trees: list[DecisionTreeClassifier] = []

    @property
    def is_fitted(self) -> bool:
        return bool(self._trees)

    def fit(self, dataset: Dataset) -> "RandomForestClassifier":
        matrix = dataset.feature_matrix()
        labels = dataset.labels.astype(np.int64)
        n_rows = dataset.n_rows
        rng = np.random.default_rng(self.seed)
        self._trees = []
        for tree_rng in rng.spawn(self.n_estimators):
            sample = tree_rng.integers(0, n_rows, size=n_rows)
            tree = DecisionTreeClassifier(
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_depth=self.max_depth,
                max_features="sqrt",
                seed=int(tree_rng.integers(0, 2**31 - 1)),
            )
            tree.fit_arrays(matrix[sample], labels[sample])
            self._trees.append(tree)
        return self

    def _require_fitted(self) -> None:
        if not self._trees:
            raise NotFittedError("the random forest has not been fitted yet")

    def predict_batch(self, dataset: Dataset) -> np.ndarray:
        self._require_fitted()
        matrix = dataset.feature_matrix()
        votes = np.zeros(dataset.n_rows, dtype=np.int64)
        for tree in self._trees:
            votes += tree.predict_matrix_batch(matrix)
        return (2 * votes > len(self._trees)).astype(np.uint8)

    def predict(self, values: np.ndarray) -> int:
        self._require_fitted()
        votes = sum(tree.predict(values) for tree in self._trees)
        return 1 if 2 * votes > len(self._trees) else 0
