"""Single decision tree with exhaustive greedy Gini splits (CART).

The stand-in for scikit-learn's ``DecisionTreeClassifier`` baseline
(Section 6.1). Hyperparameter defaults mirror scikit-learn's: grow until
leaves are pure or smaller than ``min_samples_split``, no depth limit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.tree_common import (
    BaselineLeaf,
    BaselineNode,
    BaselineSplit,
    best_threshold_for_feature,
    majority_leaf,
    predict_matrix,
    predict_values,
)
from repro.core.exceptions import NotFittedError
from repro.dataprep.dataset import Dataset


class DecisionTreeClassifier:
    """Greedy CART decision tree over encoded integer features.

    Args:
        min_samples_split: minimum partition size that may still be split.
        min_samples_leaf: minimum records each child partition must keep.
        max_depth: optional depth cap (``None`` grows until purity).
        max_features: per-node feature subsample ("sqrt" or ``None`` for
            all); the Random Forest baseline sets this to "sqrt".
        seed: random generator seed (used only when subsampling features).
    """

    def __init__(
        self,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_depth: int | None = None,
        max_features: str | None = None,
        seed: int | None = None,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be at least 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        if max_features not in (None, "sqrt"):
            raise ValueError(f"unsupported max_features {max_features!r}")
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_depth = max_depth
        self.max_features = max_features
        self.seed = seed
        self._root: BaselineNode | None = None
        self._n_values: tuple[int, ...] = ()

    @property
    def is_fitted(self) -> bool:
        return self._root is not None

    def fit(self, dataset: Dataset) -> "DecisionTreeClassifier":
        matrix = dataset.feature_matrix()
        labels = dataset.labels.astype(np.int64)
        self._n_values = tuple(feature.n_values for feature in dataset.schema)
        rng = np.random.default_rng(self.seed)
        rows = np.arange(dataset.n_rows, dtype=np.int64)
        self._root = self._grow(matrix, labels, rows, rng)
        return self

    def fit_arrays(self, matrix: np.ndarray, labels: np.ndarray) -> "DecisionTreeClassifier":
        """Fit directly from a code matrix (used by the forest baseline)."""
        matrix = np.asarray(matrix, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        self._n_values = tuple(
            int(matrix[:, feature].max()) + 1 if matrix.shape[0] else 1
            for feature in range(matrix.shape[1])
        )
        rng = np.random.default_rng(self.seed)
        rows = np.arange(matrix.shape[0], dtype=np.int64)
        self._root = self._grow(matrix, labels, rows, rng)
        return self

    def _grow(
        self,
        matrix: np.ndarray,
        labels: np.ndarray,
        rows: np.ndarray,
        rng: np.random.Generator,
    ) -> BaselineNode:
        # Imported here: repro.training.baseline imports this package.
        from repro.training.baseline import grow_cart_tree

        columns = [np.ascontiguousarray(matrix[:, f]) for f in range(matrix.shape[1])]
        return grow_cart_tree(
            columns,
            labels,
            self._n_values,
            rows,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_depth=self.max_depth,
            max_features_sqrt=self.max_features == "sqrt",
            rng=rng,
        )

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #

    def _require_fitted(self) -> BaselineNode:
        if self._root is None:
            raise NotFittedError("the decision tree has not been fitted yet")
        return self._root

    def predict_batch(self, dataset: Dataset) -> np.ndarray:
        return predict_matrix(self._require_fitted(), dataset.feature_matrix())

    def predict_matrix_batch(self, matrix: np.ndarray) -> np.ndarray:
        return predict_matrix(self._require_fitted(), np.asarray(matrix, dtype=np.int64))

    def predict(self, values: np.ndarray) -> int:
        return predict_values(self._require_fitted(), np.asarray(values, dtype=np.int64))

    @property
    def n_leaves(self) -> int:
        root = self._require_fitted()
        count = 0
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, BaselineLeaf):
                count += 1
            else:
                stack.extend((node.left, node.right))
        return count



def grow_cart_recursive(
    matrix: np.ndarray,
    labels: np.ndarray,
    n_values: Sequence[int],
    rows: np.ndarray,
    *,
    min_samples_split: int,
    min_samples_leaf: int,
    max_depth: int | None,
    max_features_sqrt: bool,
    rng: np.random.Generator,
) -> BaselineNode:
    """Node-at-a-time CART growth: the reference for ``grow_cart_tree``.

    Fits use :func:`repro.training.baseline.grow_cart_tree`; the tests
    compare it against this depth-first builder (bit-identical trees
    without feature subsampling, the same distribution with it).
    """
    n_features = matrix.shape[1]

    def build(rows: np.ndarray, depth: int) -> BaselineNode:
        local_labels = labels[rows]
        n = rows.shape[0]
        n_plus = int(local_labels.sum())
        pure = n_plus in (0, n)
        depth_capped = max_depth is not None and depth >= max_depth
        if n < min_samples_split or pure or depth_capped:
            return majority_leaf(local_labels)

        if max_features_sqrt:
            k = max(1, round(np.sqrt(n_features)))
            features = rng.choice(n_features, size=k, replace=False)
        else:
            features = np.arange(n_features)

        best_feature = -1
        best_threshold = -1
        best_impurity = np.inf
        for feature in features:
            codes = matrix[rows, feature]
            result = best_threshold_for_feature(codes, local_labels, n_values[feature])
            if result is None:
                continue
            threshold, impurity = result
            if impurity < best_impurity:
                best_feature, best_threshold, best_impurity = int(feature), threshold, impurity

        if best_feature < 0:
            return majority_leaf(local_labels)
        goes_left = matrix[rows, best_feature] <= best_threshold
        left_rows = rows[goes_left]
        right_rows = rows[~goes_left]
        if (
            left_rows.shape[0] < min_samples_leaf
            or right_rows.shape[0] < min_samples_leaf
        ):
            return majority_leaf(local_labels)
        return BaselineSplit(
            feature=best_feature,
            threshold=best_threshold,
            left=build(left_rows, depth + 1),
            right=build(right_rows, depth + 1),
        )

    return build(rows, 0)
