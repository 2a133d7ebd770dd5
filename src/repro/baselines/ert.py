"""Classic Extremely Randomised Trees (Geurts et al. 2006).

The ERT baseline HedgeCut is derived from (Section 3 of the paper,
Algorithm 1). In contrast to HedgeCut, cut points are drawn from the
*local* ``[min, max]`` value range of the node's records -- the very
property that makes classic ERTs hard to maintain under data removal and
motivated HedgeCut's switch to global quantile proposals (Section 4.3).

Configured as in the paper's comparison (Section 6.1): 100 trees, minimal
leaf size two, ``sqrt(n_features)`` candidate attributes, Gini gain.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.tree_common import (
    BaselineNode,
    BaselineSplit,
    gini_children,
    majority_leaf,
    predict_matrix,
    predict_values,
)
from repro.core.exceptions import NotFittedError
from repro.dataprep.dataset import Dataset


class ExtraTreesClassifier:
    """Ensemble of extremely randomised trees.

    Args:
        n_estimators: number of trees (paper: 100).
        min_samples_leaf: ``n_min`` stop threshold (paper: 2).
        n_candidates: candidate attributes per node; ``None`` selects
            ``sqrt(n_features)``.
        seed: ensemble random seed.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        min_samples_leaf: int = 2,
        n_candidates: int | None = None,
        seed: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be positive")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        self.n_estimators = n_estimators
        self.min_samples_leaf = min_samples_leaf
        self.n_candidates = n_candidates
        self.seed = seed
        self._trees: list[BaselineNode] = []

    @property
    def is_fitted(self) -> bool:
        return bool(self._trees)

    def fit(self, dataset: Dataset) -> "ExtraTreesClassifier":
        matrix = dataset.feature_matrix()
        labels = dataset.labels.astype(np.int64)
        rng = np.random.default_rng(self.seed)
        rows = np.arange(dataset.n_rows, dtype=np.int64)
        # Imported here: repro.training.baseline imports this package.
        from repro.training.baseline import grow_ert_tree

        n_values = tuple(feature.n_values for feature in dataset.schema)
        columns = [np.ascontiguousarray(matrix[:, f]) for f in range(matrix.shape[1])]
        self._trees = [
            grow_ert_tree(
                columns,
                labels,
                n_values,
                rows,
                min_samples_leaf=self.min_samples_leaf,
                n_candidates=self.n_candidates,
                rng=tree_rng,
            )
            for tree_rng in rng.spawn(self.n_estimators)
        ]
        return self

    def _require_fitted(self) -> None:
        if not self._trees:
            raise NotFittedError("the extra-trees ensemble has not been fitted yet")

    def predict_batch(self, dataset: Dataset) -> np.ndarray:
        self._require_fitted()
        matrix = dataset.feature_matrix()
        votes = np.zeros(dataset.n_rows, dtype=np.int64)
        for root in self._trees:
            votes += predict_matrix(root, matrix)
        return (2 * votes > len(self._trees)).astype(np.uint8)

    def predict(self, values: np.ndarray) -> int:
        self._require_fitted()
        values = np.asarray(values, dtype=np.int64)
        votes = sum(predict_values(root, values) for root in self._trees)
        return 1 if 2 * votes > len(self._trees) else 0


def grow_ert_recursive(
    matrix: np.ndarray,
    labels: np.ndarray,
    rows: np.ndarray,
    *,
    min_samples_leaf: int,
    n_candidates: int | None,
    rng: np.random.Generator,
) -> BaselineNode:
    """Node-at-a-time ERT growth: the reference for ``grow_ert_tree``.

    Fits use :func:`repro.training.baseline.grow_ert_tree`, which draws
    the same random quantities breadth-first instead of depth-first; the
    tests compare the two in distribution.
    """
    n_features = matrix.shape[1]
    k_default = max(1, round(np.sqrt(n_features)))

    def build(rows: np.ndarray) -> BaselineNode:
        local_labels = labels[rows]
        n = rows.shape[0]
        n_plus = int(local_labels.sum())
        if n <= min_samples_leaf or n_plus in (0, n):
            return majority_leaf(local_labels)

        local = matrix[rows]
        mins = local.min(axis=0)
        maxs = local.max(axis=0)
        non_constant = np.flatnonzero(mins != maxs)
        if non_constant.size == 0:
            return majority_leaf(local_labels)

        k = min(n_candidates or k_default, non_constant.size)
        features = rng.choice(non_constant, size=k, replace=False)

        best_feature = -1
        best_threshold = -1
        best_impurity = np.inf
        for feature in features:
            # Algorithm 1, random_split: a uniform cut in the *local* range.
            # Threshold semantics are "code <= threshold goes left", so the
            # drawn cut must leave at least one code on each side.
            low, high = int(mins[feature]), int(maxs[feature])
            threshold = int(rng.integers(low, high))
            codes = local[:, feature]
            n_left = int(np.count_nonzero(codes <= threshold))
            n_left_plus = int(np.count_nonzero((codes <= threshold) & (local_labels == 1)))
            impurity = float(
                gini_children(
                    np.asarray([n_left]), np.asarray([n_left_plus]), n, n_plus
                )[0]
            )
            if impurity < best_impurity:
                best_feature, best_threshold, best_impurity = int(feature), threshold, impurity

        if best_feature < 0 or not np.isfinite(best_impurity):
            return majority_leaf(local_labels)
        goes_left = local[:, best_feature] <= best_threshold
        return BaselineSplit(
            feature=best_feature,
            threshold=best_threshold,
            left=build(rows[goes_left]),
            right=build(rows[~goes_left]),
        )

    return build(rows)
