"""A K-class HedgeCut classifier built on the general-K statistics layer.

The paper formulates Gini gain for the general ``K``-class case (Section 3)
but implements and evaluates the binary specialisation. This module carries
the full pipeline through for arbitrary ``K``: trees with per-class leaf
counts, greedy split robustness over the ``4K`` removal configurations
(:mod:`repro.core.multiclass`), maintenance nodes with subtree variants,
and in-place unlearning. It follows the binary implementation's structure
(including the effective node budget, threat-only variants and maintenance
depth cap documented in :mod:`repro.core.tree`) without its binary-only
optimisations (no packed predictor, no in-place workspace) -- this is the
generalisation, not the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.core.exceptions import (
    DeletionBudgetExhausted,
    NotFittedError,
    UnlearningError,
)
from repro.core.multiclass import MulticlassSplitStats, is_robust_multiclass
from repro.core.params import HedgeCutParams
from repro.core.splits import Split
from repro.core.tree import _random_split
from repro.dataprep.dataset import FeatureSchema


@dataclass(frozen=True)
class MulticlassRecord:
    """One encoded record with a class label in ``0..n_classes-1``."""

    values: tuple[int, ...]
    label: int


@dataclass
class MulticlassDataset:
    """Encoded feature columns plus K-class labels."""

    schema: tuple[FeatureSchema, ...]
    columns: tuple[np.ndarray, ...]
    labels: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.n_classes
        ):
            raise ValueError("labels out of range for n_classes")
        for column in self.columns:
            if column.shape[0] != self.labels.shape[0]:
                raise ValueError("column/label length mismatch")

    @property
    def n_rows(self) -> int:
        return int(self.labels.shape[0])

    @property
    def n_features(self) -> int:
        return len(self.schema)

    def record(self, row: int) -> MulticlassRecord:
        values = tuple(int(column[row]) for column in self.columns)
        return MulticlassRecord(values=values, label=int(self.labels[row]))

    def drop(self, rows: Sequence[int]) -> "MulticlassDataset":
        keep = np.ones(self.n_rows, dtype=bool)
        keep[np.asarray(list(rows), dtype=np.int64)] = False
        return MulticlassDataset(
            schema=self.schema,
            columns=tuple(column[keep] for column in self.columns),
            labels=self.labels[keep],
            n_classes=self.n_classes,
        )


@dataclass
class MCLeaf:
    """Per-class counts of a terminal region."""

    counts: np.ndarray

    def predict(self) -> int:
        return int(np.argmax(self.counts))

    def remove(self, label: int) -> None:
        if self.counts[label] <= 0:
            raise UnlearningError(
                "unlearning would drive a multiclass leaf count negative"
            )
        self.counts[label] -= 1


@dataclass
class MCSplitNode:
    split: Split
    stats: MulticlassSplitStats
    left: "MCNode"
    right: "MCNode"


@dataclass
class MCSubtreeVariant:
    split: Split
    stats: MulticlassSplitStats
    left: "MCNode"
    right: "MCNode"
    gain: float = 0.0


@dataclass
class MCMaintenanceNode:
    variants: list[MCSubtreeVariant]
    active_index: int = 0

    @property
    def active(self) -> MCSubtreeVariant:
        return self.variants[self.active_index]

    def rescore(self) -> bool:
        for variant in self.variants:
            variant.gain = variant.stats.gini_gain()
        best = max(
            range(len(self.variants)), key=lambda index: (self.variants[index].gain, -index)
        )
        switched = best != self.active_index
        self.active_index = best
        return switched


MCNode = Union[MCLeaf, MCSplitNode, MCMaintenanceNode]


class _SchemaFacade:
    def __init__(self, schema: tuple[FeatureSchema, ...]) -> None:
        self.schema = schema


class MulticlassHedgeCut:
    """HedgeCut for ``K``-class classification (general-case extension).

    Accepts the binary classifier's hyperparameters; see
    :class:`~repro.core.params.HedgeCutParams`.
    """

    def __init__(
        self,
        n_trees: int = 50,
        epsilon: float = 0.001,
        max_tries_per_split: int = 5,
        min_leaf_size: int = 2,
        n_candidates: int | None = None,
        max_maintenance_depth: int | None = 1,
        seed: int | None = None,
    ) -> None:
        self.params = HedgeCutParams(
            n_trees=n_trees,
            epsilon=epsilon,
            max_tries_per_split=max_tries_per_split,
            min_leaf_size=min_leaf_size,
            n_candidates=n_candidates,
            max_maintenance_depth=max_maintenance_depth,
            seed=seed,
        )
        self._roots: list[MCNode] = []
        self._schema: tuple[FeatureSchema, ...] | None = None
        self._n_classes = 0
        self._deletion_budget = 0
        self._n_unlearned = 0

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return bool(self._roots)

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError("the multiclass model has not been fitted yet")

    def fit(self, dataset: MulticlassDataset) -> "MulticlassHedgeCut":
        if dataset.n_rows == 0:
            raise ValueError("cannot train on an empty dataset")
        rng = np.random.default_rng(self.params.seed)
        self._n_classes = dataset.n_classes
        self._schema = dataset.schema
        facade = _SchemaFacade(dataset.schema)
        self._roots = []
        for tree_rng in rng.spawn(self.params.n_trees):
            rows = np.arange(dataset.n_rows, dtype=np.int64)
            budget = self.params.deletion_budget(dataset.n_rows)
            self._roots.append(
                self._build_node(
                    dataset,
                    facade,
                    rows,
                    tree_rng,
                    budget,
                    self.params.max_maintenance_depth,
                )
            )
        self._deletion_budget = self.params.deletion_budget(dataset.n_rows)
        self._n_unlearned = 0
        return self

    def _build_node(
        self,
        dataset: MulticlassDataset,
        facade: _SchemaFacade,
        rows: np.ndarray,
        rng: np.random.Generator,
        budget: int,
        maintenance_left: int | None,
    ) -> MCNode:
        labels = dataset.labels[rows]
        n = int(rows.shape[0])
        counts = np.bincount(labels, minlength=self._n_classes)
        label_constant = int((counts > 0).sum()) <= 1
        if n <= self.params.min_leaf_size or label_constant:
            return MCLeaf(counts=counts.astype(np.int64))

        non_constant = [
            feature
            for feature in range(dataset.n_features)
            if dataset.columns[feature][rows].min()
            != dataset.columns[feature][rows].max()
        ]
        if not non_constant:
            return MCLeaf(counts=counts.astype(np.int64))

        node_budget = min(budget, n - self.params.min_leaf_size)
        check = maintenance_left is None or maintenance_left > 0
        max_tries = self.params.max_tries_per_split if check else 1
        last: list[tuple[Split, MulticlassSplitStats, np.ndarray]] = []
        last_best = -1
        last_threats: list[int] = []

        for _ in range(max_tries):
            candidates = self._draw_candidates(dataset, facade, rows, labels, non_constant, rng)
            if not candidates:
                continue
            gains = [stats.gini_gain() for _, stats, _ in candidates]
            best_index = int(np.argmax(gains))
            if not check or len(candidates) == 1:
                return self._split(
                    dataset, facade, rows, rng, budget, maintenance_left,
                    *candidates[best_index],
                )
            best_stats = candidates[best_index][1]
            threats = [
                index
                for index, (_, stats, _) in enumerate(candidates)
                if index != best_index
                and not is_robust_multiclass(best_stats, stats, node_budget)
            ]
            if not threats:
                return self._split(
                    dataset, facade, rows, rng, budget, maintenance_left,
                    *candidates[best_index],
                )
            last, last_best, last_threats = candidates, best_index, threats

        if not last:
            return MCLeaf(counts=counts.astype(np.int64))
        child_maintenance = None if maintenance_left is None else maintenance_left - 1
        variants = []
        for index in [last_best, *last_threats]:
            split, stats, goes_left = last[index]
            variants.append(
                MCSubtreeVariant(
                    split=split,
                    stats=stats,
                    left=self._build_node(
                        dataset, facade, rows[goes_left], rng, budget, child_maintenance
                    ),
                    right=self._build_node(
                        dataset, facade, rows[~goes_left], rng, budget, child_maintenance
                    ),
                    gain=stats.gini_gain(),
                )
            )
        node = MCMaintenanceNode(variants=variants)
        node.rescore()
        return node

    def _split(
        self,
        dataset: MulticlassDataset,
        facade: _SchemaFacade,
        rows: np.ndarray,
        rng: np.random.Generator,
        budget: int,
        maintenance_left: int | None,
        split: Split,
        stats: MulticlassSplitStats,
        goes_left: np.ndarray,
    ) -> MCSplitNode:
        return MCSplitNode(
            split=split,
            stats=stats,
            left=self._build_node(
                dataset, facade, rows[goes_left], rng, budget, maintenance_left
            ),
            right=self._build_node(
                dataset, facade, rows[~goes_left], rng, budget, maintenance_left
            ),
        )

    def _draw_candidates(
        self,
        dataset: MulticlassDataset,
        facade: _SchemaFacade,
        rows: np.ndarray,
        labels: np.ndarray,
        non_constant: list[int],
        rng: np.random.Generator,
    ) -> list[tuple[Split, MulticlassSplitStats, np.ndarray]]:
        k = min(self.params.candidates_for(dataset.n_features), len(non_constant))
        features = rng.choice(np.asarray(non_constant, dtype=np.int64), size=k, replace=False)
        candidates = []
        for feature in features:
            split = _random_split(int(feature), facade, rng)
            if split is None:
                continue
            goes_left = split.goes_left_column(dataset.columns[int(feature)][rows])
            n_left = int(np.count_nonzero(goes_left))
            if n_left == 0 or n_left == rows.shape[0]:
                continue
            stats = MulticlassSplitStats.from_labels(labels, goes_left, self._n_classes)
            candidates.append((split, stats, goes_left))
        return candidates

    # ------------------------------------------------------------------ #
    # prediction and unlearning
    # ------------------------------------------------------------------ #

    def predict(self, values: Sequence[int]) -> int:
        """Majority vote over the trees' leaf argmax predictions."""
        self._require_fitted()
        values = tuple(int(value) for value in values)
        votes = np.zeros(self._n_classes, dtype=np.int64)
        for root in self._roots:
            node = root
            while not isinstance(node, MCLeaf):
                if isinstance(node, MCMaintenanceNode):
                    active = node.active
                    goes_left = active.split.goes_left_value(
                        values[active.split.feature]
                    )
                    node = active.left if goes_left else active.right
                else:
                    goes_left = node.split.goes_left_value(values[node.split.feature])
                    node = node.left if goes_left else node.right
            votes[node.predict()] += 1
        return int(np.argmax(votes))

    def predict_batch(self, dataset: MulticlassDataset) -> np.ndarray:
        self._require_fitted()
        return np.asarray(
            [self.predict(dataset.record(row).values) for row in range(dataset.n_rows)]
        )

    @property
    def deletion_budget(self) -> int:
        self._require_fitted()
        return self._deletion_budget

    @property
    def remaining_deletion_budget(self) -> int:
        self._require_fitted()
        return max(0, self._deletion_budget - self._n_unlearned)

    def unlearn(
        self, record: MulticlassRecord, allow_budget_overrun: bool = False
    ) -> int:
        """Remove one record in place; returns the number of variant switches."""
        self._require_fitted()
        if not 0 <= record.label < self._n_classes:
            raise UnlearningError(
                f"label {record.label} out of range for {self._n_classes} classes"
            )
        if self._n_unlearned >= self._deletion_budget and not allow_budget_overrun:
            raise DeletionBudgetExhausted(
                f"the deletion budget of {self._deletion_budget} records is exhausted"
            )
        return self._unlearn_unchecked(record)

    def unlearn_batch(
        self,
        records: Sequence[MulticlassRecord],
        allow_budget_overrun: bool = False,
    ) -> int:
        """Unlearn a batch of records; returns the total variant switches.

        Mirrors the binary model's batch semantics: the record labels and
        the remaining deletion budget are validated for the *whole* batch
        before any tree is touched, so a batch that would exhaust the
        budget raises :class:`DeletionBudgetExhausted` with the model
        unchanged. The multiclass path has no packed kernel (it is the
        general-case extension, not the fast path), so the records are
        then applied by the scalar traversal.
        """
        self._require_fitted()
        records = list(records)
        for record in records:
            if not 0 <= record.label < self._n_classes:
                raise UnlearningError(
                    f"label {record.label} out of range for "
                    f"{self._n_classes} classes"
                )
        remaining = self._deletion_budget - self._n_unlearned
        if len(records) > remaining and not allow_budget_overrun:
            raise DeletionBudgetExhausted(
                f"a batch of {len(records)} deletions exceeds the remaining "
                f"budget of {max(0, remaining)} records"
            )
        switches = 0
        for record in records:
            switches += self._unlearn_unchecked(record)
        return switches

    def _unlearn_unchecked(self, record: MulticlassRecord) -> int:
        switches = 0
        for root in self._roots:
            stack: list[MCNode] = [root]
            while stack:
                node = stack.pop()
                if isinstance(node, MCLeaf):
                    node.remove(record.label)
                elif isinstance(node, MCSplitNode):
                    goes_left = node.split.goes_left_value(
                        record.values[node.split.feature]
                    )
                    if not node.stats.can_remove(record.label, goes_left):
                        raise UnlearningError(
                            "record is inconsistent with the trained split"
                        )
                    node.stats.remove(record.label, goes_left)
                    stack.append(node.left if goes_left else node.right)
                else:
                    for variant in node.variants:
                        goes_left = variant.split.goes_left_value(
                            record.values[variant.split.feature]
                        )
                        if not variant.stats.can_remove(record.label, goes_left):
                            raise UnlearningError(
                                "record is inconsistent with a subtree variant"
                            )
                        variant.stats.remove(record.label, goes_left)
                        stack.append(variant.left if goes_left else variant.right)
                    if node.rescore():
                        switches += 1
        self._n_unlearned += 1
        return switches
