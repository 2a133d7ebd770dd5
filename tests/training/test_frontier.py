"""Equivalence suite for the level-synchronous HedgeCut frontier trainer.

The frontier trainer consumes random draws in breadth-first instead of
depth-first order, so fitted trees cannot be compared node-by-node against
the recursive reference for a shared seed. Equivalence is established in
layers instead:

* every structural invariant of a recursive-built tree holds for a
  frontier-built tree (statistics consistent along every edge),
* aggregate structure and held-out behaviour match the recursive builder
  across seeds and across the dataset registry (slow-marked matrix),
* the per-pair robustness verdicts are *bit-identical* by construction
  (``tests/core/test_robustness.py`` checks the batched weakening loop
  against the scalar ``is_robust``),
* unlearning works on frontier-built models exactly as on recursive ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ensemble import HedgeCutClassifier
from repro.core.nodes import Leaf, MaintenanceNode, SplitNode
from repro.core.params import HedgeCutParams
from repro.persistence.snapshot import load_snapshot, save_snapshot
from repro.core.tree import TreeBuilder
from repro.datasets.registry import available_datasets, load_dataset
from repro.evaluation.splits import train_test_split
from repro.training.frontier import FrontierTreeBuilder

from tests.conftest import make_random_dataset


def check_node(node) -> tuple[int, int]:
    """Validate subtree statistics bottom-up; returns ``(n, n_plus)``."""
    if isinstance(node, Leaf):
        assert node.n >= 0 and 0 <= node.n_plus <= node.n
        return node.n, node.n_plus
    if isinstance(node, SplitNode):
        left_n, left_plus = check_node(node.left)
        right_n, right_plus = check_node(node.right)
        assert node.stats.n == left_n + right_n
        assert node.stats.n_plus == left_plus + right_plus
        assert node.stats.n_left == left_n
        assert node.stats.n_left_plus == left_plus
        return node.stats.n, node.stats.n_plus
    assert isinstance(node, MaintenanceNode)
    totals = set()
    for variant in node.variants:
        left_n, left_plus = check_node(variant.left)
        right_n, right_plus = check_node(variant.right)
        assert variant.stats.n == left_n + right_n
        assert variant.stats.n_plus == left_plus + right_plus
        assert variant.stats.n_left == left_n
        assert variant.stats.n_left_plus == left_plus
        assert variant.gain == pytest.approx(variant.stats.gini_gain())
        totals.add((variant.stats.n, variant.stats.n_plus))
    # Every variant partitions the same record multiset.
    assert len(totals) == 1
    return totals.pop()


def fit_recursive(train, n_trees: int, seed: int) -> HedgeCutClassifier:
    """An ensemble grown by the recursive reference :class:`TreeBuilder`.

    Same params and per-tree random streams as ``HedgeCutClassifier.fit``;
    only the builder differs.
    """
    params = HedgeCutParams(n_trees=n_trees, seed=seed)
    tree_rngs = np.random.default_rng(seed).spawn(n_trees)
    return HedgeCutClassifier.from_state(
        params=params,
        trees=[TreeBuilder(train, params, rng).build() for rng in tree_rngs],
        schema=train.schema,
        deletion_budget=params.deletion_budget(train.n_rows),
        n_unlearned=0,
        n_trained_on=train.n_rows,
    )


class TestFrontierStructure:
    def test_tree_invariants_hold(self, income_small):
        params = HedgeCutParams(seed=5)
        tree = FrontierTreeBuilder(
            income_small, params, np.random.default_rng(5)
        ).build()
        n, n_plus = check_node(tree.root)
        assert n == income_small.n_rows
        assert n_plus == int(income_small.labels.sum())

    def test_counters_are_consistent(self, income_small):
        params = HedgeCutParams(seed=6)
        tree = FrontierTreeBuilder(
            income_small, params, np.random.default_rng(6)
        ).build()
        counters = tree.counters
        assert counters.leaves > 0
        assert counters.trials >= counters.robust_splits
        assert counters.variants_grown >= 2 * counters.maintenance_nodes


class TestFrontierEquivalence:
    def test_aggregate_structure_matches_recursive(self):
        """Mean structural counters agree across seeds (same distribution)."""
        dataset = make_random_dataset(n_rows=400, seed=21)
        params = HedgeCutParams()
        rec_leaves, fro_leaves = [], []
        rec_splits, fro_splits = [], []
        for seed in range(10):
            rec = TreeBuilder(dataset, params, np.random.default_rng(seed)).build()
            fro = FrontierTreeBuilder(
                dataset, params, np.random.default_rng(100 + seed)
            ).build()
            rec_leaves.append(rec.counters.leaves)
            fro_leaves.append(fro.counters.leaves)
            rec_splits.append(rec.counters.robust_splits)
            fro_splits.append(fro.counters.robust_splits)
        assert np.mean(fro_leaves) == pytest.approx(np.mean(rec_leaves), rel=0.15)
        assert np.mean(fro_splits) == pytest.approx(np.mean(rec_splits), rel=0.15)

    def test_predict_proba_parity_on_holdout(self, income_split):
        train, test = income_split
        recursive = fit_recursive(train, n_trees=8, seed=31)
        frontier = HedgeCutClassifier(n_trees=8, seed=31).fit(train)
        labels = test.labels
        acc_rec = float((recursive.predict_batch(test) == labels).mean())
        acc_fro = float((frontier.predict_batch(test) == labels).mean())
        assert abs(acc_rec - acc_fro) < 0.06
        proba_rec = recursive.predict_proba_batch(test)
        proba_fro = frontier.predict_proba_batch(test)
        # Per-record probabilities carry ~1/sqrt(n_trees) sampling noise
        # between any two independently drawn 8-tree ensembles; the
        # ensemble-level calibration is much tighter.
        assert np.abs(proba_rec - proba_fro).mean() < 0.2
        assert abs(proba_rec.mean() - proba_fro.mean()) < 0.05

    def test_pool_equals_sequential_for_frontier(self):
        dataset = make_random_dataset(n_rows=250, seed=64)
        sequential = HedgeCutClassifier(n_trees=4, seed=64).fit(dataset)
        parallel = HedgeCutClassifier(n_trees=4, seed=64, n_jobs=2).fit(dataset)
        assert np.array_equal(
            sequential.predict_proba_batch(dataset),
            parallel.predict_proba_batch(dataset),
        )
        assert (
            sequential.node_census().n_nodes == parallel.node_census().n_nodes
        )


class TestFrontierUnlearning:
    def test_unlearning_round_trip_after_frontier_fit(self, income_small):
        model = HedgeCutClassifier(n_trees=4, epsilon=0.02, seed=41).fit(
            income_small
        )
        budget = model.deletion_budget
        assert budget >= 2
        before = model.predict_proba_batch(income_small)
        report = model.unlearn_batch(
            [income_small.record(i) for i in range(budget)]
        )
        assert report.leaves_updated >= budget
        assert model.remaining_deletion_budget == 0
        after = model.predict_proba_batch(income_small)
        assert after.shape == before.shape
        assert np.isfinite(after).all()
        for tree in model.trees:
            check_node(tree.root)

    def test_budget_exhaustion_raises(self, income_small):
        model = HedgeCutClassifier(n_trees=2, epsilon=0.005, seed=42).fit(
            income_small
        )
        for index in range(model.deletion_budget):
            model.unlearn(income_small.record(index))
        from repro.core.exceptions import DeletionBudgetExhausted

        with pytest.raises(DeletionBudgetExhausted):
            model.unlearn(income_small.record(model.deletion_budget))

    def test_snapshot_save_load_round_trip(self, income_small, tmp_path):
        model = HedgeCutClassifier(n_trees=2, seed=43).fit(income_small)
        save_snapshot(model, tmp_path / "m.npz")
        restored, _ = load_snapshot(tmp_path / "m.npz")
        assert np.array_equal(
            model.predict_proba_batch(income_small),
            restored.predict_proba_batch(income_small),
        )


@pytest.mark.slow
class TestFrontierRegistryMatrix:
    """Recursive-vs-frontier parity across the full dataset registry."""

    @pytest.mark.parametrize("name", available_datasets())
    def test_holdout_parity(self, name):
        dataset = load_dataset(name, n_rows=1500, seed=17)
        train, test = train_test_split(dataset, test_fraction=0.2, seed=17)
        recursive = fit_recursive(train, n_trees=6, seed=17)
        frontier = HedgeCutClassifier(n_trees=6, seed=17).fit(train)
        labels = test.labels
        acc_rec = float((recursive.predict_batch(test) == labels).mean())
        acc_fro = float((frontier.predict_batch(test) == labels).mean())
        assert abs(acc_rec - acc_fro) < 0.08
        census_rec = recursive.node_census()
        census_fro = frontier.node_census()
        assert census_fro.n_leaves == pytest.approx(census_rec.n_leaves, rel=0.2)
        for tree in frontier.trees:
            check_node(tree.root)
