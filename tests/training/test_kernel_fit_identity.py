"""Fits with the level kernels equal fits with their numpy oracle.

The kernels route in the same stable order and count the same integers as
:mod:`tests.training.level_oracle`, so a fit must grow the same trees node
for node: same splits, counts, variants, gains and build counters. Every
comparison fits once as shipped and once with the oracle monkeypatched
into the trainers.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.training.frontier as frontier_module
import repro.training.histogram as histogram_module
from repro.baselines.cart import DecisionTreeClassifier
from repro.baselines.ert import ExtraTreesClassifier
from repro.baselines.tree_common import BaselineLeaf
from repro.core.ensemble import HedgeCutClassifier
from repro.core.nodes import Leaf, MaintenanceNode, SplitNode, iter_nodes
from repro.dataprep.dataset import Dataset, FeatureKind, FeatureSchema
from repro.datasets.registry import available_datasets, load_dataset

from tests.training import level_oracle


def split_key(split) -> tuple:
    return (
        type(split).__name__, split.feature,
        getattr(split, "cut", None), getattr(split, "subset_mask", None),
    )


def hedgecut_fingerprint(model) -> list:
    """Every node of every tree in a fixed walk order, plus the counters."""
    out: list = []
    for tree in model.trees:
        out.append(tree.counters)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                out.append(("leaf", node.n, node.n_plus))
            elif isinstance(node, MaintenanceNode):
                out.append(("maintenance", node.active_index))
                for variant in node.variants:
                    out.append((split_key(variant.split), variant.stats.quadrants(),
                                variant.gain))
                    stack.extend((variant.right, variant.left))
            else:
                out.append((split_key(node.split), node.stats.quadrants()))
                stack.extend((node.right, node.left))
    return out


def baseline_fingerprint(roots) -> list:
    out: list = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        if isinstance(node, BaselineLeaf):
            out.append(("leaf", node.n, node.n_plus))
        else:
            out.append((node.feature, node.threshold))
            stack.extend((node.right, node.left))
    return out


def with_oracle(monkeypatch, fit):
    with monkeypatch.context() as patch:
        patch.setattr(histogram_module, "count_level", level_oracle.count_level)
        patch.setattr(frontier_module, "route_level", level_oracle.route_level)
        return fit()


def assert_hedgecut_identical(monkeypatch, dataset, **kwargs):
    def fit():
        return HedgeCutClassifier(**kwargs).fit(dataset)

    model = fit()
    assert hedgecut_fingerprint(model) == hedgecut_fingerprint(
        with_oracle(monkeypatch, fit)
    )
    return model


def wide_dataset(n_rows: int = 900, seed: int = 0) -> Dataset:
    """uint8 numeric and narrow codes plus a 70-value (uint8) and a
    300-value (uint16) categorical: every routing test and two dtypes."""
    rng = np.random.default_rng(seed)
    schema = (
        FeatureSchema("num", FeatureKind.NUMERIC, 16),
        FeatureSchema("narrow", FeatureKind.CATEGORICAL, 5),
        FeatureSchema("wide", FeatureKind.CATEGORICAL, 70),
        FeatureSchema("wider", FeatureKind.CATEGORICAL, 300),
    )
    columns = [rng.integers(0, feature.n_values, size=n_rows) for feature in schema]
    score = (columns[0] >= 8).astype(int) + (columns[2] % 3 == 0) + (columns[3] < 120)
    labels = ((score >= 2) ^ (rng.random(n_rows) < 0.15)).astype(np.uint8)
    return Dataset(schema, columns, labels)


@pytest.mark.parametrize("name", ["income", "credit"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_registry_subset(monkeypatch, name, seed):
    dataset = load_dataset(name, n_rows=1000, seed=seed)
    assert_hedgecut_identical(
        monkeypatch, dataset, n_trees=3, epsilon=0.01, seed=seed
    )


@pytest.mark.slow
@pytest.mark.parametrize("name", available_datasets())
@pytest.mark.parametrize("seed", [4, 5, 6])
def test_full_registry(monkeypatch, name, seed):
    dataset = load_dataset(name, n_rows=2000, seed=seed)
    assert_hedgecut_identical(
        monkeypatch, dataset, n_trees=4, epsilon=0.01, seed=seed
    )


@pytest.mark.parametrize(
    "options",
    [
        {"robustness_mode": "greedy"},
        {"robustness_mode": "beam"},
        {"robustness_mode": "verified"},
        {"robustness_mode": "off"},
        {"max_maintenance_depth": None},
    ],
)
def test_options_on_wide_domains(monkeypatch, options):
    model = assert_hedgecut_identical(
        monkeypatch, wide_dataset(), n_trees=3, epsilon=0.02, seed=8, **options
    )
    # The fits route through membership tables: plain splits on both wide
    # features.
    routed = {
        node.split.feature
        for tree in model.trees
        for node in iter_nodes(tree.root)
        if isinstance(node, SplitNode)
    }
    assert {2, 3} <= routed


def test_cart_and_ert_cores(monkeypatch):
    dataset = load_dataset("income", n_rows=1000, seed=9)

    def fit_cart():
        return [DecisionTreeClassifier(max_depth=8, seed=9).fit(dataset)._root]

    def fit_ert():
        return ExtraTreesClassifier(n_estimators=3, seed=9).fit(dataset)._trees

    for fit in (fit_cart, fit_ert):
        assert baseline_fingerprint(fit()) == baseline_fingerprint(
            with_oracle(monkeypatch, fit)
        )


def test_parallel_fit_equals_sequential():
    dataset = wide_dataset(seed=10)
    sequential = HedgeCutClassifier(n_trees=4, epsilon=0.02, seed=10).fit(dataset)
    parallel = HedgeCutClassifier(n_trees=4, epsilon=0.02, seed=10, n_jobs=2).fit(dataset)
    assert hedgecut_fingerprint(parallel) == hedgecut_fingerprint(sequential)
