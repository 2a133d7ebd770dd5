"""Shared helpers for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.cart import DecisionTreeClassifier
from repro.baselines.ert import ExtraTreesClassifier
from repro.baselines.forest import RandomForestClassifier
from repro.core.ensemble import HedgeCutClassifier
from repro.dataprep.dataset import Dataset
from repro.datasets.registry import load_dataset
from repro.evaluation.splits import train_test_split
from repro.experiments.config import ExperimentConfig

#: Baseline identifiers in the order the paper's figures list them.
BASELINE_NAMES = ("decision tree", "random forest", "ert")


@dataclass
class PreparedData:
    """One dataset sample split for an experiment run."""

    name: str
    train: Dataset
    test: Dataset


def prepare(config: ExperimentConfig, dataset_name: str, run_index: int) -> PreparedData:
    """Generate, encode and split one dataset for one repeated run."""
    seed = config.run_seed(run_index)
    dataset = load_dataset(dataset_name, n_rows=config.rows_for(dataset_name), seed=seed)
    train, test = train_test_split(dataset, test_fraction=0.2, seed=seed)
    return PreparedData(name=dataset_name, train=train, test=test)


def make_hedgecut(config: ExperimentConfig, seed: int, **overrides) -> HedgeCutClassifier:
    """A HedgeCut model with the experiment's shared settings."""
    settings = {
        "n_trees": config.n_trees,
        "epsilon": config.epsilon,
        "max_tries_per_split": config.max_tries_per_split,
        "min_leaf_size": 2,
        "seed": seed,
    }
    settings.update(overrides)
    return HedgeCutClassifier(**settings)


def make_baseline(name: str, config: ExperimentConfig, seed: int):
    """Instantiate one of the paper's baselines with its Section 6.1 setup."""
    if name == "decision tree":
        return DecisionTreeClassifier(seed=seed)
    if name == "random forest":
        return RandomForestClassifier(n_estimators=config.n_trees, seed=seed)
    if name == "ert":
        return ExtraTreesClassifier(
            n_estimators=config.n_trees,
            min_samples_leaf=2,
            seed=seed,
        )
    raise ValueError(f"unknown baseline {name!r}")
