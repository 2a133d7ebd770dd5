"""Shared fixtures for the test suite.

Model training is the expensive part of these tests, so fitted models are
provided via session-scoped fixtures plus ``copy.deepcopy`` for tests that
mutate them (unlearning); datasets are generated once per session.

The session also fails if it leaves shared-memory segments behind: every
segment the serving layer creates is named ``hc-*``, and any such name in
``/dev/shm`` at the end of the run that was not there at its start is a
leak (a reader fleet or a writer that never cleaned up).
"""

from __future__ import annotations

import copy
from pathlib import Path

import numpy as np
import pytest

from repro.core.ensemble import HedgeCutClassifier
from repro.dataprep.dataset import Dataset, FeatureKind, FeatureSchema
from repro.datasets.registry import load_dataset
from repro.evaluation.splits import train_test_split


_SHM_DIR = Path("/dev/shm")


def _shm_segments() -> set[str]:
    if not _SHM_DIR.is_dir():
        return set()
    return {path.name for path in _SHM_DIR.glob("hc-*")}


@pytest.fixture(scope="session", autouse=True)
def no_leaked_shm_segments():
    """Fail the run if it leaves new ``hc-*`` segments in ``/dev/shm``."""
    before = _shm_segments()
    yield
    leaked = sorted(_shm_segments() - before)
    if leaked:
        pytest.fail(f"the test run leaked shared-memory segments: {leaked}")


def small_schema() -> tuple[FeatureSchema, ...]:
    """A compact mixed schema used by hand-built datasets in tests."""
    return (
        FeatureSchema("num_a", FeatureKind.NUMERIC, 8),
        FeatureSchema("num_b", FeatureKind.NUMERIC, 5),
        FeatureSchema("cat_a", FeatureKind.CATEGORICAL, 4),
    )


def make_random_dataset(n_rows: int = 200, seed: int = 0) -> Dataset:
    """A hand-built random dataset with a weak planted signal."""
    rng = np.random.default_rng(seed)
    schema = small_schema()
    num_a = rng.integers(0, 8, size=n_rows)
    num_b = rng.integers(0, 5, size=n_rows)
    cat_a = rng.integers(0, 4, size=n_rows)
    score = (num_a >= 4).astype(int) + (cat_a == 2).astype(int)
    noise = rng.random(n_rows) < 0.2
    labels = ((score >= 1) ^ noise).astype(np.uint8)
    return Dataset(schema, [num_a, num_b, cat_a], labels)


@pytest.fixture(scope="session")
def random_dataset() -> Dataset:
    return make_random_dataset(n_rows=300, seed=11)


@pytest.fixture(scope="session")
def income_small() -> Dataset:
    """A small sample of the synthetic income dataset."""
    return load_dataset("income", n_rows=600, seed=3)


@pytest.fixture(scope="session")
def income_split(income_small: Dataset) -> tuple[Dataset, Dataset]:
    return train_test_split(income_small, test_fraction=0.2, seed=3)


@pytest.fixture(scope="session")
def fitted_model_session(income_split) -> HedgeCutClassifier:
    """A trained model for read-only tests. Never mutate this directly."""
    train, _ = income_split
    model = HedgeCutClassifier(n_trees=5, epsilon=0.01, seed=5)
    return model.fit(train)


@pytest.fixture()
def fitted_model(fitted_model_session) -> HedgeCutClassifier:
    """A private deep copy of the session model, safe to mutate."""
    return copy.deepcopy(fitted_model_session)
