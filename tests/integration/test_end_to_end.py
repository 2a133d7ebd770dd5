"""End-to-end flows over the five synthetic datasets at small scale."""

import numpy as np
import pytest

from repro.core.ensemble import HedgeCutClassifier
from repro.datasets.registry import available_datasets, load_dataset_with_preprocessor, load_raw
from repro.evaluation.metrics import accuracy
from repro.evaluation.splits import train_test_split
from repro.persistence.snapshot import load_snapshot, save_snapshot
from repro.serving.simulator import RequestMix, ServingSimulator


@pytest.mark.parametrize("name", sorted(available_datasets()))
def test_fit_predict_unlearn_flow(name):
    dataset, _ = load_dataset_with_preprocessor(name, n_rows=500, seed=1)
    train, test = train_test_split(dataset, test_fraction=0.2, seed=1)
    model = HedgeCutClassifier(n_trees=3, epsilon=0.01, seed=1)
    model.fit(train)

    predictions = model.predict_batch(test)
    majority = max(float(np.mean(test.labels)), 1 - float(np.mean(test.labels)))
    assert accuracy(predictions, test.labels) >= majority - 0.12

    for row in range(model.deletion_budget):
        report = model.unlearn(train.record(row))
        assert report.leaves_updated >= len(model.trees)
    assert model.remaining_deletion_budget == 0


def test_serving_flow_with_raw_deletion_requests():
    """A GDPR deletion request arrives as raw values, like in Figure 1."""
    dataset, preprocessor = load_dataset_with_preprocessor("income", n_rows=500, seed=2)
    raw = load_raw("income", n_rows=500, seed=2)
    train, test = train_test_split(dataset, test_fraction=0.2, seed=2)
    model = HedgeCutClassifier(n_trees=3, epsilon=0.01, seed=2)
    model.fit(train)

    # The serving system retrieves the user's raw data with a point query
    # and encodes it on the fly.
    row = 42
    raw_values = {name: raw.numeric[name][row] for name in raw.numeric}
    raw_values.update({name: raw.categorical[name][row] for name in raw.categorical})
    record = preprocessor.encode_record(raw_values, label=int(raw.labels[row]))

    # The encoded record may or may not be in the (shuffled) training split;
    # unlearning must either apply cleanly or fail loudly, never corrupt.
    before = model.predict_batch(test)
    try:
        model.unlearn(record)
    except Exception:
        pass
    after = model.predict_batch(test)
    assert after.shape == before.shape


def test_serving_simulator_throughput_is_stable_under_unlearning():
    dataset, _ = load_dataset_with_preprocessor("recidivism", n_rows=500, seed=3)
    train, test = train_test_split(dataset, test_fraction=0.2, seed=3)
    model = HedgeCutClassifier(n_trees=3, epsilon=0.05, seed=3)
    model.fit(train)

    pure = ServingSimulator(model.predict_rows, model.unlearn, test, seed=0).run(
        RequestMix(n_requests=300)
    )
    pool = [train.record(row) for row in range(model.deletion_budget)]
    mixed = ServingSimulator(
        model.predict_rows, model.unlearn, test, unlearn_pool=pool, seed=0
    ).run(RequestMix(n_requests=300, unlearn_fraction=0.01))
    assert mixed.n_unlearnings >= 1
    # Mixed-in unlearning must not collapse throughput (paper: no
    # significant difference; we allow a generous factor at toy scale).
    assert mixed.requests_per_second > 0.2 * pure.requests_per_second


def test_model_survives_save_load_unlearn_cycle(tmp_path):
    dataset, _ = load_dataset_with_preprocessor("purchase", n_rows=500, seed=4)
    train, test = train_test_split(dataset, test_fraction=0.2, seed=4)
    model = HedgeCutClassifier(n_trees=3, epsilon=0.01, seed=4)
    model.fit(train)
    model.unlearn(train.record(0))
    save_snapshot(model, tmp_path / "deployed.npz")

    restored, _ = load_snapshot(tmp_path / "deployed.npz")
    assert restored.n_unlearned == 1
    if restored.remaining_deletion_budget:
        restored.unlearn(train.record(1))
    assert np.array_equal(
        restored.predict_batch(test).shape, model.predict_batch(test).shape
    )
