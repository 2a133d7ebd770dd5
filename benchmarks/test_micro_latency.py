"""Micro-benchmarks: single-request unlearning and prediction latency.

These are the raw operations behind Figure 3 and Table 2, measured with
pytest-benchmark's statistics machinery: one in-place unlearning request
and one single-record prediction against a deployed model.
"""

import pytest

from repro.core.ensemble import HedgeCutClassifier
from repro.datasets.registry import load_dataset
from repro.evaluation.splits import train_test_split


@pytest.fixture(scope="module")
def deployed():
    dataset = load_dataset("income", n_rows=2000, seed=1)
    train, test = train_test_split(dataset, test_fraction=0.2, seed=1)
    model = HedgeCutClassifier(n_trees=10, epsilon=0.001, seed=1)
    model.fit(train)
    return model, train, test


def test_unlearning_latency(benchmark, deployed):
    """One unlearning request against the deployed ensemble."""
    model, train, _ = deployed
    records = iter(range(train.n_rows))

    def unlearn_next():
        model.unlearn(train.record(next(records)), allow_budget_overrun=True)

    benchmark.pedantic(unlearn_next, rounds=50, iterations=1)


def test_prediction_latency(benchmark, deployed):
    """One single-record prediction against the deployed ensemble."""
    model, _, test = deployed
    values = test.record(0).values
    label = benchmark(model.predict, values)
    assert label in (0, 1)


def test_batch_prediction_throughput(benchmark, deployed):
    """Vectorised batch prediction over the whole test set."""
    model, _, test = deployed
    predictions = benchmark(model.predict_batch, test)
    assert predictions.shape[0] == test.n_rows


def test_compiled_vs_graph_prediction(benchmark, deployed):
    """The packed kernel is the deployed fast path; compare it against
    naive graph traversal (the Section 8 data-structure claim)."""
    model, _, test = deployed
    values = test.record(0).values

    def traverse_graphs():
        return [tree.predict_value(values) for tree in model.trees]

    graph_votes = traverse_graphs()
    packed_label = model.predict(values)
    assert packed_label in (0, 1)
    assert len(graph_votes) == len(model.trees)
    benchmark(traverse_graphs)
