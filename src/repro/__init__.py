"""HedgeCut: maintaining randomised trees for low-latency machine unlearning.

A from-scratch reproduction of the SIGMOD 2021 paper by Schelter, Grafberger
and Dunning. The package provides:

* :mod:`repro.core` -- the HedgeCut classifier (randomised tree ensemble with
  split-robustness analysis, maintenance nodes and in-place unlearning).
* :mod:`repro.dataprep` -- quantile discretisation and categorical encoding
  into the compact column layout HedgeCut scans over.
* :mod:`repro.vectorized` -- the Gini-gain scan kernels (scalar, predicated,
  vectorised and mlpack-style) benchmarked in Section 6.4.2 of the paper.
* :mod:`repro.baselines` -- from-scratch CART, Random Forest and Extremely
  Randomised Trees baselines.
* :mod:`repro.datasets` -- synthetic stand-ins for the five privacy-sensitive
  evaluation datasets.
* :mod:`repro.serving` -- a model-serving simulator for the throughput
  experiments.
* :mod:`repro.evaluation` -- metrics, splits and statistical tests.
* :mod:`repro.experiments` -- one driver per table/figure of the paper.

Quickstart::

    from repro import HedgeCutClassifier, load_dataset
    from repro.evaluation import train_test_split, accuracy

    dataset = load_dataset("income", n_rows=5000, seed=7)
    train, test = train_test_split(dataset, test_fraction=0.2, seed=7)

    model = HedgeCutClassifier(n_trees=20, epsilon=0.001, seed=7)
    model.fit(train)

    print("accuracy:", accuracy(model.predict_batch(test), test.labels))
    model.unlearn(train.record(0))          # a GDPR deletion request
"""

from repro.core.ensemble import HedgeCutClassifier
from repro.core.params import HedgeCutParams
from repro.dataprep.dataset import Dataset, FeatureKind, FeatureSchema
from repro.dataprep.pipeline import TabularPreprocessor
from repro.datasets.registry import available_datasets, load_dataset

__all__ = [
    "HedgeCutClassifier",
    "HedgeCutParams",
    "Dataset",
    "FeatureKind",
    "FeatureSchema",
    "TabularPreprocessor",
    "available_datasets",
    "load_dataset",
]

__version__ = "1.0.0"
