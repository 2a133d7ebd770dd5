"""The shared model and the two deployments every workload runs against.

Model: the full ``credit`` dataset (150k rows), a fixed-seed 80/20 split
(120k train rows), 8 trees in total, epsilon = 0.01, and whatever trainer
``HedgeCutParams`` defaults to -- so a change of default shows in
``setup_s``. Every WAL fsyncs and every engine is ``consistency="strong"``.

* ``"fleet"``: ``AsyncShardedGateway`` -> ``ShardedMicroBatcher`` ->
  ``ShardedServingEngine(K=2, serving="shm", 1 reader per shard)``.
* ``"inproc"``: one ``ReplicatedServingEngine`` (1 replica).

The model seed, split seed and data seed are fixed; the run's ``--seed``
only drives the traffic, so set-up does identical work on every run.

Set-up is timed in CPU seconds of this process (``time.process_time``):
the fit is single-process and CPU-bound, and on a shared host its wall
time swings with the neighbours' load by a third between runs. The wall
time is kept in the run record beside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Full-size configuration (the paper's credit row count).
FULL = {"n_rows": None, "n_trees": 8, "n_extra": 10_000}
#: Smoke configuration for the self-test: same code paths (a deletion
#: pool large enough for one whole-user erasure), seconds to fit.
SMOKE = {"n_rows": 20_000, "n_trees": 4, "n_extra": 4_000}

EPSILON = 0.01
N_SHARDS = 2
MODEL_SEED = 20_210_620
DATA_SEED = 0
SPLIT_SEED = 0
#: Seed of the pool of new rows inserts are drawn from (outside train/test).
EXTRA_SEED = 1


@dataclass
class Data:
    train: object
    test_matrix: np.ndarray
    test_labels: np.ndarray
    extra: object


@dataclass
class Setup:
    """A running deployment plus the timings of how it was built."""

    data: Data
    kind: str
    model: object
    store: object
    engine: object
    batcher: object = None
    gateway_config: object = None
    timings: dict = field(default_factory=dict)

    @property
    def shard_models(self) -> list:
        return list(self.model.shards) if self.kind == "fleet" else [self.model]

    def close(self) -> None:
        self.engine.close()


def build_data(size: dict) -> Data:
    from repro.datasets.registry import load_dataset_with_preprocessor, load_raw
    from repro.evaluation import train_test_split

    dataset, preprocessor = load_dataset_with_preprocessor(
        "credit", n_rows=size["n_rows"], seed=DATA_SEED
    )
    train, test = train_test_split(dataset, test_fraction=0.2, seed=SPLIT_SEED)
    extra = preprocessor.transform(
        load_raw("credit", n_rows=size["n_extra"], seed=EXTRA_SEED)
    )
    matrix = np.ascontiguousarray(test.feature_matrix(), dtype=np.int64)
    return Data(train, matrix, np.asarray(test.labels), extra)


def _fit(kind: str, size: dict, data: Data):
    from repro.core import HedgeCutClassifier
    from repro.sharding import ShardedHedgeCut

    if kind == "fleet":
        return ShardedHedgeCut(
            n_shards=N_SHARDS, n_trees=size["n_trees"], epsilon=EPSILON,
            seed=MODEL_SEED,
        ).fit(data.train)
    return HedgeCutClassifier(
        n_trees=size["n_trees"], epsilon=EPSILON, seed=MODEL_SEED
    ).fit(data.train)


def _serve(kind: str, data: Data, model, directory: Path, timings: dict) -> Setup:
    """Warm the packs, create the durable store, start the engine."""
    from repro.persistence.store import ModelStore
    from repro.serving import ReplicatedServingEngine
    from repro.serving.microbatch import MicroBatchConfig
    from repro.sharding.gateway import GatewayConfig
    from repro.sharding.microbatch import ShardedMicroBatcher
    from repro.sharding.service import ShardedServingEngine
    from repro.sharding.store import ShardedModelStore

    shards = list(model.shards) if kind == "fleet" else [model]
    mark = time.process_time()
    for shard in shards:
        shard.packed.unlearn_pack()
    timings["pack_s"] = time.process_time() - mark

    mark = time.process_time()
    if kind == "fleet":
        store = ShardedModelStore(directory, n_shards=N_SHARDS, fsync=True)
        store.save_snapshots(model, wal_seqs=[0] * N_SHARDS)
    else:
        store = ModelStore(directory, fsync=True)
        store.save_snapshot(model, wal_seq=0)
    timings["store_s"] = time.process_time() - mark

    mark = time.process_time()
    if kind == "fleet":
        engine = ShardedServingEngine(
            model, store, n_replicas=1, consistency="strong", serving="shm"
        )
    else:
        engine = ReplicatedServingEngine(
            model, store, n_replicas=1, consistency="strong"
        )
    engine.predict_rows(data.test_matrix[:1])  # readers attached, kernel warm
    timings["spawn_s"] = time.process_time() - mark
    if kind == "fleet":
        return Setup(data, kind, model, store, engine,
                     ShardedMicroBatcher(engine, MicroBatchConfig()),
                     GatewayConfig(admission="block"), timings)
    return Setup(data, kind, model, store, engine, timings=timings)


def deploy(kind: str, size: dict, directory: Path) -> Setup:
    """Build the data, fit, and serve; ``timings`` itemises ``setup_s``.

    Every figure is CPU seconds except ``setup_wall_s``.
    """
    timings = {}
    wall = time.perf_counter()
    start = time.process_time()
    data = build_data(size)
    timings["data_s"] = time.process_time() - start
    mark = time.process_time()
    model = _fit(kind, size, data)
    timings["fit_s"] = time.process_time() - mark
    setup = _serve(kind, data, model, directory, timings)
    timings["setup_s"] = time.process_time() - start
    timings["setup_wall_s"] = time.perf_counter() - wall
    return setup


def redeploy(setup: Setup, directory: Path) -> Setup:
    """An identical second deployment from the first one's initial snapshots."""
    from perfbench.gate import initial_models
    from repro.sharding import ShardedHedgeCut

    models = initial_models(setup)
    if setup.kind == "fleet":
        model = ShardedHedgeCut.from_shards(models, setup.model.partitioner)
    else:
        model = models[0]
    return _serve(setup.kind, setup.data, model, directory, {})
