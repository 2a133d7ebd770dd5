"""Correctness gate run at the end of every run.

1. A reference twin starts from the deployment's initial snapshot and
   replays every acknowledged deletion and insert through the object-walk
   oracle (``unlearn(path="object")``; ``learn_one`` on a model that never
   built a pack). The served model must equal the twin: identical model
   fingerprints per shard, and bit-identical ``predict_proba_rows`` on the
   test matrix through the serving engine.
2. ``ModelStore.recover()`` (snapshot + WAL-tail replay) must give, per
   shard, a model whose fingerprint equals the live model's.

A fingerprint covers every node of every tree: leaf counts, split
statistics, maintenance-node variants, their gains and the active choice,
plus the model's deletion accounting.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time

import numpy as np


def fingerprint(model) -> str:
    """SHA-256 over the full mutable state of a fitted classifier."""
    from repro.core.nodes import Leaf, MaintenanceNode, SplitNode

    ints: list[int] = [model.deletion_budget, model.n_unlearned]
    gains: list[float] = []
    for tree in model.trees:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                ints.extend((0, node.n, node.n_plus))
            elif isinstance(node, SplitNode):
                stats = node.stats
                ints.extend((1, node.split.feature, stats.n, stats.n_plus,
                             stats.n_left, stats.n_left_plus))
                stack.append(node.right)
                stack.append(node.left)
            elif isinstance(node, MaintenanceNode):
                ints.extend((2, len(node.variants), node.active_index))
                for variant in node.variants:
                    stats = variant.stats
                    ints.extend((variant.split.feature, stats.n, stats.n_plus,
                                 stats.n_left, stats.n_left_plus))
                    gains.append(variant.gain)
                    stack.append(variant.right)
                    stack.append(variant.left)
    digest = hashlib.sha256(np.asarray(ints, dtype=np.int64).tobytes())
    digest.update(np.asarray(gains, dtype=np.float64).tobytes())
    return digest.hexdigest()


def initial_models(setup) -> list:
    """Fresh copies of every shard model as deployed (the initial snapshots)."""
    from repro.persistence.snapshot import load_snapshot

    stores = setup.store.shard_stores if setup.kind == "fleet" else [setup.store]
    return [load_snapshot(store.snapshot_paths()[0])[0] for store in stores]


def replay_twin(setup, applied: list) -> list:
    """Replay acknowledged writes on the initial models via the object walk.

    ``applied`` holds ``(shard, kind, record)`` in the order each shard
    applied them.
    """
    twins = initial_models(setup)
    for shard, kind, record in applied:
        if kind == "delete":
            twins[shard].unlearn(record, path="object")
        else:
            twins[shard].learn_one(record)
    return twins


def served_proba(setup) -> np.ndarray:
    return np.asarray(setup.engine.predict_proba_rows(setup.data.test_matrix))


def twin_proba(setup, twins: list) -> np.ndarray:
    """The twin's soft vote, aggregated exactly as the serving engine does."""
    matrix = setup.data.test_matrix
    if setup.kind == "fleet":
        total = np.zeros(matrix.shape[0], dtype=np.float64)
        for twin in twins:
            total += twin.predict_proba_rows(matrix)
        return total / len(twins)
    return twins[0].predict_proba_rows(matrix)


def check(setup, applied: list, n_recover: int = 5, tamper=None) -> dict:
    """Run the gate; returns its verdict, failure reasons and recovery timing.

    ``tamper`` (self-test only) may mutate the replayed twins before they
    are compared, to prove the gate notices a single altered count.
    """
    began = time.perf_counter()
    problems: list[str] = []
    live = [fingerprint(model) for model in setup.shard_models]

    twins = replay_twin(setup, applied)
    if tamper is not None:
        tamper(twins)
    for shard, (twin, expected) in enumerate(zip(twins, live)):
        if fingerprint(twin) != expected:
            problems.append(f"shard {shard}: served model differs from the twin")
    if not np.array_equal(served_proba(setup), twin_proba(setup, twins)):
        problems.append("served predict_proba_rows differs from the twin's")
    del twins

    durations = []
    gc.collect()  # the twins' garbage does not land in a recovery
    for _ in range(n_recover):
        recovered = None
        start = time.perf_counter()
        recovered = setup.store.recover()
        durations.append(time.perf_counter() - start)
    models = recovered.model.shards if setup.kind == "fleet" else [recovered.model]
    for shard, (model, expected) in enumerate(zip(models, live)):
        if fingerprint(model) != expected:
            problems.append(f"shard {shard}: recovered model differs from live")

    labels = np.asarray(setup.engine.predict_rows(setup.data.test_matrix))
    return {
        "correct": not problems,
        "problems": problems,
        "recover_s": statistics.median(durations),
        "replayed_ops": int(recovered.n_replayed),
        "accuracy": float(np.mean(labels == setup.data.test_labels)),
        "gate_s": time.perf_counter() - began,
    }
