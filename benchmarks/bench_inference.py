"""Inference benchmark: the native traversal kernel over the packed ensemble.

Measures, on the largest registry dataset (credit):

* single-record prediction latency (p50/p99) through ``predict``,
* micro-batch and full-batch prediction throughput of ``predict_rows``,
  and
* the same batch throughput *after* an unlearning campaign, demonstrating
  that deletions keep the pack valid (O(1) leaf write-through, no rebuild).

Before reporting it asserts that per-record and batch reads agree, and
that both match the pure-Python ``walk_one`` reference bit for bit on a
sample of rows. Results land in ``BENCH_inference.json`` (machine-readable;
committed alongside the code). Run via ``make bench-inference``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.ensemble import HedgeCutClassifier
from repro.core.packed import walk_one
from repro.datasets.registry import load_dataset
from repro.evaluation.splits import train_test_split


def _percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


def _time_batches(fn, batches, repeats: int) -> float:
    """Best-of-``repeats`` wall time of running ``fn`` over every batch."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for batch in batches:
            fn(batch)
        best = min(best, time.perf_counter() - start)
    return best


def _batch_throughput(
    model: HedgeCutClassifier, test, batch_size: int, repeats: int
) -> dict:
    """Packed-kernel rows/sec at one batch size over the test set."""
    matrix = test.feature_matrix()
    n_rows = test.n_rows
    batches = [
        matrix[start:min(start + batch_size, n_rows)]
        for start in range(0, n_rows, batch_size)
    ]
    model.predict_rows(batches[0])  # warm the pack
    seconds = _time_batches(model.predict_rows, batches, repeats)
    return {
        "batch_size": batch_size,
        "n_rows": n_rows,
        "packed_rows_per_sec": n_rows / seconds,
    }


def _single_record_latency(model: HedgeCutClassifier, test, n_samples: int) -> dict:
    records = list(test.records(range(min(n_samples, test.n_rows))))
    model.predict(records[0])  # warm
    latencies = []
    for record in records:
        start = time.perf_counter()
        model.predict(record)
        latencies.append((time.perf_counter() - start) * 1e6)
    return {
        "n_samples": len(records),
        "p50_us": _percentile(latencies, 50),
        "p99_us": _percentile(latencies, 99),
    }


def _reference_probas(model: HedgeCutClassifier, matrix: np.ndarray) -> np.ndarray:
    """Probabilities from the pure-Python ``walk_one`` reference walk."""
    arrays = model.packed.arrays()
    n_trees = len(model.trees)
    out = np.empty(matrix.shape[0])
    for row, values in enumerate(matrix.tolist()):
        total = 0.0
        for tree in range(n_trees):
            leaf = walk_one(arrays, values, tree)
            n, n_plus = int(arrays.leaf_n[leaf]), int(arrays.leaf_n_plus[leaf])
            total += n_plus / n if n > 0 else 0.5
        out[row] = total / n_trees
    return out


def _check_equivalence(model: HedgeCutClassifier, test) -> dict:
    matrix = test.feature_matrix()
    records = list(test.records(range(test.n_rows)))
    scalar_labels = np.asarray([model.predict(r) for r in records], dtype=np.uint8)
    scalar_probas = np.asarray([model.predict_proba(r) for r in records])
    batch_probas = model.predict_proba_rows(matrix)
    sample = np.arange(0, test.n_rows, 10)
    return {
        "labels_identical": bool(
            np.array_equal(scalar_labels, model.predict_rows(matrix))
        ),
        "probas_bitwise_identical": bool(
            np.array_equal(scalar_probas, batch_probas)
        ),
        "reference_rows_checked": int(sample.shape[0]),
        "matches_walk_one_reference": bool(
            np.array_equal(batch_probas[sample], _reference_probas(model, matrix[sample]))
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="credit")
    parser.add_argument("--n-rows", type=int, default=40000)
    parser.add_argument("--n-trees", type=int, default=8)
    parser.add_argument("--epsilon", type=float, default=0.005)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--micro-batch", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--n-unlearn", type=int, default=200)
    parser.add_argument(
        "--output", type=Path, default=Path(__file__).parent.parent / "BENCH_inference.json"
    )
    args = parser.parse_args()

    data = load_dataset(args.dataset, n_rows=args.n_rows, seed=3)
    train, test = train_test_split(data, test_fraction=0.2, seed=3)
    print(f"fitting {args.n_trees} trees on {train.n_rows} {args.dataset} rows ...")
    model = HedgeCutClassifier(
        n_trees=args.n_trees, epsilon=args.epsilon, seed=args.seed
    ).fit(train)

    equivalence = _check_equivalence(model, test)
    assert equivalence["labels_identical"], "packed labels diverged"
    assert equivalence["probas_bitwise_identical"], "packed probabilities diverged"
    assert equivalence["matches_walk_one_reference"], "kernel diverged from walk_one"

    single = _single_record_latency(model, test, n_samples=2000)
    micro = _batch_throughput(model, test, args.micro_batch, args.repeats)
    full = _batch_throughput(model, test, test.n_rows, args.repeats)

    print(f"unlearning {args.n_unlearn} training records ...")
    victims = list(train.records(range(args.n_unlearn)))
    for record in victims:
        model.unlearn(record, allow_budget_overrun=True)

    equivalence_after = _check_equivalence(model, test)
    assert equivalence_after["labels_identical"], "packed labels diverged post-campaign"
    assert equivalence_after["matches_walk_one_reference"], (
        "kernel diverged from walk_one post-campaign"
    )
    micro_after = _batch_throughput(model, test, args.micro_batch, args.repeats)
    full_after = _batch_throughput(model, test, test.n_rows, args.repeats)

    result = {
        "benchmark": "native packed ensemble inference",
        "config": {
            "dataset": args.dataset,
            "n_rows": args.n_rows,
            "train_rows": train.n_rows,
            "test_rows": test.n_rows,
            "n_trees": args.n_trees,
            "epsilon": args.epsilon,
            "seed": args.seed,
            "micro_batch": args.micro_batch,
            "repeats": args.repeats,
            "n_unlearned": args.n_unlearn,
        },
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "model": {
            "n_slots": model.packed.n_slots,
            "n_leaves": model.packed.n_leaves,
        },
        "equivalence": equivalence,
        "equivalence_after_unlearning": equivalence_after,
        "single_record": single,
        "micro_batch": micro,
        "full_batch": full,
        "after_unlearning": {
            "micro_batch": micro_after,
            "full_batch": full_after,
        },
    }
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"\nwrote {args.output}")
    print(
        f"headline: single-record p50 {single['p50_us']:.1f} us, "
        f"{micro['packed_rows_per_sec']:,.0f} rows/s at batch {args.micro_batch}"
    )


if __name__ == "__main__":
    main()
