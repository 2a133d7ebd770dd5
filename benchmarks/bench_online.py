"""Online mixed-stream benchmark: deferred vs eager maintenance.

Measures, on the largest registry dataset (credit), the claim behind the
DynFrs-style deferred-maintenance mode: on a sustained interleaved
insert/delete/predict stream, tagging maintenance nodes and re-scoring
lazily at read time sustains **at least 2x** the deletion throughput of
the eager write path, while staying *observably identical* -- deferred
plus a flush lands on the bit-identical model state.

Protocol:

* **Equivalence first, timing second.** Before anything is timed, a
  mixed schedule of single deletions, group-committed deletion batches
  and insertions runs through an eager twin and a deferred twin of the
  same fitted model; the run asserts the flushed deferred model's
  probabilities are bit-identical to the eager twin's over the full test
  matrix and that both accumulated the same cumulative variant-switch
  count.
* **Crash recovery mid-deferral.** A model with re-scores still pending
  is "crashed" (snapshot + WAL tail survive, the pending tag log does
  not); recovery replays the mixed tail eagerly and must land
  bit-identical to the live model after it flushes.
* **Throughput.** The same interleaved workload
  (:class:`~repro.serving.simulator.OnlineServingSimulator`) then runs
  against fresh eager and deferred twins with identical request
  schedules. Deletions/second is measured over the time spent inside the
  deletion calls; the deferred run additionally records one
  flush-latency and one staleness sample per prediction dispatch, the
  raw points of the accuracy-vs-staleness curve.

The maintenance-heavy configuration (``epsilon=0.002``, many
non-robust splits) is the regime the optimisation is *for*: the more
maintenance nodes a deletion touches, the more re-scoring the eager path
pays per write and the deferred path postpones.

Run via ``make bench-online``; ``--smoke`` runs a seconds-scale variant
that prints but does not overwrite ``BENCH_online.json``.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import pickle
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.ensemble import HedgeCutClassifier
from repro.datasets.registry import DATASETS, load_dataset
from repro.evaluation.splits import train_test_split
from repro.persistence.store import ModelStore
from repro.serving.simulator import OnlineMix, OnlineServingSimulator

#: Deferred deletion throughput vs eager, interleaved. In-place span
#: splicing removed the whole-tree repack from *eager* variant switches
#: too, so deferred's edge narrowed from ~2.5x to the amortisation of
#: re-scoring alone; the bar now guards against deferral becoming a
#: pessimisation, and the flush tail-latency bar below is the headline.
MIN_DEFERRED_SPEEDUP = 1.05

#: Flush tail-latency bar (microseconds): with in-place span splicing a
#: flush that switches variants rewrites one reserved span instead of
#: reassembling the tree, so the p99 must stay in sub-millisecond country.
MAX_FLUSH_P99_US = 1500.0


def _mixed_schedule(train, n_ops: int, batch: int = 8):
    """A fixed insert/single-delete/batch-delete schedule over train rows."""
    ops = []
    delete_row = 0
    insert_row = train.n_rows - 1
    for step in range(n_ops):
        if step % 5 == 3:
            ops.append(("insert", [train.record(insert_row)]))
            insert_row -= 1
        elif step % 7 == 5:
            records = [train.record(delete_row + offset) for offset in range(batch)]
            delete_row += batch
            ops.append(("delete_batch", records))
        else:
            ops.append(("delete", [train.record(delete_row)]))
            delete_row += 1
    return ops


def assert_equivalence(base, train, matrix: np.ndarray, n_ops: int) -> dict:
    """deferred + flush == eager, bit-for-bit, before any timing runs."""
    twins = {}
    switches = {}
    for mode in ("eager", "deferred"):
        model = copy.deepcopy(base)
        model.maintenance = mode
        model.flush_on_predict = False
        _ = model.packed  # writes go through the in-place splice path
        total = 0
        for kind, records in _mixed_schedule(train, n_ops):
            if kind == "insert":
                total += model.learn_one(records[0]).variant_switches
            elif kind == "delete":
                total += model.unlearn(
                    records[0], allow_budget_overrun=True
                ).variant_switches
            else:
                total += model.unlearn_batch(
                    records, allow_budget_overrun=True
                ).variant_switches
        total += model.flush_maintenance().variant_switches
        twins[mode] = model
        switches[mode] = total
    eager_proba = twins["eager"].predict_proba_rows(matrix)
    deferred_proba = twins["deferred"].predict_proba_rows(matrix)
    assert np.array_equal(deferred_proba, eager_proba), (
        "deferred + flush diverged from the eager model"
    )
    assert switches["deferred"] == switches["eager"], (
        f"cumulative switch counts diverged: deferred={switches['deferred']} "
        f"eager={switches['eager']}"
    )
    # The campaign above switched variants through in-place span splices;
    # the spliced pack must carry zero residue of the old variants. A
    # pickle roundtrip rebuilds the pack from scratch over the same trees
    # (the "full repack" the splice replaced) -- every flat array must
    # match bit for bit before any timing runs.
    for mode, model in twins.items():
        spliced = model.packed.arrays()
        fresh = pickle.loads(pickle.dumps(model.packed)).arrays()
        for field in spliced.FIELDS:
            assert np.array_equal(
                getattr(spliced, field), getattr(fresh, field)
            ), f"{mode}: spliced pack diverged from a full repack in {field}"
    return {
        "checked_rows": int(matrix.shape[0]),
        "bit_identical": True,
        "splice_equals_full_repack": True,
        "n_ops": n_ops,
        "variant_switches": switches["eager"],
    }


def assert_crash_recovery(base, train, matrix: np.ndarray, n_ops: int) -> dict:
    """Recovery of a crash mid-deferral == the live flushed model."""
    live = copy.deepcopy(base)
    live.maintenance = "deferred"
    live.flush_on_predict = False
    schedule = _mixed_schedule(train, n_ops, batch=1)
    with tempfile.TemporaryDirectory(prefix="hedgecut-bench-online-") as tmp:
        with ModelStore(Path(tmp) / "store") as store:
            store.save_snapshot(copy.deepcopy(base), wal_seq=0)
            for kind, records in schedule:
                if kind == "insert":
                    store.wal.append_insertion(records[0], request_id="ins")
                    live.learn_one(records[0])
                else:
                    store.wal.append(
                        records[0], request_id="del", allow_budget_overrun=True
                    )
                    live.unlearn(records[0], allow_budget_overrun=True)
            pending = live.pending_maintenance_visits
            assert pending > 0, "crash scenario must be mid-deferral"
            # Crash: the pending tag log dies with the process.
        recovered = ModelStore(Path(tmp) / "store").recover()
    live.flush_maintenance()
    assert np.array_equal(
        recovered.model.predict_proba_rows(matrix),
        live.predict_proba_rows(matrix),
    ), "recovered model diverged from the live flushed model"
    return {
        "bit_identical": True,
        "n_replayed": recovered.n_replayed,
        "pending_visits_at_crash": pending,
    }


def run_workload(base, mode: str, test, delete_pool, insert_pool, mix, seed) -> dict:
    model = copy.deepcopy(base)
    model.maintenance = mode
    model.flush_on_predict = False  # the simulator owns (and times) flushes
    # Warm the packed form and the write pack: the one-time build is a
    # deployment cost, not part of steady-state request latency.
    _ = model.packed.unlearn_pack()
    model.predict_rows(test.feature_matrix()[:1])
    simulator = OnlineServingSimulator(
        model,
        test,
        delete_pool=delete_pool,
        insert_pool=insert_pool,
        seed=seed,
        batch_size=64,
    )
    report = simulator.run(mix)
    result = {
        "n_predictions": report.n_predictions,
        "n_deletions": report.n_deletions,
        "n_insertions": report.n_insertions,
        "deletions_per_sec": report.deletions_per_second,
        "insertions_per_sec": report.insertions_per_second,
        "prediction_rows_per_sec": report.rows_per_second,
        "total_seconds": report.total_seconds,
        "flush_seconds": report.flush_seconds,
        "n_flushes": len(report.flush_latencies_us),
        "flush_p50_us": report.flush_percentile(50),
        "flush_p99_us": report.flush_percentile(99),
        "staleness_max_visits": int(max(report.staleness_samples)),
        "staleness_mean_visits": float(np.mean(report.staleness_samples)),
        "accuracy_vs_staleness": [
            [int(staleness), float(accuracy)]
            for staleness, accuracy in report.accuracy_curve
        ],
    }
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", choices=sorted(DATASETS), default="credit")
    parser.add_argument("--n-rows", type=int, default=32_000)
    parser.add_argument("--n-trees", type=int, default=8)
    parser.add_argument(
        "--epsilon",
        type=float,
        default=0.002,
        help="robustness threshold; low values maximise maintenance nodes, "
        "the regime deferred maintenance targets",
    )
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--n-requests", type=int, default=8000)
    parser.add_argument("--delete-fraction", type=float, default=0.25)
    parser.add_argument("--insert-fraction", type=float, default=0.05)
    parser.add_argument("--equivalence-ops", type=int, default=400)
    parser.add_argument("--recovery-ops", type=int, default=60)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-scale run (4000 rows, 1200 requests); prints the "
        "result but leaves BENCH_online.json untouched unless --output is "
        "given, and relaxes the speedup bar to an anti-collapse floor",
    )
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args()

    bar = MIN_DEFERRED_SPEEDUP
    if args.smoke:
        args.n_rows = min(args.n_rows, 4000)
        args.n_requests = min(args.n_requests, 1200)
        args.equivalence_ops = min(args.equivalence_ops, 120)
        args.recovery_ops = min(args.recovery_ops, 30)
        bar = 1.0
    output = args.output
    if output is None and not args.smoke:
        output = Path(__file__).parent.parent / "BENCH_online.json"

    data = load_dataset(args.dataset, n_rows=args.n_rows, seed=3)
    train, test = train_test_split(data, test_fraction=0.2, seed=3)
    matrix = test.feature_matrix()

    print(
        f"[{args.dataset}] {train.n_rows} train rows, {args.n_trees} trees, "
        f"epsilon={args.epsilon}"
    )
    fit_start = time.perf_counter()
    base = HedgeCutClassifier(
        n_trees=args.n_trees, epsilon=args.epsilon, seed=args.seed
    ).fit(train)
    fit_seconds = time.perf_counter() - fit_start
    census = base.node_census()
    print(
        f"fitted in {fit_seconds:.1f}s, "
        f"{census.n_maintenance_nodes} maintenance nodes"
    )

    equivalence = assert_equivalence(base, train, matrix, args.equivalence_ops)
    print(
        f"equivalence: deferred + flush == eager over {equivalence['n_ops']} "
        f"mixed ops ({equivalence['variant_switches']} switches), bit-identical"
    )
    recovery = assert_crash_recovery(base, train, matrix, args.recovery_ops)
    print(
        f"crash recovery: replayed {recovery['n_replayed']} ops past a crash "
        f"with {recovery['pending_visits_at_crash']} pending visits, "
        "bit-identical"
    )

    mix = OnlineMix(
        n_requests=args.n_requests,
        delete_fraction=args.delete_fraction,
        insert_fraction=args.insert_fraction,
    )
    n_deletes = int(args.n_requests * args.delete_fraction) + 1
    n_inserts = int(args.n_requests * args.insert_fraction) + 1
    # Disjoint pools: deletions take training rows from the front, the
    # equivalence/recovery phases used none of this model copy's budget.
    delete_pool = [train.record(row) for row in range(n_deletes)]
    insert_pool = [
        train.record(train.n_rows - 1 - row) for row in range(n_inserts)
    ]

    results = {}
    for mode in ("eager", "deferred"):
        results[mode] = run_workload(
            base, mode, test, delete_pool, insert_pool, mix, args.seed
        )
        print(
            f"{mode}: {results[mode]['deletions_per_sec']:.0f} deletions/s, "
            f"{results[mode]['n_flushes']} flushes "
            f"(p50 {results[mode]['flush_p50_us']:.0f}us, "
            f"p99 {results[mode]['flush_p99_us']:.0f}us), "
            f"max staleness {results[mode]['staleness_max_visits']} visits"
        )

    ratio = (
        results["deferred"]["deletions_per_sec"]
        / results["eager"]["deletions_per_sec"]
    )
    print(f"deferred/eager deletion throughput: {ratio:.2f}x (bar {bar}x)")
    assert ratio >= bar, (
        f"deferred maintenance sustained only {ratio:.2f}x eager deletion "
        f"throughput (bar {bar}x)"
    )
    flush_p99 = results["deferred"]["flush_p99_us"]
    print(f"deferred flush p99: {flush_p99:.0f}us (bar {MAX_FLUSH_P99_US:.0f}us)")
    assert flush_p99 <= MAX_FLUSH_P99_US, (
        f"deferred flush p99 {flush_p99:.0f}us exceeds "
        f"{MAX_FLUSH_P99_US:.0f}us -- variant switches are repacking whole "
        "trees instead of splicing reserved spans"
    )

    artefact = {
        "benchmark": "online-deferred-maintenance",
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "dataset": args.dataset,
            "n_rows": args.n_rows,
            "train_rows": train.n_rows,
            "n_trees": args.n_trees,
            "epsilon": args.epsilon,
            "seed": args.seed,
            "n_requests": args.n_requests,
            "delete_fraction": args.delete_fraction,
            "insert_fraction": args.insert_fraction,
            "maintenance_nodes": census.n_maintenance_nodes,
            "fit_seconds": fit_seconds,
        },
        "equivalence": equivalence,
        "crash_recovery": recovery,
        "eager": results["eager"],
        "deferred": results["deferred"],
        "deferred_speedup": ratio,
        "speedup_bar": bar,
        "flush_p99_bar_us": MAX_FLUSH_P99_US,
    }
    if output is not None:
        output.write_text(json.dumps(artefact, indent=2) + "\n")
        print(f"wrote {output}")


if __name__ == "__main__":
    main()
