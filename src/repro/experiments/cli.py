"""Command-line entry point for the experiment drivers.

Examples::

    hedgecut-experiments table1
    hedgecut-experiments figure3 --scale 0.05 --trees 20 --repeats 3
    hedgecut-experiments all --scale 0.02
    hedgecut-experiments figure5b --datasets income heart

Besides the table/figure drivers, two operational commands manage a
durable model store (:mod:`repro.persistence`)::

    hedgecut-experiments snapshot --store ./hedgecut-store --datasets income
    hedgecut-experiments recover --store ./hedgecut-store

and ``serve`` drives a live deployment with a mixed workload, either
in-process or as a shared-memory reader fleet::

    hedgecut-experiments serve --serving shm --readers 4 --datasets income
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro.datasets.registry import available_datasets
from repro.experiments import (
    figure1,
    figure3,
    figure4a,
    figure4b,
    figure4c,
    figure5,
    figure6,
    greedy_validation,
    table1,
    table2,
    vectorisation,
)
from repro.experiments.config import ExperimentConfig


def _render(result) -> str:
    """Format a driver result: its table plus, when available, the ASCII
    rendering of the corresponding paper figure."""
    parts = [result.format_table()]
    figure = getattr(result, "format_figure", None)
    if figure is not None:
        parts.append("")
        parts.append(figure())
    return "\n".join(parts)


def _run_table1(config: ExperimentConfig) -> str:
    return table1.dataset_statistics().format_table()


def _run_greedy(config: ExperimentConfig) -> str:
    return greedy_validation.run(seed=config.seed).format_table()


def _run_figure1(config: ExperimentConfig) -> str:
    return figure1.run(config).format_table()


def _run_figure3(config: ExperimentConfig) -> str:
    return _render(figure3.run(config))


def _run_table2(config: ExperimentConfig) -> str:
    return table2.run(config).format_table()


def _run_figure4a(config: ExperimentConfig) -> str:
    return figure4a.run(config).format_table()


def _run_figure4b(config: ExperimentConfig) -> str:
    return _render(figure4b.run(config))


def _run_figure4c(config: ExperimentConfig) -> str:
    return _render(figure4c.run(config))


def _run_vectorisation(config: ExperimentConfig) -> str:
    return vectorisation.run(seed=config.seed).format_table()


def _run_figure5ab(config: ExperimentConfig) -> str:
    return _render(figure5.run_b_sweep(config))


def _run_figure5cd(config: ExperimentConfig) -> str:
    return _render(figure5.run_epsilon_sweep(config))


def _run_figure6a(config: ExperimentConfig) -> str:
    return figure6.run_non_robust_fraction(config).format_table()


def _run_figure6b(config: ExperimentConfig) -> str:
    return figure6.run_split_switches(config).format_table()


EXPERIMENTS: dict[str, Callable[[ExperimentConfig], str]] = {
    "table1": _run_table1,
    "greedy-validation": _run_greedy,
    "figure1": _run_figure1,
    "figure3": _run_figure3,
    "table2": _run_table2,
    "figure4a": _run_figure4a,
    "figure4b": _run_figure4b,
    "figure4c": _run_figure4c,
    "vectorisation": _run_vectorisation,
    "figure5ab": _run_figure5ab,
    "figure5cd": _run_figure5cd,
    "figure6a": _run_figure6a,
    "figure6b": _run_figure6b,
}


def _run_sharded_snapshot(config: ExperimentConfig, store_path: str) -> str:
    """Train a sharded model on the first dataset and snapshot every shard."""
    from repro.datasets.registry import load_dataset
    from repro.sharding.model import ShardedHedgeCut
    from repro.sharding.store import ShardedModelStore

    name = config.datasets[0]
    dataset = load_dataset(name, n_rows=config.rows_for(name), seed=config.seed)
    model = ShardedHedgeCut(
        n_shards=config.shards,
        n_trees=config.n_trees,
        epsilon=config.epsilon,
        max_tries_per_split=config.max_tries_per_split,
        seed=config.seed,
    ).fit(dataset)
    with ShardedModelStore(store_path, n_shards=config.shards) as store:
        infos = store.save_snapshots(model)
    stats = model.partition_stats
    lines = [
        f"sharded snapshots written: {store_path} ({config.shards} shards)",
        f"  dataset          {name} ({dataset.n_rows} rows)",
        f"  trees            {model.n_trees} total "
        f"({model.n_trees // config.shards} per shard)",
        f"  partition        sizes {stats.shard_sizes} "
        f"(imbalance {stats.imbalance:.3f})",
    ]
    for shard_id, info in enumerate(infos):
        lines.append(
            f"  shard {shard_id:<4}      {info.n_nodes} nodes, "
            f"{info.size_bytes} bytes, sha256:{info.checksum[:12]}…"
        )
    return "\n".join(lines)


def _run_sharded_recover(store_path: str) -> str:
    """Recover a sharded service from its per-shard snapshots + WAL tails."""
    from repro.sharding.store import ShardedModelStore

    with ShardedModelStore(store_path) as store:
        recovered = store.recover()
    model = recovered.model
    lines = [
        f"recovered sharded service from: {store_path}",
        f"  shards           {model.n_shards}",
        f"  trees            {model.n_trees} total",
        f"  trained on       {model.n_trained_on} rows",
        f"  unlearned        {model.n_unlearned}",
        f"  wal seqs         {recovered.wal_seqs} "
        f"({recovered.n_replayed} replayed, "
        f"{recovered.n_replay_failures} replay failures)",
    ]
    return "\n".join(lines)


def _run_snapshot(config: ExperimentConfig, store_path: str) -> str:
    """Train a model on the first configured dataset and snapshot it."""
    from repro.core.ensemble import HedgeCutClassifier
    from repro.datasets.registry import load_dataset
    from repro.persistence.store import ModelStore

    if config.shards > 1:
        return _run_sharded_snapshot(config, store_path)
    name = config.datasets[0]
    dataset = load_dataset(name, n_rows=config.rows_for(name), seed=config.seed)
    model = HedgeCutClassifier(
        n_trees=config.n_trees,
        epsilon=config.epsilon,
        max_tries_per_split=config.max_tries_per_split,
        seed=config.seed,
    ).fit(dataset)
    with ModelStore(store_path) as store:
        info = store.save_snapshot(model, wal_seq=store.wal.last_seq)
    census = model.node_census()
    return "\n".join(
        [
            f"snapshot written: {info.path}",
            f"  dataset          {name} ({dataset.n_rows} rows)",
            f"  trees            {info.n_trees}",
            f"  nodes            {info.n_nodes} ({census.n_maintenance_nodes} maintenance)",
            f"  variants         {info.n_variants}",
            f"  wal seq          {info.wal_seq}",
            f"  size             {info.size_bytes} bytes",
            f"  checksum         sha256:{info.checksum[:16]}…",
        ]
    )


def _run_recover(store_path: str) -> str:
    """Recover the latest state from a model store and summarise it.

    Sharded stores are detected by their manifest, so ``recover`` needs no
    ``--shards`` flag: the routing is part of the durable state.
    """
    from repro.persistence.store import ModelStore
    from repro.sharding.store import ShardedModelStore

    if ShardedModelStore.exists(store_path):
        return _run_sharded_recover(store_path)
    with ModelStore(store_path) as store:
        recovered = store.recover()
    model = recovered.model
    census = model.node_census()
    snapshot = recovered.snapshot
    lines = [
        f"recovered from: {snapshot.path if snapshot else '<none>'}",
        f"  trees            {len(model.trees)}",
        f"  nodes            {census.n_nodes} ({census.n_maintenance_nodes} maintenance)",
        f"  trained on       {model.n_trained_on} rows",
        f"  unlearned        {model.n_unlearned} of budget {model.deletion_budget}",
        f"  wal seq          {recovered.wal_seq} "
        f"({recovered.n_replayed} replayed, {recovered.n_replay_failures} replay failures)",
    ]
    if recovered.skipped_snapshots:
        lines.append(
            f"  skipped corrupt  {', '.join(str(p) for p in recovered.skipped_snapshots)}"
        )
    return "\n".join(lines)


def _run_serve(config: ExperimentConfig, args) -> str:
    """Drive a serving deployment with a mixed predict/unlearn workload.

    ``--serving inprocess`` runs the GIL-bound replicated engine,
    ``--serving shm`` the shared-memory reader fleet (``--readers``
    processes attached to one packed ensemble). Identical seeds produce
    identical request schedules, so the two modes are directly comparable.
    """
    import itertools
    import tempfile

    from repro.core.ensemble import HedgeCutClassifier
    from repro.datasets.registry import load_dataset
    from repro.persistence.store import ModelStore
    from repro.serving.engine import ReplicatedServingEngine
    from repro.serving.shm import ShmReplicatedServingEngine
    from repro.serving.simulator import RequestMix, ServingSimulator

    name = config.datasets[0]
    dataset = load_dataset(name, n_rows=config.rows_for(name), seed=config.seed)
    model = HedgeCutClassifier(
        n_trees=config.n_trees,
        epsilon=config.epsilon,
        max_tries_per_split=config.max_tries_per_split,
        seed=config.seed,
    ).fit(dataset)
    unlearn_pool = [dataset.record(row) for row in range(args.requests)]

    with tempfile.TemporaryDirectory(prefix="hedgecut-serve-") as tmp:
        store = ModelStore(f"{tmp}/store")
        if args.serving == "shm":
            engine = ShmReplicatedServingEngine(
                model, store, n_readers=args.readers,
                consistency=args.consistency,
            )
        else:
            engine = ReplicatedServingEngine(
                model, store, n_replicas=args.readers,
                consistency=args.consistency,
            )
        request_ids = (f"sim-{seq}" for seq in itertools.count(1))

        def unlearn(record):
            return engine.unlearn(
                next(request_ids), record, allow_budget_overrun=True
            )

        with engine:
            simulator = ServingSimulator(
                engine.predict_rows,
                unlearn,
                prediction_pool=dataset,
                unlearn_pool=unlearn_pool,
                seed=config.seed,
                record_latencies=True,
                batch_size=args.batch,
            )
            report = simulator.run(
                RequestMix(
                    n_requests=args.requests,
                    unlearn_fraction=args.unlearn_fraction,
                )
            )
            lines = [
                f"serving mode     {args.serving} "
                f"({args.readers} {'readers' if args.serving == 'shm' else 'replicas'}, "
                f"{args.consistency})",
                f"  dataset          {name} ({dataset.n_rows} rows)",
                f"  requests         {args.requests} "
                f"({report.n_unlearnings} unlearnings, batch {args.batch})",
                f"  throughput       {report.rows_per_second:,.0f} predictions/s "
                f"({report.n_batches} dispatches)",
                f"  batch p50        {report.latency_percentile(50, 'batch'):,.0f} us",
            ]
            if report.unlearning_latencies_us:
                lines.append(
                    f"  unlearn p50      "
                    f"{report.latency_percentile(50, 'unlearning'):,.0f} us"
                )
            if args.serving == "shm":
                stats = engine.reader_stats()
                retries = sum(s["seqlock_retries"] for s in stats)
                lines.append(
                    f"  fleet            pids "
                    f"{[s['pid'] for s in stats]}, "
                    f"{sum(s['n_reads'] for s in stats)} reads, "
                    f"{retries} seqlock retries, "
                    f"{engine.reader_respawns} respawns"
                )
    return "\n".join(lines)


#: Operational (non-experiment) commands accepted by the CLI.
COMMANDS = ("snapshot", "recover", "serve")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hedgecut-experiments",
        description="Regenerate the tables and figures of the HedgeCut paper.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all", *COMMANDS],
        help="which table/figure to regenerate ('all' runs every one), or an "
        "operational command: 'snapshot' trains a model and persists it to "
        "--store, 'recover' rebuilds the latest state from --store",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.02,
        help="fraction of the paper's dataset sizes to use (1.0 = full scale)",
    )
    parser.add_argument("--trees", type=int, default=8, help="ensemble size")
    parser.add_argument("--repeats", type=int, default=3, help="runs per measurement")
    parser.add_argument("--seed", type=int, default=42, help="base random seed")
    parser.add_argument(
        "--datasets",
        nargs="+",
        choices=available_datasets(),
        default=None,
        help="subset of datasets (default: all five)",
    )
    parser.add_argument(
        "--store",
        default="hedgecut-store",
        help="model-store directory for the snapshot/recover commands",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="SISA shard count for the snapshot command (1 = unsharded; "
        "recover detects shardedness from the store manifest)",
    )
    parser.add_argument(
        "--serving",
        choices=["inprocess", "shm"],
        default="inprocess",
        help="deployment mode for the serve command: 'inprocess' replicates "
        "the model inside one process, 'shm' serves one shared-memory "
        "packed ensemble from --readers reader processes",
    )
    parser.add_argument(
        "--readers",
        type=int,
        default=2,
        help="reader processes (shm) or replicas (inprocess) for serve",
    )
    parser.add_argument(
        "--consistency",
        choices=["strong", "read_your_deletes", "eventual"],
        default="strong",
        help="read-consistency mode for the serve command",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=2000,
        help="workload size for the serve command",
    )
    parser.add_argument(
        "--unlearn-fraction",
        type=float,
        default=0.01,
        help="fraction of serve requests that are deletions",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=64,
        help="prediction micro-batch size for the serve command",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = ExperimentConfig(
        scale=args.scale,
        n_trees=args.trees,
        repeats=args.repeats,
        seed=args.seed,
        datasets=tuple(args.datasets) if args.datasets else available_datasets(),
        shards=args.shards,
    )
    if args.experiment in COMMANDS:
        print(f"== {args.experiment} ==", flush=True)
        if args.experiment == "snapshot":
            print(_run_snapshot(config, args.store))
        elif args.experiment == "serve":
            print(_run_serve(config, args))
        else:
            print(_run_recover(args.store))
        return 0
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(f"== {name} ==", flush=True)
        print(EXPERIMENTS[name](config))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
