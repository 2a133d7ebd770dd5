"""Table 2: prediction throughput with and without mixed-in unlearning.

The paper serves 100,000 prediction requests from each deployed model,
repeats the workload with unlearning requests for 0.1% of the training
records mixed in (replacing randomly selected prediction slots), and shows
via a two-sample Kolmogorov-Smirnov test that the throughput distributions
are indistinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.evaluation.stats import RunStats, same_distribution, summarize
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_table
from repro.experiments.runner import make_hedgecut, prepare
from repro.serving.simulator import RequestMix, ServingSimulator


@dataclass(frozen=True)
class Table2Row:
    dataset: str
    predictions_per_second: RunStats
    predictions_per_second_with_unlearning: RunStats
    ks_indistinguishable: bool
    ks_p_value: float
    batched_rows_per_second: RunStats | None = None


@dataclass(frozen=True)
class Table2Result:
    rows: tuple[Table2Row, ...]

    def format_table(self) -> str:
        batched = any(row.batched_rows_per_second is not None for row in self.rows)
        headers = [
            "dataset",
            "predictions/sec",
            "predictions/sec with unlearning",
            "KS same distribution",
        ]
        if batched:
            headers.insert(3, "batched rows/sec")
        formatted = []
        for row in self.rows:
            cells = [
                row.dataset,
                row.predictions_per_second.format(0),
                row.predictions_per_second_with_unlearning.format(0),
                f"yes (p={row.ks_p_value:.2f})"
                if row.ks_indistinguishable
                else f"NO (p={row.ks_p_value:.3f})",
            ]
            if batched:
                cells.insert(
                    3,
                    row.batched_rows_per_second.format(0)
                    if row.batched_rows_per_second is not None
                    else "-",
                )
            formatted.append(tuple(cells))
        return format_table(
            headers=tuple(headers),
            rows=formatted,
            title="Table 2: prediction throughput per dataset, without and with unlearning",
        )


def run(
    config: ExperimentConfig,
    n_requests: int = 2000,
    unlearn_fraction: float = 0.001,
    batch_size: int | None = None,
) -> Table2Result:
    """Measure serving throughput for both workload mixes.

    One model per dataset is trained and then serves ``config.repeats``
    workloads of each mix (pure prediction first, mixed second), matching
    the paper's ten repetitions per dataset.

    When ``batch_size`` is set, an extra batched workload per repeat
    measures the packed-kernel serving path (the micro-batching front end's
    dispatch size) and the table gains a ``batched rows/sec`` column.
    """
    rows = []
    for dataset_name in config.datasets:
        data = prepare(config, dataset_name, run_index=0)
        seed = config.run_seed(0, salt=5)
        model = make_hedgecut(config, seed)
        model.fit(data.train)

        rng = np.random.default_rng(seed)
        # Warm up the deployed model: the packed ensemble is built lazily
        # on first use, and the first workload would otherwise pay that
        # cost (which is exactly the kind of asymmetry the KS test then
        # flags as a spurious throughput difference).
        warmup = ServingSimulator(model, data.test, seed=seed, batch_size=batch_size)
        warmup.run(RequestMix(n_requests=min(200, n_requests)))

        pure: list[float] = []
        mixed: list[float] = []
        batched: list[float] = []
        # Alternate the two workload kinds so that slow environmental drift
        # (CPU frequency, cache state) averages out of the comparison.
        for repeat in range(config.repeats):
            simulator = ServingSimulator(
                model, data.test, unlearn_pool=None, seed=seed + repeat
            )
            report = simulator.run(RequestMix(n_requests=n_requests))
            pure.append(report.requests_per_second)

            n_deletions = max(1, int(round(n_requests * unlearn_fraction)))
            chosen = rng.choice(data.train.n_rows, size=n_deletions, replace=False)
            pool = [data.train.record(int(row)) for row in chosen]
            simulator = ServingSimulator(
                model, data.test, unlearn_pool=pool, seed=seed + 100 + repeat
            )
            report = simulator.run(
                RequestMix(n_requests=n_requests, unlearn_fraction=unlearn_fraction)
            )
            mixed.append(report.requests_per_second)

            if batch_size is not None:
                simulator = ServingSimulator(
                    model,
                    data.test,
                    unlearn_pool=None,
                    seed=seed + 200 + repeat,
                    batch_size=batch_size,
                )
                report = simulator.run(RequestMix(n_requests=n_requests))
                batched.append(report.rows_per_second)

        indistinguishable, p_value = same_distribution(pure, mixed)
        rows.append(
            Table2Row(
                dataset=dataset_name,
                predictions_per_second=summarize(pure),
                predictions_per_second_with_unlearning=summarize(mixed),
                ks_indistinguishable=indistinguishable,
                ks_p_value=p_value,
                batched_rows_per_second=summarize(batched) if batched else None,
            )
        )
    return Table2Result(rows=tuple(rows))
