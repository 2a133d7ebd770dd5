"""Shared configuration for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.datasets.registry import DATASETS, available_datasets

#: Smallest dataset sample any experiment runs on.
MIN_ROWS = 400


@dataclass(frozen=True)
class ExperimentConfig:
    """Workload scaling knobs shared by every experiment driver.

    Attributes:
        scale: fraction of each dataset's full (Table 1) row count to use.
            ``1.0`` reproduces the paper's sizes; the defaults keep a full
            experiment run in the minutes range on a single core.
        n_trees: ensemble size for HedgeCut and the ensemble baselines (the
            paper uses 100; the relative comparisons are tree-count
            invariant because every method pays per tree).
        repeats: repeated runs per measurement (mean/std reporting).
        seed: base seed; run ``i`` derives its seed deterministically.
        datasets: datasets to include, in Table 1 order.
        epsilon: unlearnable fraction (paper sweet spot 0.1%).
        max_tries_per_split: ``B`` (paper sweet spot 5).
        shards: SISA shard count for the operational commands; ``1`` keeps
            the unsharded model, larger values train a
            :class:`~repro.sharding.model.ShardedHedgeCut` (``n_trees``
            must divide evenly across the shards).
    """

    scale: float = 0.02
    n_trees: int = 8
    repeats: int = 3
    seed: int = 42
    datasets: tuple[str, ...] = field(default_factory=available_datasets)
    epsilon: float = 0.001
    max_tries_per_split: int = 5
    shards: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        if self.n_trees < 1:
            raise ValueError("n_trees must be positive")
        if self.repeats < 1:
            raise ValueError("repeats must be positive")
        unknown = set(self.datasets) - set(DATASETS)
        if unknown:
            raise ValueError(f"unknown datasets: {sorted(unknown)}")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.n_trees % self.shards != 0:
            raise ValueError(
                f"n_trees ({self.n_trees}) must be divisible by shards "
                f"({self.shards})"
            )

    def rows_for(self, dataset_name: str) -> int:
        """Scaled row count of one dataset, bounded below by ``MIN_ROWS``."""
        full = DATASETS[dataset_name].default_n_rows
        return max(MIN_ROWS, int(round(full * self.scale)))

    def run_seed(self, run_index: int, salt: int = 0) -> int:
        """Deterministic per-run seed."""
        return self.seed + 1000 * salt + run_index

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """A copy with some fields replaced."""
        return replace(self, **overrides)


#: Configuration the benchmark suite uses (fast, shape-preserving).
QUICK = ExperimentConfig()

#: Configuration approximating the paper's full settings. Expect long
#: runtimes: the substrate is single-threaded Python, not Rust.
PAPER = ExperimentConfig(scale=1.0, n_trees=100, repeats=10)
