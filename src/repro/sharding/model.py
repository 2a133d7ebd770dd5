"""SISA-style sharded HedgeCut: an ensemble of independent sub-ensembles.

:class:`ShardedHedgeCut` hash-partitions the training data across ``K``
independent :class:`~repro.core.ensemble.HedgeCutClassifier` instances
(the SISA pattern: Sharded, Isolated, Sliced, Aggregated). The total tree
budget is split evenly -- each shard trains ``n_trees / K`` trees on its
``~1/K`` of the data -- so:

* a deletion request touches **exactly one** shard, and that shard is a
  ``K``-times smaller model: deletion campaigns speed up roughly linearly
  in ``K`` even on one core, and parallelise trivially across cores;
* predictions aggregate over all ``n_trees`` trees exactly as in the
  unsharded model: hard-vote counts from the shards add before the single
  global majority threshold, and soft-vote probabilities average over the
  equally-sized shards;
* with ``K=1`` the single shard sees the full data in original order with
  the same seed and tree count, so the sharded model is **bit-identical**
  to the unsharded one (guaranteed by tests and asserted in-run by
  ``benchmarks/bench_sharding.py``).

The trade-off is the SISA trade-off: each shard generalises from ``1/K``
of the data, so accuracy degrades gracefully as ``K`` grows (reported by
the sharding benchmark).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.ensemble import HedgeCutClassifier
from repro.core.exceptions import NotFittedError
from repro.core.unlearning import UnlearningReport
from repro.dataprep.dataset import Dataset, Record
from repro.sharding.partitioner import HashPartitioner, PartitionStats

#: Multiplier decorrelating per-shard seeds; shard 0 keeps the base seed so
#: that ``K=1`` reproduces the unsharded model's random stream exactly.
_SHARD_SEED_STRIDE = 100_003


def _as_matrix(record: Record | Sequence[int] | np.ndarray) -> np.ndarray:
    values = record.values if isinstance(record, Record) else record
    return np.asarray(values, dtype=np.int64).reshape(1, -1)


class ShardedHedgeCut:
    """K independent HedgeCut sub-ensembles behind one model interface.

    Args:
        n_shards: number of shards ``K``.
        n_trees: **total** tree budget across all shards; must be divisible
            by ``n_shards`` (equal shards keep the soft-vote average equal
            to the global per-tree mean).
        partitioner_salt: salt of the hash partitioner (stable routing).
        seed: base seed; shard ``i`` trains with
            ``seed + i * _SHARD_SEED_STRIDE`` (shard 0 = ``seed``).
        **model_kwargs: forwarded to every shard's
            :class:`HedgeCutClassifier` (epsilon, topd, n_jobs, ...).
    """

    def __init__(
        self,
        n_shards: int = 1,
        n_trees: int = 100,
        partitioner_salt: int = 0,
        seed: int | None = None,
        **model_kwargs,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if n_trees % n_shards != 0:
            raise ValueError(
                f"n_trees ({n_trees}) must be divisible by n_shards "
                f"({n_shards}) so every shard contributes equally to the "
                f"soft vote"
            )
        self.partitioner = HashPartitioner(n_shards, salt=partitioner_salt)
        self.seed = seed
        self._shards: list[HedgeCutClassifier] = [
            HedgeCutClassifier(
                n_trees=n_trees // n_shards,
                seed=None if seed is None else seed + shard * _SHARD_SEED_STRIDE,
                **model_kwargs,
            )
            for shard in range(n_shards)
        ]
        self._partition_stats: PartitionStats | None = None

    @classmethod
    def from_shards(
        cls,
        shards: Iterable[HedgeCutClassifier],
        partitioner: HashPartitioner,
    ) -> "ShardedHedgeCut":
        """Wrap already-fitted shard models (the recovery constructor).

        The shard list order must match the partitioner's shard ids --
        :class:`~repro.sharding.store.ShardedModelStore` guarantees this by
        recovering shard ``i`` from the ``shard-i`` namespace.
        """
        shards = list(shards)
        if len(shards) != partitioner.n_shards:
            raise ValueError(
                f"{len(shards)} shard models for a {partitioner.n_shards}-way "
                f"partitioner"
            )
        tree_counts = {shard.params.n_trees for shard in shards}
        if len(tree_counts) > 1:
            raise ValueError(
                f"shards must hold equally many trees, got {sorted(tree_counts)}"
            )
        instance = cls.__new__(cls)
        instance.partitioner = partitioner
        instance.seed = None
        instance._shards = shards
        instance._partition_stats = None
        return instance

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    @property
    def n_shards(self) -> int:
        return self.partitioner.n_shards

    @property
    def shards(self) -> tuple[HedgeCutClassifier, ...]:
        """The per-shard sub-ensembles (shard id = position)."""
        return tuple(self._shards)

    @property
    def n_trees(self) -> int:
        """Total trees across all shards."""
        return sum(shard.params.n_trees for shard in self._shards)

    @property
    def is_fitted(self) -> bool:
        return all(shard.is_fitted for shard in self._shards)

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError("the sharded model has not been fitted yet")

    @property
    def partition_stats(self) -> PartitionStats:
        """Shard sizes of the training partition (set by :meth:`fit`)."""
        self._require_fitted()
        if self._partition_stats is None:
            # Recovered models: reconstruct the sizes from the shard models.
            self._partition_stats = PartitionStats(
                shard_sizes=tuple(shard.n_trained_on for shard in self._shards)
            )
        return self._partition_stats

    @property
    def n_trained_on(self) -> int:
        self._require_fitted()
        return sum(shard.n_trained_on for shard in self._shards)

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #

    def fit(self, dataset: Dataset) -> "ShardedHedgeCut":
        """Partition the data and train every shard independently.

        Shards train sequentially here; each shard's own ``n_jobs`` still
        applies (the per-shard process pool of
        :meth:`HedgeCutClassifier.fit`), so ``n_jobs > 1`` parallelises
        tree builds *within* each shard.
        """
        partitions = self.partitioner.partition(dataset)
        sizes = []
        for shard_id, (shard, rows) in enumerate(zip(self._shards, partitions)):
            if rows.size == 0:
                raise ValueError(
                    f"shard {shard_id} received no training rows; use fewer "
                    f"shards or more data"
                )
            shard.fit(dataset.take(rows))
            sizes.append(int(rows.size))
        self._partition_stats = PartitionStats(shard_sizes=tuple(sizes))
        return self

    # ------------------------------------------------------------------ #
    # aggregated prediction
    # ------------------------------------------------------------------ #

    def predict_votes_rows(self, values: np.ndarray) -> np.ndarray:
        """Summed positive hard-vote counts across all shards."""
        self._require_fitted()
        matrix = np.asarray(values, dtype=np.int64)
        total = self._shards[0].predict_votes_rows(matrix)
        for shard in self._shards[1:]:
            total = total + shard.predict_votes_rows(matrix)
        return total

    def predict_rows(self, values: np.ndarray) -> np.ndarray:
        """Majority-vote labels over the global tree count.

        Identical to the unsharded rule: ``2 * votes > n_trees`` with the
        votes summed across shards. For ``K=1`` this is bit-identical to
        :meth:`HedgeCutClassifier.predict_rows`.
        """
        votes = self.predict_votes_rows(values)
        return (2 * votes > self.n_trees).astype(np.uint8)

    def predict_proba_rows(self, values: np.ndarray) -> np.ndarray:
        """Soft-vote probabilities: mean of the per-shard means.

        Shards hold equally many trees, so the mean over shards equals the
        mean over all trees (up to float summation order). For ``K=1`` the
        division by ``1.0`` is exact, preserving bit-identity with the
        unsharded packed path.
        """
        self._require_fitted()
        matrix = np.asarray(values, dtype=np.int64)
        total = np.zeros(matrix.shape[0], dtype=np.float64)
        for shard in self._shards:
            total += shard.predict_proba_rows(matrix)
        return total / self.n_shards

    def predict(self, record: Record | Sequence[int] | np.ndarray) -> int:
        return int(self.predict_rows(_as_matrix(record))[0])

    def predict_proba(self, record: Record | Sequence[int] | np.ndarray) -> float:
        return float(self.predict_proba_rows(_as_matrix(record))[0])

    def predict_batch(self, dataset: Dataset) -> np.ndarray:
        return self.predict_rows(dataset.feature_matrix())

    def predict_proba_batch(self, dataset: Dataset) -> np.ndarray:
        return self.predict_proba_rows(dataset.feature_matrix())

    # ------------------------------------------------------------------ #
    # routed unlearning
    # ------------------------------------------------------------------ #

    def owning_shard(self, record: Record) -> int:
        """The shard a deletion request routes to (pure content hash)."""
        return self.partitioner.shard_of_record(record)

    def unlearn(
        self, record: Record, allow_budget_overrun: bool = False
    ) -> UnlearningReport:
        """Route one deletion to its owning shard's in-place unlearning.

        Only that shard's sub-ensemble (``n_trees / K`` trees trained on
        ``~1/K`` of the data) is touched; all other shards are untouched,
        which is where the sharded deletion speed-up comes from.
        """
        self._require_fitted()
        shard = self.owning_shard(record)
        return self._shards[shard].unlearn(
            record, allow_budget_overrun=allow_budget_overrun
        )

    def group_by_shard(self, records: Sequence[Record]) -> dict[int, list[int]]:
        """Positions of ``records`` grouped by owning shard (order kept).

        Routes the whole batch through one vectorised hash call; agrees
        with :meth:`owning_shard` bit-for-bit because the scalar path is
        the same function on a one-row matrix.
        """
        if not records:
            return {}
        matrix = np.asarray([record.values for record in records], dtype=np.int64)
        labels = np.asarray([record.label for record in records], dtype=np.int64)
        assignments = self.partitioner.shards_of_matrix(matrix, labels)
        groups: dict[int, list[int]] = {}
        for position, shard in enumerate(assignments):
            groups.setdefault(int(shard), []).append(position)
        return groups

    def unlearn_batch(
        self, records: Iterable[Record], allow_budget_overrun: bool = False
    ) -> UnlearningReport:
        """Split a deletion batch by owning shard and apply per shard.

        Each shard's sub-batch is one call of that shard's native write
        kernel (whole-sub-batch atomic); shards apply in ascending shard id
        with submission order preserved within a shard. Atomicity is
        therefore *per shard*: a failing sub-batch leaves its own shard
        untouched but earlier shards' sub-batches stay applied -- the same
        contract the sharded serving engine exposes, where every shard
        sub-batch is its own WAL frame and audit entry.
        """
        self._require_fitted()
        records = list(records)
        total = UnlearningReport()
        for shard_id, positions in sorted(self.group_by_shard(records).items()):
            total.merge(
                self._shards[shard_id].unlearn_batch(
                    [records[position] for position in positions],
                    allow_budget_overrun=allow_budget_overrun,
                )
            )
        return total

    # ------------------------------------------------------------------ #
    # budgets
    # ------------------------------------------------------------------ #

    @property
    def deletion_budget(self) -> int:
        """Total deletion budget across shards (each shard enforces its own)."""
        self._require_fitted()
        return sum(shard.deletion_budget for shard in self._shards)

    @property
    def n_unlearned(self) -> int:
        return sum(shard.n_unlearned for shard in self._shards)

    @property
    def remaining_deletion_budget(self) -> int:
        """Summed remaining budgets; individual shards may exhaust earlier."""
        self._require_fitted()
        return sum(shard.remaining_deletion_budget for shard in self._shards)
