"""Deterministic hash partitioner: stable record -> shard routing.

The SISA pattern hash-partitions the training data across ``K`` independent
sub-ensembles so that a deletion request touches exactly one shard. The
routing must be a pure function of the *record content* (encoded feature
values plus label), because deletion requests arrive at serving time as
:class:`~repro.dataprep.dataset.Record` objects, never as row indices --
the model "never re-reads the training data" (Section 2 of the paper).
Content routing also guarantees that duplicate training records land in
the same shard, so deleting a record removes every copy from one place.

The hash is a salted 64-bit FNV-1a over the code sequence and the label,
each folded in as one 64-bit word with wrap-around arithmetic. One C
function of :mod:`repro.native` computes it for the scalar path (one
record, on every routed deletion) and for whole code matrices, so
per-record routing and whole-dataset partitioning agree bit-for-bit,
independent of process, platform and ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataprep.dataset import Dataset, Record
from repro.native import ffi, lib

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class PartitionStats:
    """Shard balance summary of one partitioning."""

    shard_sizes: tuple[int, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shard_sizes)

    @property
    def n_rows(self) -> int:
        return int(sum(self.shard_sizes))

    @property
    def imbalance(self) -> float:
        """Coefficient of variation of the shard sizes (0 = perfect balance)."""
        sizes = np.asarray(self.shard_sizes, dtype=np.float64)
        mean = sizes.mean()
        if mean == 0:
            return 0.0
        return float(sizes.std() / mean)

    @property
    def max_over_mean(self) -> float:
        """Largest shard relative to the mean (1 = perfect balance)."""
        sizes = np.asarray(self.shard_sizes, dtype=np.float64)
        mean = sizes.mean()
        if mean == 0:
            return 1.0
        return float(sizes.max() / mean)


class HashPartitioner:
    """Stable hash routing of records to ``K`` shards.

    Args:
        n_shards: number of shards ``K`` (>= 1).
        salt: mixed into the hash so independent deployments can decorrelate
            their partitionings; part of the durable manifest of a sharded
            store, because routing must survive restarts unchanged.
    """

    def __init__(self, n_shards: int, salt: int = 0) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.salt = int(salt)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HashPartitioner)
            and other.n_shards == self.n_shards
            and other.salt == self.salt
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HashPartitioner(n_shards={self.n_shards}, salt={self.salt})"

    # ------------------------------------------------------------------ #
    # hashing
    # ------------------------------------------------------------------ #

    def shard_of_values(self, values, label: int) -> int:
        """Owning shard of one encoded record (values + label)."""
        out = ffi.new("int64_t[1]")
        lib.hc_shards(
            [int(value) for value in values], [int(label)], 1, len(values),
            self.salt & _UINT64_MASK, self.n_shards, out,
        )
        return out[0]

    def shard_of_record(self, record: Record) -> int:
        """Owning shard of one deletion request."""
        return self.shard_of_values(record.values, record.label)

    def shards_of_matrix(self, values: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Owning shard per row of a code matrix (vectorised routing)."""
        matrix = np.ascontiguousarray(values, dtype=np.int64)
        if matrix.ndim != 2:
            raise ValueError("expected a (n_rows, n_features) code matrix")
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        if labels.shape != (matrix.shape[0],):
            raise ValueError("expected one label per row")
        out = np.empty(matrix.shape[0], dtype=np.int64)
        lib.hc_shards(
            ffi.from_buffer("int64_t[]", matrix), ffi.from_buffer("int64_t[]", labels),
            matrix.shape[0], matrix.shape[1], self.salt & _UINT64_MASK,
            self.n_shards, ffi.from_buffer("int64_t[]", out, require_writable=True),
        )
        return out

    # ------------------------------------------------------------------ #
    # dataset partitioning
    # ------------------------------------------------------------------ #

    def partition(self, dataset: Dataset) -> list[np.ndarray]:
        """Row indices per shard, each in original dataset order.

        Order stability matters for reproducibility: with ``K=1`` the
        single shard receives every row in the original order, so a model
        trained on the shard is bit-identical to one trained unsharded.
        """
        assignments = self.shards_of_matrix(dataset.feature_matrix(), dataset.labels)
        return [np.flatnonzero(assignments == shard) for shard in range(self.n_shards)]

    def partition_stats(self, dataset: Dataset) -> PartitionStats:
        """Balance summary without materialising the per-shard datasets."""
        assignments = self.shards_of_matrix(dataset.feature_matrix(), dataset.labels)
        counts = np.bincount(assignments, minlength=self.n_shards)
        return PartitionStats(shard_sizes=tuple(int(count) for count in counts))
