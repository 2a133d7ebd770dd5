"""Deterministic hash routing: stability, order preservation, balance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataprep.dataset import Record
from repro.datasets.registry import load_dataset
from repro.sharding.partitioner import HashPartitioner, PartitionStats


class TestHashPartitioner:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="n_shards"):
            HashPartitioner(0)

    def test_routing_is_deterministic_across_instances(self):
        record = Record(values=(3, 1, 2), label=1)
        first = HashPartitioner(8, salt=42).shard_of_record(record)
        second = HashPartitioner(8, salt=42).shard_of_record(record)
        assert first == second

    def test_salt_changes_routing_for_some_records(self):
        records = [Record(values=(a, b, 0), label=a % 2) for a in range(8) for b in range(8)]
        plain = HashPartitioner(4, salt=0)
        salted = HashPartitioner(4, salt=99)
        assert any(
            plain.shard_of_record(record) != salted.shard_of_record(record)
            for record in records
        )

    def test_scalar_and_vectorised_routing_agree(self, income_small):
        partitioner = HashPartitioner(5, salt=7)
        matrix = income_small.feature_matrix()
        vectorised = partitioner.shards_of_matrix(matrix, income_small.labels)
        for row in range(0, income_small.n_rows, 37):
            assert vectorised[row] == partitioner.shard_of_record(
                income_small.record(row)
            )

    def test_partition_covers_every_row_exactly_once(self, income_small):
        partitions = HashPartitioner(4).partition(income_small)
        combined = np.sort(np.concatenate(partitions))
        assert np.array_equal(combined, np.arange(income_small.n_rows))

    def test_partition_preserves_original_row_order(self, income_small):
        for rows in HashPartitioner(3).partition(income_small):
            assert np.all(np.diff(rows) > 0)

    def test_single_shard_partition_is_identity(self, income_small):
        (rows,) = HashPartitioner(1).partition(income_small)
        assert np.array_equal(rows, np.arange(income_small.n_rows))

    def test_partition_is_reasonably_balanced(self, income_small):
        stats = HashPartitioner(4).partition_stats(income_small)
        assert stats.n_rows == income_small.n_rows
        assert stats.max_over_mean < 1.5

    def test_equality_is_structural(self):
        assert HashPartitioner(4, salt=1) == HashPartitioner(4, salt=1)
        assert HashPartitioner(4, salt=1) != HashPartitioner(4, salt=2)
        assert HashPartitioner(4) != HashPartitioner(8)

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=8),
        label=st.integers(min_value=0, max_value=1),
        n_shards=st.integers(min_value=1, max_value=16),
    )
    def test_routing_is_a_pure_content_function(self, values, label, n_shards):
        """Duplicates land together and routing needs no training-time state."""
        partitioner = HashPartitioner(n_shards)
        record = Record(values=tuple(values), label=label)
        duplicate = Record(values=tuple(values), label=label)
        shard = partitioner.shard_of_record(record)
        assert 0 <= shard < n_shards
        assert partitioner.shard_of_record(duplicate) == shard
        matrix = np.asarray([values], dtype=np.int64)
        assert partitioner.shards_of_matrix(matrix, [label])[0] == shard

    def test_routing_is_pinned_to_recorded_shards(self):
        """Stores already on disk were partitioned by the same hash; a
        change of routing would send their deletions to the wrong shard.

        The table was recorded from the numpy ``uint64`` implementation
        the native hash replaced: the first 64 rows of the synthetic
        credit data, for two salts and K in {2, 4} (plus K = 7, which
        exercises more than the low bits of the digest).
        """
        data = load_dataset("credit", n_rows=200, seed=0)
        matrix = data.feature_matrix()[:64]
        labels = np.asarray(data.labels[:64])
        # Guard the fixture itself: the table is only meaningful for
        # these exact rows.
        assert matrix[:3].tolist() == [
            [10, 2, 0, 0, 1, 6, 0, 5],
            [18, 5, 0, 6, 11, 17, 0, 8],
            [5, 1, 0, 16, 4, 9, 0, 8],
        ]
        for (salt, n_shards), recorded in PINNED_SHARDS.items():
            expected = [int(shard) for shard in recorded]
            partitioner = HashPartitioner(n_shards, salt=salt)
            assert partitioner.shards_of_matrix(matrix, labels).tolist() == expected
            assert [
                partitioner.shard_of_record(data.record(row)) for row in range(64)
            ] == expected


#: ``(salt, K) -> shard id per row`` of the pinned-routing test.
PINNED_SHARDS = {
    (0, 2): "1100010101110010101110010000111010010000011011001111100001000010",
    (0, 4): "1320210323312032101330030200311210030200233031221131300023002032",
    (7, 2): "0011101010001101010001101111000101101111100100110000011110111101",
    (7, 4): "2013123010021301232003303133022123303133100302112202033310331301",
    (0, 7): "3345425603401612533152154431563542643263054236023110206134645522",
    (7, 7): "1150466364001306300150462343606040500131651523150041434525130254",
}


class TestPartitionStats:
    def test_perfect_balance(self):
        stats = PartitionStats(shard_sizes=(10, 10, 10))
        assert stats.imbalance == 0.0
        assert stats.max_over_mean == 1.0

    def test_imbalance_grows_with_skew(self):
        even = PartitionStats(shard_sizes=(10, 10, 10, 10))
        skewed = PartitionStats(shard_sizes=(37, 1, 1, 1))
        assert skewed.imbalance > even.imbalance
        assert skewed.max_over_mean > 2.0

    def test_empty_sizes_are_safe(self):
        stats = PartitionStats(shard_sizes=(0, 0))
        assert stats.imbalance == 0.0
        assert stats.max_over_mean == 1.0
