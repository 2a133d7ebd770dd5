"""SISA-style sharded unlearning service.

Hash-partitioned ensemble-of-ensembles (:class:`ShardedHedgeCut`) with
per-shard durability (:class:`ShardedModelStore`), a durable multi-shard
serving engine (:class:`ShardedServingEngine`), the micro-batcher
(:class:`ShardedMicroBatcher`; one shard is the plain, unsharded case)
and an asyncio front end (:class:`AsyncShardedGateway`).
"""

from repro.sharding.gateway import (
    AsyncShardedGateway,
    GatewayConfig,
    GatewayOverloaded,
    GatewayStats,
)
from repro.sharding.microbatch import (
    FLUSH_SHARD,
    PendingShardedPrediction,
    PendingShardUnlearn,
    ShardedMicroBatcher,
    ShardedMicroBatchStats,
)
from repro.sharding.model import ShardedHedgeCut
from repro.sharding.partitioner import HashPartitioner, PartitionStats
from repro.sharding.service import ShardedServingEngine
from repro.sharding.store import RecoveredShardedModel, ShardedModelStore

__all__ = [
    "AsyncShardedGateway",
    "FLUSH_SHARD",
    "GatewayConfig",
    "GatewayOverloaded",
    "GatewayStats",
    "HashPartitioner",
    "PartitionStats",
    "PendingShardUnlearn",
    "PendingShardedPrediction",
    "RecoveredShardedModel",
    "ShardedHedgeCut",
    "ShardedMicroBatchStats",
    "ShardedMicroBatcher",
    "ShardedModelStore",
    "ShardedServingEngine",
]
