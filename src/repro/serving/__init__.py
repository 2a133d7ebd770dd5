"""Model-serving layer (the deployment context of Figure 1).

The paper's motivation is that unlearning must happen *inside* the serving
system, at latencies comparable to prediction requests, instead of through
heavyweight retraining pipelines. This package provides that serving
system in three tiers:

* :class:`ServingSimulator` -- a request loop mixing online prediction
  and GDPR deletion requests against a bare model or any engine below,
  measuring throughput and latency percentiles (drives the Table 2
  experiment and the CLI's ``serve`` command).
* :class:`ReplicatedServingEngine` -- the durable, multi-replica engine:
  predictions fan out round-robin over replica workers while deletions are
  sequenced through a write-ahead log (:mod:`repro.persistence`) before
  being applied, with per-replica staleness tracking, configurable read
  consistency and crash recovery from snapshot + log replay.
* :class:`MicroBatchConfig` -- the size/delay bounds of the
  micro-batching front end,
  :class:`~repro.sharding.microbatch.ShardedMicroBatcher` (one shard is
  the plain, unsharded case).
* :class:`ShmReplicatedServingEngine` -- the multi-process successor of
  the replicated engine (:mod:`repro.serving.shm`): one packed ensemble
  in shared memory, ``N`` reader processes attached zero-copy, deletions
  published under a seqlock so readers never block the writer.
* :class:`RetrainingPipeline` -- the heavyweight retrain-and-redeploy
  contrast of Section 1, with staged deployment, canary evaluation and
  rollback over a :class:`ModelRegistry`.
"""

from repro.serving.audit import AuditedUnlearner, AuditEntry
from repro.serving.engine import CONSISTENCY_MODES, ReplicatedServingEngine
from repro.serving.microbatch import MicroBatchConfig
from repro.serving.pipeline import (
    DeploymentReport,
    ModelRegistry,
    PipelineCosts,
    RetrainingPipeline,
)
from repro.serving.shm import (
    ReaderStats,
    SharedEnsembleReader,
    SharedPackedEnsemble,
    ShmReplicatedServingEngine,
    TornReadError,
)
from repro.serving.simulator import RequestMix, ServingSimulator, ThroughputReport

__all__ = [
    "AuditedUnlearner",
    "AuditEntry",
    "CONSISTENCY_MODES",
    "ReplicatedServingEngine",
    "MicroBatchConfig",
    "RequestMix",
    "ServingSimulator",
    "SharedEnsembleReader",
    "SharedPackedEnsemble",
    "ShmReplicatedServingEngine",
    "ReaderStats",
    "TornReadError",
    "ThroughputReport",
    "RetrainingPipeline",
    "ModelRegistry",
    "PipelineCosts",
    "DeploymentReport",
]
