"""Batching policy shared by the serving front ends.

Online traffic arrives one request at a time, while the packed kernel
(:mod:`repro.core.packed`) amortises its cost across a whole batch. The
micro-batcher (:class:`~repro.sharding.microbatch.ShardedMicroBatcher`,
whose one-shard case is the plain batcher) collects requests until either
``max_batch`` of them are queued or the oldest one has waited
``max_delay_ms``, then dispatches them together. :class:`MicroBatchConfig`
holds those two bounds; the ``FLUSH_*`` constants name why a window was
dispatched.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Flush triggers, counted per dispatch in the batcher's stats.
FLUSH_FULL = "full"
FLUSH_WINDOW = "window"
FLUSH_FORCED = "forced"


@dataclass(frozen=True)
class MicroBatchConfig:
    """Batching policy of the front end.

    Attributes:
        max_batch: dispatch as soon as this many requests are queued.
        max_delay_ms: dispatch once the oldest queued request has waited
            this long, even if the batch is not full (bounds added latency).
    """

    max_batch: int = 256
    max_delay_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be non-negative")
