"""Span tracing from outside the program, and the per-layer breakdown.

The traced run wraps the public entry points of each layer (see
:data:`LAYER_POINTS`) for the duration of the run and restores them
afterwards; the untraced run installs nothing. Everything the program
does runs on one thread (the asyncio gateway included), so spans nest
strictly and a layer's *self time* is its span minus the part its child
spans cover.

The breakdown charges each request, over its own interval from arrival to
answer, with the self time every layer spent on the thread in that
interval; what no span covers is ``other`` (the load generator, the event
loop, the caller's own bookkeeping). Shares are taken over the requests
around the median latency (``p50``) and over the tail (``p99``): the mean
layer time of those requests divided by their mean latency, so the
shares of one row add up to one.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

import numpy as np

from perfbench.stats import tail_percentile

#: Layers a request's time is charged to, in report order. ``other`` is
#: the part of a request's interval that no span covers.
LAYERS = (
    "gateway", "routing", "batch", "engine", "audit", "wal", "unlearn", "learn",
    "splice", "publish", "reader", "kernel", "other",
)


def _layer_points():
    """``(span name, owner, attribute, record counter)`` for every wrap point.

    The span's layer is the part of its name before the first dot. Imported
    lazily so that importing this module needs no ``repro`` on the path.
    """
    from repro.core import ensemble
    from repro.core.ensemble import HedgeCutClassifier
    from repro.core.packed import PackedEnsemble
    from repro.persistence.wal import WriteAheadLog
    from repro.serving.audit import AuditedUnlearner
    from repro.serving.engine import ReplicatedServingEngine
    from repro.serving.shm import SharedPackedEnsemble, ShmReplicatedServingEngine
    from repro.sharding.gateway import AsyncShardedGateway
    from repro.sharding.microbatch import ShardedMicroBatcher
    from repro.sharding.model import ShardedHedgeCut
    from repro.sharding.service import ShardedServingEngine

    def batch_size(args, kwargs):
        return len(args[1])

    def batch_size_after_id(args, kwargs):
        return len(args[2])

    return (
        # One dispatcher pass of the asyncio front end.
        ("gateway.pass", AsyncShardedGateway, "_serve", None),
        ("routing.shard", ShardedServingEngine, "owning_shard", None),
        ("routing.group", ShardedHedgeCut, "group_by_shard", None),
        ("batch.submit_predict", ShardedMicroBatcher, "submit_predict", None),
        ("batch.submit_unlearn", ShardedMicroBatcher, "submit_unlearn", None),
        ("batch.flush", ShardedMicroBatcher, "flush", None),
        ("batch.flush_unlearns", ShardedMicroBatcher, "flush_unlearns", None),
        ("engine.unlearn", ReplicatedServingEngine, "unlearn", None),
        ("engine.learn", ReplicatedServingEngine, "learn_one", None),
        ("engine.unlearn_batch", ReplicatedServingEngine, "unlearn_batch",
         batch_size_after_id),
        ("engine.predict", ReplicatedServingEngine, "predict_rows", None),
        ("engine.unlearn", ShmReplicatedServingEngine, "unlearn", None),
        ("engine.unlearn_batch", ShmReplicatedServingEngine, "unlearn_batch",
         batch_size_after_id),
        # The audit layer: WAL append, model update and audit entry of one
        # write; its self time is the bookkeeping around the first two.
        ("audit.unlearn", AuditedUnlearner, "unlearn", None),
        ("audit.learn", AuditedUnlearner, "learn_one", None),
        ("audit.unlearn_batch", AuditedUnlearner, "unlearn_batch", batch_size_after_id),
        ("wal.append", WriteAheadLog, "append", None),
        ("wal.append", WriteAheadLog, "append_insertion", None),
        ("wal.append", WriteAheadLog, "append_batch", batch_size),
        ("unlearn.apply", HedgeCutClassifier, "unlearn", None),
        ("unlearn.apply", HedgeCutClassifier, "unlearn_batch", batch_size),
        ("unlearn.scalar", ensemble, "unlearn_one_packed", None),
        ("unlearn.scalar", ensemble, "unlearn_small_batch", None),
        ("unlearn.batch", ensemble, "unlearn_batch_packed", None),
        ("learn.apply", HedgeCutClassifier, "learn_one", None),
        ("splice.span", PackedEnsemble, "splice_subtree", None),
        ("publish.shm", SharedPackedEnsemble, "publish", None),
        ("reader.votes", ShmReplicatedServingEngine, "predict_votes_rows", None),
        ("reader.proba", ShmReplicatedServingEngine, "predict_proba_rows", None),
        ("kernel.predict", HedgeCutClassifier, "predict_rows", None),
        ("kernel.predict", HedgeCutClassifier, "predict_votes_rows", None),
        ("kernel.predict", HedgeCutClassifier, "predict_proba_rows", None),
    )


class Tracer:
    """In-memory span recorder; install it with :meth:`instrument`.

    A span is ``(name, start, end, parent index, request id, records)``;
    ``request_id`` is whatever the load generator set last: the closed loop
    sets it per operation; a gateway dispatcher pass serves many requests,
    so the open loop leaves it unset.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request_id: str | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, function, counter):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records = counter(args, kwargs) if counter is not None else 1
                spans[index] = (name, start, end, parent, self.request_id, records)

        traced.__wrapped__ = function
        return traced

    @contextlib.contextmanager
    def instrument(self):
        """Wrap every layer entry point, restoring the originals on exit."""
        saved = []
        try:
            for name, owner, attribute, counter in _layer_points():
                original = owner.__dict__[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(name, original, counter))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def finished(self) -> list[tuple]:
        return [span for span in self.spans if span is not None]

    def durations_us(self, name: str, top_level_only: bool = False) -> np.ndarray:
        """Durations of spans called ``name`` (optionally not nested in one)."""
        spans = self.finished()
        out = []
        for span in spans:
            if span[0] != name:
                continue
            if top_level_only and span[3] >= 0 and self.spans[span[3]][0] == name:
                continue
            out.append((span[2] - span[1]) * 1e6)
        return np.asarray(out, dtype=np.float64)

    def span_starts(self, name: str) -> np.ndarray:
        return np.asarray(
            [span[1] for span in self.finished() if span[0] == name], dtype=np.float64
        )

    def count(self, name: str) -> int:
        return sum(1 for span in self.finished() if span[0] == name)

    def records(self, name: str) -> int:
        return sum(span[5] for span in self.finished() if span[0] == name)

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line (name, start, end, parent, request)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as sink:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, request_id, records = span
                sink.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request_id, "records": records,
                }) + "\n")

    # ------------------------------------------------------------------ #
    # self time and per-request breakdown
    # ------------------------------------------------------------------ #

    def self_segments(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per layer, the sorted ``(starts, ends)`` of its self-time segments."""
        spans = self.spans
        children: dict[int, list[int]] = {}
        for index, span in enumerate(spans):
            if span is not None and span[3] >= 0:
                children.setdefault(span[3], []).append(index)
        segments: dict[str, list[tuple[float, float]]] = {}
        for index, span in enumerate(spans):
            if span is None:
                continue
            layer = span[0].split(".", 1)[0]
            cursor = span[1]
            out = segments.setdefault(layer, [])
            for child in children.get(index, ()):
                child_span = spans[child]
                if child_span[1] > cursor:
                    out.append((cursor, child_span[1]))
                cursor = max(cursor, child_span[2])
            if span[2] > cursor:
                out.append((cursor, span[2]))
        result = {}
        for layer, pieces in segments.items():
            if not pieces:
                continue
            pieces.sort()
            array = np.asarray(pieces, dtype=np.float64).reshape(-1, 2)
            result[layer] = (array[:, 0], array[:, 1])
        return result

    def breakdown(self, starts, ends) -> dict[str, np.ndarray]:
        """Seconds each layer spent inside each request's ``[start, end]``."""
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        total = ends - starts
        charged = np.zeros_like(total)
        out: dict[str, np.ndarray] = {}
        for layer, (seg_start, seg_end) in self.self_segments().items():
            lengths = seg_end - seg_start
            before = np.concatenate([[0.0], np.cumsum(lengths)])

            def covered(t):
                index = np.searchsorted(seg_start, t, side="right") - 1
                safe = np.clip(index, 0, None)
                partial = np.clip(t - seg_start[safe], 0.0, lengths[safe])
                return np.where(index >= 0, before[safe] + partial, 0.0)

            out[layer] = covered(ends) - covered(starts)
            charged += out[layer]
        out["other"] = np.clip(total - charged, 0.0, None)
        return out


def shares(breakdown: dict[str, np.ndarray], latency) -> dict[str, dict[str, float]]:
    """Layer shares of the requests around the median and in the tail."""
    latency = np.asarray(latency, dtype=np.float64)
    result = {layer: {"p50": 0.0, "p99": 0.0} for layer in LAYERS}
    if latency.size == 0:
        return result
    low, high, tail = np.percentile(
        latency, [40.0, 60.0, tail_percentile(latency.size)]
    )
    bands = {
        "p50": (latency >= low) & (latency <= high),
        "p99": latency >= tail,
    }
    for band, mask in bands.items():
        denominator = latency[mask].sum()
        if denominator <= 0:
            continue
        for layer in LAYERS:
            if layer in breakdown:
                result[layer][band] = float(breakdown[layer][mask].sum() / denominator)
    return result
