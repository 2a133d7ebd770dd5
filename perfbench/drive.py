"""Load generators: the open loop through the asyncio gateway and the
closed loop of direct engine calls.

Both time each request from when it was due (the open loop's arrival
time; the closed loop's call) to its answer, and never let an exception
escape: a failed or refused request is counted, and the run goes on.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench.schedule import DELETE, PREDICT, Schedule

#: Spin (yielding to the event loop) instead of sleeping for the last
#: stretch before a request is due: the selector's timeout is rounded up
#: to whole milliseconds.
_SPIN_S = 0.0011

#: The closed loop moves itself to the next CPU it may run on every
#: ``CHUNK`` schedule entries (a *stretch*, about 60 ms). On a shared host
#: a neighbour can load one core's hyperthread sibling for seconds to
#: minutes, slowing work there by up to half, while another core runs
#: undisturbed; visiting every CPU in turn gives the p50
#: (:func:`perfbench.stats.lowest_stretch_median`) undisturbed stretches
#: to read whichever CPU the neighbour is on.
CHUNK = 500


@dataclass
class Outcome:
    """Per-request timings of one measured phase (seconds, perf_counter)."""

    schedule: Schedule
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    ok: np.ndarray
    #: ``(shard, kind name, record)`` of acknowledged writes, per shard in
    #: the order the shard applied them.
    applied: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    #: Requests sent but not answered, sampled at every send.
    outstanding: np.ndarray | None = None
    #: Traced open loop: when each request reached the micro-batcher.
    submitted: np.ndarray | None = None
    #: Closed loop: the stretch of ``CHUNK`` entries, each on one CPU,
    #: that each request ran in.
    stretch: np.ndarray | None = None

    def _per_request(self, kind: int, values: np.ndarray, reduce) -> np.ndarray:
        """``values`` of every successful request of one kind, one per request.

        A deletion request is one user's erasure: its records' values are
        combined with ``reduce``.
        """
        mask = (self.schedule.kind == kind) & self.ok
        if kind != DELETE or not mask.any():
            return values[mask]
        order = np.argsort(self.schedule.user[mask], kind="stable")
        users = self.schedule.user[mask][order]
        starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
        return reduce.reduceat(values[mask][order], starts)

    def interval(self, kind: int) -> tuple[np.ndarray, np.ndarray]:
        """``(due, answered)`` of every successful request of one kind.

        A deletion request is due with its records and answered when the
        last of them is acknowledged.
        """
        return (self._per_request(kind, self.due, np.minimum),
                self._per_request(kind, self.done, np.maximum))

    def stretches(self, kind: int) -> np.ndarray:
        """The stretch of every successful request of one kind."""
        return self._per_request(kind, self.stretch, np.minimum)

    def latency_us(self, kind: int) -> np.ndarray:
        due, done = self.interval(kind)
        return (done - due) * 1e6

    @property
    def attempted(self) -> int:
        return len(self.schedule)

    @property
    def elapsed(self) -> float:
        """Seconds from the first request's due time to the last answer."""
        return float(self.done.max() - self.due.min()) if self.attempted else 0.0

    @property
    def failed(self) -> int:
        return int(np.count_nonzero(~self.ok))


def merge(outcomes: list[Outcome]) -> Outcome:
    """One outcome of consecutive closed-loop rounds, users kept apart."""
    if len(outcomes) == 1:
        return outcomes[0]
    users, offset = [], 0
    stretches, stretch_offset = [], 0
    for outcome in outcomes:
        user = outcome.schedule.user.copy()
        user[user >= 0] += offset
        offset = max(offset, int(user.max()) + 1)
        users.append(user)
        if outcome.stretch is not None:
            stretches.append(outcome.stretch + stretch_offset)
            stretch_offset = int(stretches[-1].max()) + 1

    def joined(field_name):
        return np.concatenate([getattr(o, field_name) for o in outcomes])

    def scheduled(field_name):
        return np.concatenate([getattr(o.schedule, field_name) for o in outcomes])

    plan = Schedule(scheduled("at"), scheduled("kind"), scheduled("arg"),
                    scheduled("tenant"), np.concatenate(users))
    return Outcome(
        plan, joined("due"), joined("sent"), joined("done"), joined("ok"),
        applied=[item for o in outcomes for item in o.applied],
        errors=[error for o in outcomes for error in o.errors],
        stretch=np.concatenate(stretches) if len(stretches) == len(outcomes) else None,
    )


class FleetLoad:
    """Feeds schedules through an ``AsyncShardedGateway`` on one event loop."""

    def __init__(self, setup, delete_records: list, request_prefix: str) -> None:
        self.setup = setup
        self.delete_records = delete_records
        self.pool_cursor = 0
        self.prefix = request_prefix
        self.gateway = None

    async def run(self, schedule: Schedule, track_submits: bool = False) -> Outcome:
        n = len(schedule)
        matrix = self.setup.data.test_matrix
        offset = self.pool_cursor
        self.pool_cursor += schedule.count(DELETE)
        # Everything a request carries is built before the clock starts.
        payload = [
            matrix[arg] if kind == PREDICT else self.delete_records[offset + arg]
            for kind, arg in zip(schedule.kind.tolist(), schedule.arg.tolist())
        ]
        tenants = [f"tenant-{tenant}" for tenant in schedule.tenant.tolist()]
        kinds = schedule.kind.tolist()
        sent = np.zeros(n)
        done = np.zeros(n)
        ok = np.ones(n, dtype=bool)
        outstanding = np.zeros(n, dtype=np.int64)
        entries: list = [None] * n
        errors: list[str] = []
        submitted = None
        gateway = self.gateway
        clock = time.perf_counter
        finished = [0]

        if track_submits:
            submitted = np.zeros(n)
            index_of = {id(item): index for index, item in enumerate(payload)}
            batcher = self.setup.batcher

            predict_method = batcher.submit_predict
            unlearn_method = batcher.submit_unlearn

            def submit_predict(record):
                submitted[index_of[id(record)]] = clock()
                return predict_method(record)

            def submit_unlearn(request_id, record, **kwargs):
                submitted[index_of[id(record)]] = clock()
                return unlearn_method(request_id, record, **kwargs)

            # Instance attributes shadow the (possibly traced) class methods.
            batcher.submit_predict = submit_predict
            batcher.submit_unlearn = submit_unlearn

        async def send(index: int) -> None:
            try:
                if kinds[index] == PREDICT:
                    await gateway.predict(tenants[index], payload[index])
                else:
                    entry = await gateway.unlearn(
                        tenants[index], f"{self.prefix}-{offset + schedule.arg[index]}",
                        payload[index],
                    )
                    entries[index] = entry
                    if not entry.succeeded:
                        ok[index] = False
                        errors.append(entry.error or "deletion refused")
            except Exception as error:  # counted as failed; the run goes on
                ok[index] = False
                errors.append(f"{type(error).__name__}: {error}")
            done[index] = clock()
            finished[0] += 1

        start = clock() + 0.005
        due = start + schedule.at
        tasks = []
        loop = asyncio.get_running_loop()
        for index in range(n):
            wait = due[index] - clock()
            if wait > _SPIN_S:
                await asyncio.sleep(wait - _SPIN_S)
            while clock() < due[index]:
                await asyncio.sleep(0)
            sent[index] = clock()
            outstanding[index] = index - finished[0]
            tasks.append(loop.create_task(send(index)))
        await asyncio.gather(*tasks)

        if track_submits:
            del self.setup.batcher.submit_predict
            del self.setup.batcher.submit_unlearn

        applied = sorted(
            (entry.shard_id, entry.log_offset, index)
            for index, entry in enumerate(entries)
            if entry is not None and entry.succeeded
        )
        return Outcome(
            schedule, due, sent, done, ok,
            applied=[(shard, "delete", payload[index]) for shard, _, index in applied],
            errors=errors, outstanding=outstanding, submitted=submitted,
        )


def run_fleet(setup, phases, delete_records: list, prefix: str):
    """Run ``phases``, an async callable taking the load generator, on a new loop."""
    from repro.sharding.gateway import AsyncShardedGateway

    load = FleetLoad(setup, delete_records, prefix)

    async def main():
        load.gateway = AsyncShardedGateway(setup.batcher, setup.gateway_config)
        async with load.gateway:
            return await phases(load)

    return asyncio.run(main()), load


def closed_loop(setup, schedule: Schedule, delete_records: list,
                insert_records: list, prefix: str, tracer=None) -> Outcome:
    """One caller issuing predict / unlearn / learn_one back to back.

    A whole-user erasure (consecutive deletions of one user) is one
    ``unlearn_batch`` call. The caller runs ``CHUNK`` entries on each of
    its CPUs in turn, and is allowed all of them again when it returns.
    """
    from repro.core.exceptions import HedgeCutError

    engine = setup.engine
    matrix = setup.data.test_matrix
    n = len(schedule)
    kinds = schedule.kind.tolist()
    args = schedule.arg.tolist()
    users = schedule.user.tolist()
    payload = [
        matrix[arg:arg + 1] if kind == PREDICT
        else delete_records[arg] if kind == DELETE else insert_records[arg]
        for kind, arg in zip(kinds, args)
    ]
    ids = [f"{prefix}-{index}" for index in range(n)]
    due = np.zeros(n)
    done = np.zeros(n)
    ok = np.ones(n, dtype=bool)
    applied = []
    errors: list[str] = []
    clock = time.perf_counter
    predict_rows, learn_one = engine.predict_rows, engine.learn_one
    unlearn, unlearn_batch = engine.unlearn, engine.unlearn_batch
    cpus = sorted(os.sched_getaffinity(0))
    stretch = np.zeros(n, dtype=np.int64)
    index = chunk_end = 0
    try:
        while index < n:
            if index >= chunk_end:
                chunk = index // CHUNK
                os.sched_setaffinity(0, {cpus[chunk % len(cpus)]})
                chunk_end = (chunk + 1) * CHUNK
            kind = kinds[index]
            stop = index + 1
            if kind == DELETE:
                while stop < n and users[stop] == users[index]:
                    stop += 1
            if tracer is not None:
                tracer.request_id = ids[index]
            due[index:stop] = clock()
            try:
                if kind == PREDICT:
                    predict_rows(payload[index])
                else:
                    if stop - index > 1:
                        entry = unlearn_batch(ids[index], payload[index:stop])
                    else:
                        entry = (unlearn if kind == DELETE else learn_one)(
                            ids[index], payload[index]
                        )
                    if entry.succeeded:
                        applied.extend(
                            (0, "delete" if kind == DELETE else "insert", record)
                            for record in payload[index:stop]
                        )
                    else:
                        ok[index:stop] = False
                        errors.append(entry.error or "write refused")
            except HedgeCutError as error:
                ok[index:stop] = False
                errors.append(f"{type(error).__name__}: {error}")
            done[index:stop] = clock()
            stretch[index:stop] = chunk
            index = stop
    finally:
        os.sched_setaffinity(0, cpus)
    return Outcome(schedule, due, due.copy(), done, ok, applied=applied, errors=errors,
                   stretch=stretch)
