"""A real process killed mid-write recovers its acknowledged prefix.

A child process serves deletions, inserts and deletion batches through a
strict-durability store (``ModelStore(fsync=True)``) and a
``ReplicatedServingEngine``. After each acknowledged operation it sends
the operation's index over a pipe; at a seeded WAL append it SIGKILLs
itself, at one of three points of that append:

* ``torn``: after writing only a seeded prefix of the frame;
* ``written``: after the whole frame, before its ``fdatasync``;
* ``synced``: after the ``fdatasync``, before the model is touched.

``recover()`` must then equal a replay of the acknowledged prefix, and the
operation in flight must be absent (``torn``) or whole (``written``,
``synced``).

SIGKILL ends the process but keeps the kernel's page cache, so a frame
that reached ``pwrite`` survives whether or not it was synced. This test
therefore covers the reclaim of a live segment's zero-filled reserved
tail and of a torn frame on reopen; it does not simulate power loss.
"""

import copy
import os
import random
import signal

import numpy as np
import pytest

from repro.core.ensemble import HedgeCutClassifier
from repro.core.exceptions import HedgeCutError
from repro.persistence.store import ModelStore
from repro.serving.engine import ReplicatedServingEngine

from tests.conftest import make_random_dataset

N_OPS = 16


@pytest.fixture(scope="module")
def setup():
    dataset = make_random_dataset(n_rows=300, seed=11)
    train = dataset.take(np.arange(250))
    model = HedgeCutClassifier(n_trees=4, epsilon=0.05, seed=5).fit(train)
    return dataset, train, model


def _operations(seed: int) -> list[tuple[str, list[int]]]:
    """A seeded mix of single deletions, inserts and deletion batches.

    Deleted training rows are distinct, so no operation fails; inserted
    rows come from outside the training set."""
    rng = random.Random(seed)
    deletable = iter(rng.sample(range(250), 250))
    insertable = iter(rng.sample(range(250, 300), 50))
    ops = []
    for _ in range(N_OPS):
        kind = rng.choice(["delete", "delete", "insert", "batch"])
        if kind == "insert":
            ops.append((kind, [next(insertable)]))
        elif kind == "batch":
            ops.append((kind, [next(deletable) for _ in range(rng.randint(2, 5))]))
        else:
            ops.append((kind, [next(deletable)]))
    return ops


def _serve(engine, dataset, index, op) -> None:
    kind, rows = op
    records = [dataset.record(row) for row in rows]
    if kind == "insert":
        engine.learn_one(f"req-{index}", records[0])
    elif kind == "batch":
        engine.unlearn_batch(f"req-{index}", records, allow_budget_overrun=True)
    else:
        engine.unlearn(f"req-{index}", records[0], allow_budget_overrun=True)


def _replay(model, dataset, ops) -> HedgeCutClassifier:
    model = copy.deepcopy(model)
    for kind, rows in ops:
        records = [dataset.record(row) for row in rows]
        try:
            if kind == "insert":
                model.learn_one(records[0])
            elif kind == "batch":
                model.unlearn_batch(records, allow_budget_overrun=True)
            else:
                model.unlearn(records[0], allow_budget_overrun=True)
        except HedgeCutError:
            pass  # the live request failed the same deterministic way
    return model


def _install_kill_point(kill_at: int, phase: str, cut_seed: int) -> None:
    """SIGKILL this process at WAL append number ``kill_at``."""
    real_pwrite, real_fdatasync = os.pwrite, os.fdatasync
    appends = 0

    def die() -> None:
        os.kill(os.getpid(), signal.SIGKILL)

    def pwrite(descriptor, data, offset):
        nonlocal appends
        appends += 1
        if appends == kill_at and phase == "torn":
            cut = random.Random(cut_seed).randrange(1, len(data))
            real_pwrite(descriptor, data[:cut], offset)
            die()
        written = real_pwrite(descriptor, data, offset)
        if appends == kill_at and phase == "written":
            die()
        return written

    def fdatasync(descriptor):
        real_fdatasync(descriptor)
        if appends == kill_at and phase == "synced":
            die()

    os.pwrite = pwrite
    os.fdatasync = fdatasync


@pytest.mark.parametrize(
    "seed, phase", [(1, "torn"), (2, "torn"), (3, "written"), (4, "synced")]
)
def test_sigkill_mid_append_recovers_acknowledged_prefix(
    tmp_path, setup, seed, phase
):
    import multiprocessing

    dataset, train, model = setup
    ops = _operations(seed)
    kill_at = random.Random(seed).randrange(3, N_OPS)
    store_dir = tmp_path / "store"

    ctx = multiprocessing.get_context("fork")
    acks_out, acks_in = ctx.Pipe(duplex=False)

    def serving_process() -> None:
        acks_out.close()
        store = ModelStore(store_dir, fsync=True)
        store.save_snapshot(model, wal_seq=0)
        engine = ReplicatedServingEngine(model, store, n_replicas=2)
        _install_kill_point(kill_at, phase, cut_seed=seed)
        for index, op in enumerate(ops):
            _serve(engine, dataset, index, op)
            acks_in.send(index)
        raise AssertionError("the kill point must have ended this process")

    child = ctx.Process(target=serving_process)
    child.start()
    acks_in.close()
    acknowledged = []
    try:
        while acks_out.poll(120):
            try:
                acknowledged.append(acks_out.recv())
            except EOFError:
                break
        child.join(timeout=60)
    finally:
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert child.exitcode == -signal.SIGKILL

    # Every op before the kill point was acknowledged, in order.
    assert acknowledged == list(range(kill_at - 1))
    in_flight_whole = phase != "torn"
    survived = ops[: kill_at if in_flight_whole else kill_at - 1]
    expected = _replay(model, dataset, survived)

    with ModelStore(store_dir, fsync=True) as store:
        recovered = store.recover()
        assert recovered.wal_seq == sum(len(rows) for _, rows in survived)
        assert recovered.n_replay_failures == 0
        assert recovered.model.n_unlearned == expected.n_unlearned
        assert np.array_equal(
            recovered.model.predict_proba_batch(dataset),
            expected.predict_proba_batch(dataset),
        )
        # The log resumes right after the surviving prefix.
        next_seq = store.wal.append(train.record(0)).seq
        assert next_seq == recovered.wal_seq + 1
