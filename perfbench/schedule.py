"""Seeded request schedules, built in full before any timing starts.

A schedule is parallel arrays: ``at`` (seconds after the run's start at
which the request is due), ``kind``, ``arg`` (a test row for predictions,
an index into the deletion or insert pool for writes), ``tenant`` and
``user``. A deletion *request* is one user's erasure: every record with
the same ``user``, consecutive in the schedule (the other kinds carry
``-1``); it is answered when its last record is acknowledged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PREDICT, DELETE, INSERT = 0, 1, 2
KIND_NAMES = {PREDICT: "predict", DELETE: "delete", INSERT: "insert"}
N_TENANTS = 4

#: Share of deletions in ``fleet-read-mostly`` (the rest are predictions).
READ_MOSTLY_DELETE_FRACTION = 0.01

#: ``inproc-write-mix`` shares of deletions and inserts, the defaults of
#: the repository's own interleaved workload (``serving.simulator.OnlineMix``);
#: the rest are predictions.
WRITE_MIX_DELETE_FRACTION = 0.1
WRITE_MIX_INSERT_FRACTION = 0.1

#: ``inproc-write-mix`` share of a round's deleted records that arrive as
#: whole-user erasures of ``ERASURE_SIZES`` records each (one
#: ``unlearn_batch`` call); 32 is the smallest batch the classifier sends
#: through its vectorised batch kernel, and the cap is the gdpr workload's
#: (``serving.workload.WorkloadProfile.max_user_size``).
ERASURE_SHARE = 0.25
ERASURE_SIZES = (32, 64)


@dataclass
class Schedule:
    at: np.ndarray
    kind: np.ndarray
    arg: np.ndarray
    tenant: np.ndarray
    user: np.ndarray

    def __len__(self) -> int:
        return int(self.at.shape[0])

    def count(self, kind: int) -> int:
        return int(np.count_nonzero(self.kind == kind))


def deletion_pool(rng, shard_of_rows: np.ndarray, budgets: list[int]) -> np.ndarray:
    """Train rows to delete, in order, keeping every shard inside its budget.

    Each shard may lose at most 92% of its budget (never an overrun, and a
    margin remains); rows beyond a full shard's share are skipped.
    """
    caps = [int(0.92 * budget) for budget in budgets]
    taken = [0] * len(budgets)
    pool = []
    for row in rng.permutation(shard_of_rows.shape[0]):
        shard = int(shard_of_rows[row])
        if taken[shard] < caps[shard]:
            taken[shard] += 1
            pool.append(int(row))
            if taken == caps:
                break
    return np.asarray(pool, dtype=np.int64)


def _single_record_users(kind: np.ndarray) -> np.ndarray:
    user = np.full(kind.shape[0], -1, dtype=np.int64)
    deletes = np.flatnonzero(kind == DELETE)
    user[deletes] = np.arange(deletes.shape[0])
    return user


def _poisson_times(rng, rate: float, seconds: float) -> np.ndarray:
    n = int(rate * seconds * 1.2) + 16
    times = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return times[times < seconds]


def read_mostly(rng, rate: float, seconds: float, n_test: int,
                pool_left: int) -> Schedule:
    """Open-loop Poisson arrivals: single-row predictions, 1% deletions."""
    at = _poisson_times(rng, rate, seconds)
    kind = np.where(rng.random(at.shape[0]) < READ_MOSTLY_DELETE_FRACTION, DELETE, PREDICT)
    deletes = np.flatnonzero(kind == DELETE)
    kind[deletes[pool_left:]] = PREDICT
    arg = rng.integers(0, n_test, size=at.shape[0])
    n_deletes = min(deletes.shape[0], pool_left)
    arg[deletes[:n_deletes]] = np.arange(n_deletes)
    tenant = rng.integers(0, N_TENANTS, size=at.shape[0])
    return Schedule(at, kind.astype(np.int8), arg, tenant.astype(np.int8),
                    _single_record_users(kind))


def write_mix(rng, n_deletes: int, n_test: int, n_extra: int) -> Schedule:
    """One closed-loop round: a seeded shuffle of the three kinds.

    The round is sized by its deleted records (the deletion pool); inserts
    and predictions follow from the write-mix shares. About
    ``ERASURE_SHARE`` of the deleted records come as whole-user erasures,
    the rest as single-record deletions.
    """
    n_requests = round(n_deletes / WRITE_MIX_DELETE_FRACTION)
    n_inserts = min(n_extra, round(n_requests * WRITE_MIX_INSERT_FRACTION))
    n_predicts = n_requests - n_deletes - n_inserts
    low, high = ERASURE_SIZES
    erasures = []
    left = round(ERASURE_SHARE * n_deletes)
    while left >= low:
        size = min(left, int(rng.integers(low, high + 1)))
        erasures.append(size)
        left -= size
    n_single = n_deletes - sum(erasures)

    # One entry per request: (kind, records), shuffled, then expanded.
    requests = np.concatenate([
        np.full(n_predicts, PREDICT), np.full(n_single, DELETE),
        np.full(n_inserts, INSERT), np.full(len(erasures), -1),
    ])
    requests = requests[rng.permutation(requests.shape[0])]
    sizes = np.ones(requests.shape[0], dtype=np.int64)
    sizes[requests == -1] = erasures
    kind = np.repeat(np.where(requests == -1, DELETE, requests), sizes).astype(np.int8)
    user = np.repeat(np.arange(requests.shape[0]), sizes)
    user[kind != DELETE] = -1

    arg = rng.integers(0, n_test, size=kind.shape[0])
    deletes = np.flatnonzero(kind == DELETE)
    arg[deletes] = np.arange(deletes.shape[0])
    inserts = np.flatnonzero(kind == INSERT)
    arg[inserts] = rng.permutation(n_extra)[: inserts.shape[0]]
    return Schedule(np.zeros(kind.shape[0]), kind, arg,
                    np.zeros(kind.shape[0], dtype=np.int8), user)
