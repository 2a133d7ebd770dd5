"""Workload runs and the metrics they report (called by ``run.py``)."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import deploy as deployment
from perfbench import gate, schedule
from perfbench.drive import closed_loop, merge, run_fleet
from perfbench.schedule import DELETE, INSERT, PREDICT
from perfbench.stats import (
    ks_critical, ks_statistic, lowest_stretch_median, lowest_window_median,
    median_and_tail, windowed_tail,
)
from perfbench.trace import LAYERS, Tracer, shares

#: Traffic of each workload. Fleet rates are offered load per second of
#: the run. The closed loop runs rounds, each on a fresh deployment from
#: the initial snapshot: a round deletes the whole deletion pool, with
#: inserts and predictions in the write-mix shares around it, and rounds
#: repeat until ``--seconds`` of measured time are used.
WORKLOADS = {
    "fleet-read-mostly": {"kind": "fleet", "rate_rps": 400.0},
    "inproc-write-mix": {
        "kind": "inproc", "delete_fraction": schedule.WRITE_MIX_DELETE_FRACTION,
        "insert_fraction": schedule.WRITE_MIX_INSERT_FRACTION,
    },
}

#: Recoveries timed by the correctness gate: per fleet run, and per round
#: of the closed loop (whose rounds give the median).
N_RECOVER = {"fleet": 3, "inproc": 1}

#: Share of the traced inproc delete p50 that the write layers' self
#: times (audit, WAL, unlearn, splice) must cover.
COHERENCE_REQUIRED = 0.9
COHERENT_LAYERS = ("audit", "wal", "unlearn", "splice")

#: Search for ``max_rate_rps``: offered rates are doubled (or halved) from
#: ``start_rps`` until a step passes and a step fails, then bisected
#: geometrically to within 5%.
MAX_RATE = {"start_rps": 500.0, "step_s": 1.0, "p99_limit_us": 5_000.0,
            "precision": 1.05, "ceiling_rps": 64_000.0, "floor_rps": 50.0}

#: Generator lateness (p99) above which a run is flagged as having fallen
#: behind its schedule. A dispatcher pass holds the event loop, so sends
#: are routinely up to one pass late; beyond this the schedule slipped.
LATE_FLAG_US = 10_000.0

#: The paper's Fig. 3 deletion latency.
PAPER_DELETE_US = 100.0

#: Gated on every workload. Tails and recovery time are not: on a shared
#: 2-vCPU host they spread by 0.25-0.40 (IQR/median over ten runs), past
#: the largest regression bound allowed; they are reported per layer.
END_TO_END = (
    ("setup_s", "s"), ("predict_p50_us", "us"), ("delete_p50_us", "us"),
    ("accuracy", "frac"), ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("predict_p99_us", "us"), ("delete_p99_us", "us"), ("recover_s", "s"),
    ("insert_p50_us", "us"), ("insert_p99_us", "us"), ("max_rate_rps", "1/s"),
    ("ops_per_s", "1/s"), ("failed_frac", "frac"),
    ("gateway.queue_wait_p50_us", "us"), ("gateway.queue_wait_p99_us", "us"),
    ("gateway.requests_per_pass_mean", "count"), ("gateway.queue_high_water", "count"),
    ("routing.group_p50_us", "us"), ("routing.shard_imbalance", "ratio"),
    ("batch.window_wait_p50_us", "us"), ("batch.predict_rows_mean", "count"),
    ("batch.predict_dispatches", "count"), ("batch.delete_records_mean", "count"),
    ("batch.delete_dispatches", "count"),
    ("wal.append_p50_us", "us"), ("wal.append_p99_us", "us"), ("wal.frames", "count"),
    ("wal.records_per_frame", "count"), ("wal.bytes_per_record", "bytes"),
    ("unlearn.apply_p50_us", "us"), ("unlearn.apply_p99_us", "us"),
    ("unlearn.us_per_record", "us"), ("unlearn.scalar_calls", "count"),
    ("unlearn.batch_calls", "count"), ("unlearn.variant_switches", "count"),
    ("unlearn.budget_remaining_min", "count"),
    ("learn.apply_p50_us", "us"), ("learn.apply_p99_us", "us"),
    ("splice.count", "count"), ("splice.p50_us", "us"), ("splice.p99_us", "us"),
    ("publish.count", "count"), ("publish.p50_us", "us"), ("publish.p99_us", "us"),
    ("publish.bytes_mean", "bytes"), ("publish.generations", "count"),
    ("reader.roundtrip_p50_us", "us"), ("reader.roundtrip_p99_us", "us"),
    ("reader.seqlock_retries", "count"), ("reader.respawns", "count"),
    ("kernel.predict_p50_us", "us"), ("kernel.predict_p99_us", "us"),
    ("setup.fit_s", "s"), ("setup.pack_s", "s"), ("setup.spawn_s", "s"),
    ("recover.replayed_ops", "count"),
    *(
        (f"{op}.share.{layer}.{band}", "frac")
        for op in ("predict", "delete") for layer in LAYERS for band in ("p50", "p99")
    ),
    ("trace.overhead_frac", "frac"), ("trace.delete_unaccounted_frac", "frac"),
    ("driver.lateness_p99_us", "us"),
    ("paper.fig3_delete_p50_us", "us"), ("paper.table2_ks", "stat"),
)


@dataclass
class Phase:
    """What one deployment measured: a fleet run, or one closed-loop round."""

    outcome: object
    steps: list = field(default_factory=list)
    max_rate_rps: float = 0.0
    live: dict = field(default_factory=dict)
    gate: dict = field(default_factory=dict)

    @property
    def applied(self) -> list:
        items = list(self.outcome.applied)
        for step in self.steps:
            items.extend(step.applied)
        return items

    @property
    def attempted(self) -> int:
        return self.outcome.attempted + sum(step.attempted for step in self.steps)

    @property
    def failed(self) -> int:
        return self.outcome.failed + sum(step.failed for step in self.steps)


# ---------------------------------------------------------------------- #
# traffic
# ---------------------------------------------------------------------- #


def _pools(setup, seed: int, round_index: int):
    """Seeded deletion pool (train records) and insert pool (new records)."""
    rng = np.random.default_rng([seed, 1, round_index])
    train = setup.data.train
    if setup.kind == "fleet":
        shard_of_rows = setup.model.partitioner.shards_of_matrix(
            train.feature_matrix(), np.asarray(train.labels, dtype=np.int64)
        )
    else:
        shard_of_rows = np.zeros(train.n_rows, dtype=np.int64)
    budgets = [model.remaining_deletion_budget for model in setup.shard_models]
    rows = schedule.deletion_pool(rng, shard_of_rows, budgets)
    deletes = [train.record(int(row)) for row in rows]
    extra = setup.data.extra
    inserts = []
    if setup.kind == "inproc":
        inserts = [extra.record(row) for row in range(extra.n_rows)]
    return deletes, inserts


async def _search_max_rate(load, rng, pool_size: int, n_test: int, step_s: float):
    """Highest offered rate meeting predict p99 <= 5 ms with no backlog growth."""
    steps = []

    async def passes(rate: float) -> bool:
        plan = schedule.read_mostly(
            rng, rate, step_s, n_test, pool_size - load.pool_cursor
        )
        outcome = await load.run(plan)
        steps.append(outcome)
        _, p99, _ = median_and_tail(outcome.latency_us(PREDICT))
        quarter = max(1, len(plan) // 4)
        backlog = outcome.outstanding
        growing = backlog[-quarter:].mean() > 1.5 * backlog[:quarter].mean() + 2
        return outcome.failed == 0 and p99 <= MAX_RATE["p99_limit_us"] and not growing

    low = high = None
    rate = MAX_RATE["start_rps"]
    while True:
        if await passes(rate):
            low = rate
            if high is not None or rate * 2 > MAX_RATE["ceiling_rps"]:
                break
            rate *= 2
        else:
            high = rate
            if low is not None:
                break
            rate /= 2
            if rate < MAX_RATE["floor_rps"]:
                return 0.0, steps
    while high is not None and high / low > MAX_RATE["precision"]:
        middle = math.sqrt(low * high)
        if await passes(middle):
            low = middle
        else:
            high = middle
    return low, steps


def _measure(setup, name: str, args, round_index: int, tracer=None,
             extras: bool = False) -> Phase:
    config = WORKLOADS[name]
    rng = np.random.default_rng([args.seed, 2, round_index])
    deletes, inserts = _pools(setup, args.seed, round_index)
    n_test = setup.data.test_matrix.shape[0]
    prefix = f"{name}-{args.seed}-{round_index}"
    if setup.kind == "inproc":
        plan = schedule.write_mix(rng, len(deletes), n_test, len(inserts))
        return Phase(closed_loop(setup, plan, deletes, inserts, prefix, tracer))

    plan = schedule.read_mostly(rng, config["rate_rps"], args.seconds, n_test,
                                len(deletes))

    async def phases(load):
        outcome = await load.run(plan, track_submits=tracer is not None)
        if extras:
            best, steps = await _search_max_rate(
                load, np.random.default_rng([args.seed, 3]), len(deletes),
                n_test, min(MAX_RATE["step_s"], args.seconds / 4),
            )
            return Phase(outcome, steps, best)
        return Phase(outcome)

    phase, load = run_fleet(setup, phases, deletes, prefix)
    stats = load.gateway.stats
    phase.live["gateway"] = {
        "requests_per_pass_mean": stats.n_dispatched / max(1, stats.n_passes),
        "queue_high_water": max(stats.queue_high_water.values(), default=0),
    }
    return phase


def _live_counters(setup) -> dict:
    """Counters only the running deployment can answer (read before close)."""
    models = setup.shard_models
    live = {
        "budget_remaining_min": min(m.remaining_deletion_budget for m in models),
        "variant_switches": sum(e.variant_switches for e in setup.engine.audit_entries),
    }
    stores = setup.store.shard_stores if setup.kind == "fleet" else [setup.store]
    live["wal_bytes"] = sum(
        path.stat().st_size for store in stores for path in store.wal.segment_paths()
    )
    if setup.kind == "fleet":
        batch = setup.batcher.stats
        live["batch"] = {
            "predict_rows_mean": batch.mean_batch_size,
            "predict_dispatches": batch.n_batches,
            "delete_records_mean": batch.n_unlearn_requests / max(1, batch.n_unlearn_batches),
            "delete_dispatches": batch.n_unlearn_batches,
        }
        engines = setup.engine.engines
        shared = [engine._shared for engine in engines]
        # Bytes copied into shared memory after the initial full copy (the
        # first publish). The program counts only the spliced-span bytes
        # (``structural_bytes_published``); the two leaf-count arrays every
        # leaf or span publish rewrites in full are added here from their
        # sizes, so this is derived from the publish code, not a counter.
        # No generation is cut during a run, so no full copy is missed.
        live["publish_bytes"] = sum(
            (s.n_publishes - 1) * (s.views.leaf_n.nbytes + s.views.leaf_n_plus.nbytes)
            + s.structural_bytes_published
            for s in shared
        )
        live["publish_generations"] = sum(s.generation for s in shared)
        live["seqlock_retries"] = sum(
            stat["seqlock_retries"] for engine in engines
            for stat in engine.reader_stats()
        )
        live["respawns"] = sum(engine.reader_respawns for engine in engines)
    return live


def _run_phase(setup, name, args, round_index=0, tracer=None, extras=False) -> Phase:
    """Measure, read the live counters, run the correctness gate, close."""
    try:
        gc.collect()  # no collection debt from set-up lands in the measurement
        if tracer is None:
            phase = _measure(setup, name, args, round_index, extras=extras)
        else:
            with tracer.instrument():
                phase = _measure(setup, name, args, round_index, tracer=tracer)
        phase.live["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phase.live.update(_live_counters(setup))
        phase.gate = gate.check(setup, phase.applied, n_recover=N_RECOVER[setup.kind])
    finally:
        setup.close()
    return phase


def _run_workload(setup, name, args, directory: Path, tracer=None,
                  extras=False) -> list[Phase]:
    """Every phase of one measured pass: one on the fleet, rounds in process.

    Each closed-loop round after the first runs on a fresh deployment from
    the initial snapshot (set-up that ``setup_s`` does not count), so that
    every round deletes a full pool inside the budget.
    """
    phases = [_run_phase(setup, name, args, 0, tracer, extras)]
    measured = phases[0].outcome.elapsed
    while setup.kind == "inproc" and measured < args.seconds:
        fresh = deployment.redeploy(setup, directory / f"round-{len(phases)}")
        phases.append(_run_phase(fresh, name, args, len(phases), tracer))
        measured += phases[-1].outcome.elapsed
    return phases


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #


def _p50_tail(values) -> tuple[float, float]:
    p50, tail, _ = median_and_tail(values)
    return p50, tail


def _combine(phases: list[Phase]) -> Phase:
    """One phase standing for a pass: its only phase, or its rounds merged."""
    if len(phases) == 1:
        return phases[0]
    # Peak RSS is the first round's, read before any gate ran.
    live = dict(phases[0].live)
    live["budget_remaining_min"] = min(p.live["budget_remaining_min"] for p in phases)
    for key in ("variant_switches", "wal_bytes"):
        live[key] = sum(p.live[key] for p in phases)
    gates = [phase.gate for phase in phases]
    verdict = {
        "correct": all(g["correct"] for g in gates),
        "problems": [f"round {index}: {problem}"
                     for index, g in enumerate(gates) for problem in g["problems"]],
        "recover_s": statistics.median(g["recover_s"] for g in gates),
        "replayed_ops": sum(g["replayed_ops"] for g in gates),
        "accuracy": statistics.median(g["accuracy"] for g in gates),
    }
    return Phase(merge([phase.outcome for phase in phases]),
                 [step for phase in phases for step in phase.steps],
                 phases[0].max_rate_rps, live, verdict)


def _p50(phases: list[Phase], kind: int) -> float:
    """Lowest median over the closed loop's one-CPU stretches, or over the
    open loop's time windows (see :mod:`perfbench.stats`)."""
    outcome = _combine(phases).outcome
    due, done = outcome.interval(kind)
    if outcome.stretch is not None:
        return lowest_stretch_median((done - due) * 1e6, outcome.stretches(kind))
    return lowest_window_median((done - due) * 1e6, due)


def _end_to_end(setup_s: float, phases: list[Phase]) -> dict:
    """Every figure of the untraced pass, gated or not."""
    combined = _combine(phases)
    outcome = combined.outcome
    tails = {}
    for kind in (PREDICT, DELETE):
        due, done = outcome.interval(kind)
        tails[kind] = windowed_tail((done - due) * 1e6, due)
    return {
        "setup_s": setup_s,
        "predict_p50_us": _p50(phases, PREDICT), "predict_p99_us": tails[PREDICT],
        "delete_p50_us": _p50(phases, DELETE), "delete_p99_us": tails[DELETE],
        "accuracy": combined.gate["accuracy"],
        "recover_s": combined.gate["recover_s"],
        "peak_rss_mb": combined.live["peak_rss_mb"],
    }


def _workload_only(name: str, phases: list[Phase]) -> dict:
    """Figures only some workloads support (taken from the untraced pass)."""
    combined = _combine(phases)
    out = {"failed_frac": combined.failed / max(1, combined.attempted),
           "max_rate_rps": combined.max_rate_rps}
    if name == "inproc-write-mix":
        out["insert_p50_us"], out["insert_p99_us"] = _p50_tail(
            combined.outcome.latency_us(INSERT))
        out["ops_per_s"] = combined.outcome.attempted / sum(
            phase.outcome.elapsed for phase in phases)
    return out


def _lateness_p99_us(outcome) -> float:
    """How late the open-loop generator sent requests (0 for a closed loop)."""
    if outcome.outstanding is None:
        return 0.0
    return float(np.percentile((outcome.sent - outcome.due) * 1e6, 99))


def _concurrent_ks(outcome) -> tuple[float, float, int, int]:
    """KS statistic between predict latencies with and without a deletion
    in flight when the prediction arrived."""
    delete_due, delete_done = outcome.interval(DELETE)
    due, done = outcome.interval(PREDICT)
    order = np.argsort(delete_due)
    starts = delete_due[order]
    inside = np.zeros(due.shape[0], dtype=bool)
    if starts.size:
        ends = np.maximum.accumulate(delete_done[order])
        index = np.searchsorted(starts, due, side="right") - 1
        inside = (index >= 0) & (due <= ends[np.clip(index, 0, None)])
    latency = done - due
    a, b = latency[inside], latency[~inside]
    return ks_statistic(a, b), ks_critical(a.size, b.size), int(a.size), int(b.size)


def _layer_metrics(name: str, timings: dict, untraced: list[Phase],
                   traced_phases: list[Phase], tracer: Tracer) -> dict:
    out = _end_to_end(timings["setup_s"], untraced)
    out.update(_workload_only(name, untraced))
    traced = _combine(traced_phases)
    live = traced.live
    outcome = traced.outcome

    if traced.outcome.submitted is not None:
        out.update({f"gateway.{key}": value for key, value in live["gateway"].items()})
        predicts = (outcome.schedule.kind == PREDICT) & outcome.ok
        submitted = outcome.submitted[predicts]
        out["gateway.queue_wait_p50_us"], out["gateway.queue_wait_p99_us"] = _p50_tail(
            (submitted - outcome.sent[predicts]) * 1e6)
        flushes = tracer.span_starts("batch.flush")
        following = np.searchsorted(flushes, submitted)
        valid = following < flushes.shape[0]
        out["batch.window_wait_p50_us"] = _p50_tail(
            (flushes[following[valid]] - submitted[valid]) * 1e6)[0]
        out.update({f"batch.{key}": value for key, value in live["batch"].items()})
        per_shard = np.bincount(
            [shard for shard, *_ in traced.applied], minlength=deployment.N_SHARDS
        )
        out["routing.shard_imbalance"] = float(per_shard.max() / max(1e-9, per_shard.mean()))
        out["publish.generations"] = live["publish_generations"]
        out["reader.seqlock_retries"] = live["seqlock_retries"]
        out["reader.respawns"] = live["respawns"]
    out["routing.group_p50_us"] = _p50_tail(np.concatenate([
        tracer.durations_us("routing.shard"), tracer.durations_us("routing.group")
    ]))[0]

    frames = tracer.count("wal.append")
    records = tracer.records("wal.append")
    out["wal.append_p50_us"], out["wal.append_p99_us"] = _p50_tail(
        tracer.durations_us("wal.append"))
    out["wal.frames"] = frames
    out["wal.records_per_frame"] = records / max(1, frames)
    out["wal.bytes_per_record"] = live["wal_bytes"] / max(1, records)

    applies = tracer.durations_us("unlearn.apply", top_level_only=True)
    out["unlearn.apply_p50_us"], out["unlearn.apply_p99_us"] = _p50_tail(applies)
    n_deleted = sum(1 for _, kind, _ in traced.applied if kind == "delete")
    out["unlearn.us_per_record"] = float(applies.sum()) / max(1, n_deleted)
    out["unlearn.scalar_calls"] = tracer.count("unlearn.scalar")
    out["unlearn.batch_calls"] = tracer.count("unlearn.batch")
    out["unlearn.variant_switches"] = live["variant_switches"]
    out["unlearn.budget_remaining_min"] = live["budget_remaining_min"]
    out["learn.apply_p50_us"], out["learn.apply_p99_us"] = _p50_tail(
        tracer.durations_us("learn.apply"))

    splices = tracer.durations_us("splice.span")
    out["splice.count"] = int(splices.size)
    out["splice.p50_us"], out["splice.p99_us"] = _p50_tail(splices)
    publishes = tracer.durations_us("publish.shm")
    out["publish.count"] = int(publishes.size)
    out["publish.p50_us"], out["publish.p99_us"] = _p50_tail(publishes)
    if publishes.size:
        out["publish.bytes_mean"] = live["publish_bytes"] / publishes.size
    out["reader.roundtrip_p50_us"], out["reader.roundtrip_p99_us"] = _p50_tail(
        np.concatenate([tracer.durations_us("reader.votes"),
                        tracer.durations_us("reader.proba")]))
    out["kernel.predict_p50_us"], out["kernel.predict_p99_us"] = _p50_tail(
        tracer.durations_us("kernel.predict"))

    for key in ("fit_s", "pack_s", "spawn_s"):
        out[f"setup.{key}"] = timings[key]
    out["recover.replayed_ops"] = traced.gate["replayed_ops"]

    for op, kind in (("predict", PREDICT), ("delete", DELETE)):
        due, done = outcome.interval(kind)
        for layer, bands in shares(tracer.breakdown(due, done), done - due).items():
            for band, value in bands.items():
                out[f"{op}.share.{layer}.{band}"] = value
    if name == "inproc-write-mix":
        accounted = sum(out[f"delete.share.{layer}.p50"] for layer in COHERENT_LAYERS)
        out["trace.delete_unaccounted_frac"] = 1.0 - accounted

    def mean_latency(phase):
        result = phase.outcome
        return float(np.mean((result.done - result.due)[result.ok]))

    plain = _combine(untraced)
    out["trace.overhead_frac"] = mean_latency(traced) / mean_latency(plain) - 1.0
    out["driver.lateness_p99_us"] = _lateness_p99_us(plain.outcome)
    return out


# ---------------------------------------------------------------------- #
# run record
# ---------------------------------------------------------------------- #


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as source:
            for line in source:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as source:
            for line in source:
                mount, kind = line.split()[1:3]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def _record(name: str, args, work: Path, timings: dict, phases: list[Phase],
            size: dict) -> dict:
    config = {
        "workload": name, "traffic": WORKLOADS[name], "max_rate": MAX_RATE,
        "size": size, "epsilon": deployment.EPSILON, "n_shards": deployment.N_SHARDS,
        "model_seed": deployment.MODEL_SEED, "seconds": args.seconds,
    }
    phase = _combine(phases)
    outcome = phase.outcome
    lateness = _lateness_p99_us(outcome)
    return {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "wal_filesystem": _filesystem(work), "fsync": True,
        "latency_note": "write latencies include fsync on this machine's disk",
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest()[:16],
        "samples": {
            kind_name: int(np.count_nonzero((outcome.schedule.kind == kind) & outcome.ok))
            for kind, kind_name in schedule.KIND_NAMES.items()
        },
        "tail_percentile": {
            kind_name: median_and_tail(outcome.latency_us(kind))[2]
            for kind, kind_name in schedule.KIND_NAMES.items()
        },
        "setup": timings,
        "setup_note": "CPU seconds of this process, except setup_wall_s",
        "rounds": len(phases),
        "round_p50_us": {
            kind_name: [median_and_tail(p.outcome.latency_us(kind))[0] for p in phases]
            for kind, kind_name in ((PREDICT, "predict"), (DELETE, "delete"))
        },
        "measured_s": sum(p.outcome.elapsed for p in phases),
        "gate_s": sum(p.gate["gate_s"] for p in phases),
        "driver_lateness_p99_us": lateness,
        "generator_fell_behind": lateness > LATE_FLAG_US,
        "gate_problems": phase.gate["problems"],
        "errors": outcome.errors[:5],
    }


def _yardsticks(name: str, phases: list[Phase]) -> dict:
    """Paper figures, printed for reference and never gated."""
    found = {}
    phase = _combine(phases)
    if name == "inproc-write-mix":
        p50 = _p50(phases, DELETE)
        found["paper.fig3_delete_p50_us"] = p50
        print(f"Fig. 3 yardstick: delete p50 {p50:.1f} us "
              f"(paper: ~{PAPER_DELETE_US:.0f} us; fsync on)")
    if name == "fleet-read-mostly":
        ks, critical, n_in, n_out = _concurrent_ks(phase.outcome)
        found["paper.table2_ks"] = ks
        print(f"Table 2 yardstick: KS {ks:.3f} between predict latencies with a "
              f"deletion in flight (n={n_in}) and without (n={n_out}); "
              f"5% critical {critical:.3f}")
    return found


def run(args, work: Path, trace_dir: Path) -> tuple[dict, dict]:
    """One benchmark run; returns the run record and the result object."""
    name = args.workload
    size = deployment.SMOKE if args.smoke else deployment.FULL
    work.mkdir(parents=True, exist_ok=True)

    setup = deployment.deploy(WORKLOADS[name]["kind"], size, work / "untraced" / "round-0")
    timings = dict(setup.timings)
    untraced = _run_workload(setup, name, args, work / "untraced", extras=bool(args.trace))
    record = _record(name, args, work, timings, untraced, size)
    yardsticks = _yardsticks(name, untraced)
    passes = [untraced]

    if args.trace:
        tracer = Tracer()
        second = deployment.redeploy(setup, work / "traced" / "round-0")
        traced = _run_workload(second, name, args, work / "traced", tracer=tracer)
        passes.append(traced)
        tracer.write(trace_dir / f"{name}-seed{args.seed}.jsonl")
        metrics = _layer_metrics(name, timings, untraced, traced, tracer)
        metrics.update(yardsticks)
        units = dict(PER_LAYER)
        if name == "inproc-write-mix":
            covered = 1.0 - metrics["trace.delete_unaccounted_frac"]
            coherent = covered >= COHERENCE_REQUIRED
            record["trace_coherence"] = {
                "layers": list(COHERENT_LAYERS), "covered": covered,
                "required": COHERENCE_REQUIRED, "ok": coherent,
            }
            print(f"trace coherence: {' + '.join(COHERENT_LAYERS)} self time "
                  f"covers {covered:.1%} of traced delete p50 "
                  f"(required {COHERENCE_REQUIRED:.0%}); unaccounted {1 - covered:.1%}")
            if not coherent:
                print("trace coherence FAILED: the traced layers miss part of "
                      "the delete path", file=sys.stderr)
        record["gate_problems_traced"] = _combine(traced).gate["problems"]
    else:
        metrics = _end_to_end(timings["setup_s"], untraced)
        units = dict(END_TO_END)

    phases = [phase for one_pass in passes for phase in one_pass]
    return record, {
        "correct": all(phase.gate["correct"] for phase in phases),
        "attempted": int(sum(phase.attempted for phase in phases)),
        "failed": int(sum(phase.failed for phase in phases)),
        "metrics": {
            metric: {"value": float(metrics.get(metric, 0.0)), "unit": unit}
            for metric, unit in units.items()
        },
    }
