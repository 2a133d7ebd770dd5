"""Self-test of the benchmark at smoke size.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload must emit exactly the metrics ``BENCHMARK.json`` names for
its mode, with their units; the traced write mix must pass its trace
coherence check and reach the batch kernel; the correctness gate must
reject a twin with one leaf count altered; and the benchmark must refuse
to run (non-zero exit, no result) where the program's sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _run(cwd: Path, workload: str, trace: int, timeout: float = 300.0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["fleet-read-mostly", "inproc-write-mix"])
def test_workload_emits_every_metric_with_units(workload, trace):
    completed = _run(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr[-2000:]
    *_, record_line, result_line = completed.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    if trace and workload == "inproc-write-mix":
        # The write layers' self times explain the traced delete p50, and
        # whole-user erasures reach the vectorised batch kernel.
        record = json.loads(record_line)
        assert record["trace_coherence"]["ok"], record["trace_coherence"]
        assert result["metrics"]["unlearn.batch_calls"]["value"] > 0
        assert result["metrics"]["wal.records_per_frame"]["value"] > 1


def test_declared_metrics_match_the_code():
    from perfbench import bench

    assert [(e["name"], e["unit"]) for e in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(e["name"], e["unit"]) for e in SPEC["per_layer"]] == list(bench.PER_LAYER)
    assert {e["name"] for e in SPEC["workloads"]} <= set(bench.WORKLOADS)


def test_gate_rejects_a_twin_with_one_altered_leaf(tmp_path):
    from perfbench import deploy, gate
    from repro.core.nodes import Leaf, iter_nodes

    setup = deploy.deploy("inproc", deploy.SMOKE, tmp_path / "store")
    try:
        applied = []
        for row in range(5):
            record = setup.data.train.record(row)
            assert setup.engine.unlearn(f"req-{row}", record).succeeded
            applied.append((0, "delete", record))

        def alter_one_leaf(twins):
            leaf = next(node for node in iter_nodes(twins[0].trees[0].root)
                        if isinstance(node, Leaf) and node.n > 1)
            leaf.n -= 1

        assert gate.check(setup, applied, n_recover=1)["correct"]
        verdict = gate.check(setup, applied, n_recover=1, tamper=alter_one_leaf)
        assert not verdict["correct"]
        assert any("twin" in problem for problem in verdict["problems"])
    finally:
        setup.close()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, "inproc-write-mix", 0, timeout=60.0)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
