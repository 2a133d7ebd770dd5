"""The repository's benchmark: one request path, two workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-read-mostly --seed 1 \
        --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``fleet-read-mostly`` -- open-loop Poisson arrivals through the asyncio
  gateway, shard-aware micro-batcher and K=2 shared-memory fleet: 99%
  single-row predictions, 1% single-record deletions.
* ``inproc-write-mix`` -- one caller issuing predict / unlearn /
  unlearn_batch / learn_one straight at an in-process
  ``ReplicatedServingEngine``, in rounds sized by the deletion budget.

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload twice on identical deployments -- once
untraced, once with every layer wrapped -- and prints the per-layer
metrics, the layer shares of predict and delete latency, and the tracing
overhead. Every run ends with the correctness gate (:mod:`perfbench.gate`).
The last line of standard output is the JSON result; the line before it
is the run record (machine, versions, WAL filesystem, config hash).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet-read-mostly", "inproc-write-mix")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small dataset and model (self-test); figures are not comparable",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # Replace this script's own directory on the path: its module names
    # (``trace`` among them) would shadow the standard library.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run

    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        record, result = run(args, work, ROOT / ".perfbench_work" / "traces")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
