"""Every script under ``examples/`` runs to completion.

Nothing imports the examples, so a renamed or removed public name would
break them silently. Each one runs in a fresh interpreter with the source
tree on the path and must exit with status 0. They take seconds each, so
the test is slow-marked and runs under ``make test-all``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.slow
@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script: Path, tmp_path: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Run from a scratch directory so anything an example writes stays
    # out of the repository.
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]


def test_examples_exist() -> None:
    assert EXAMPLES, "no example scripts found"
