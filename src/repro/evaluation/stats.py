"""Repeated-run statistics, timing helpers and distribution tests.

The paper reports the mean and standard deviation over repeated runs for
every metric, and uses two-sample Kolmogorov-Smirnov tests to show that
(a) throughput with and without mixed-in unlearning requests and (b)
accuracy after unlearning versus after retraining are indistinguishable
(Sections 6.2.2 and 6.3.1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class RunStats:
    """Mean and standard deviation of a repeated measurement."""

    mean: float
    std: float
    n_runs: int

    def format(self, precision: int = 3) -> str:
        return f"{self.mean:.{precision}f} (±{self.std:.{precision}f})"


def summarize(samples: Sequence[float]) -> RunStats:
    """Aggregate repeated measurements into :class:`RunStats`."""
    values = np.asarray(list(samples), dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot summarise an empty sample")
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return RunStats(mean=float(values.mean()), std=std, n_runs=int(values.size))


def same_distribution(
    samples_a: Sequence[float], samples_b: Sequence[float], alpha: float = 0.05
) -> tuple[bool, float]:
    """Two-sample Kolmogorov-Smirnov test.

    Returns ``(indistinguishable, p_value)`` where ``indistinguishable`` is
    ``True`` when the test does *not* reject the null hypothesis of a common
    distribution at level ``alpha`` -- the paper's criterion for "no
    distributional difference".
    """
    # Imported by its only user: at module level scipy cost every importer
    # of repro.evaluation (the serving path too) 0.75 s of CPU and 70 MB.
    from scipy import stats as scipy_stats

    result = scipy_stats.ks_2samp(np.asarray(samples_a), np.asarray(samples_b))
    return bool(result.pvalue > alpha), float(result.pvalue)


class Timer:
    """Context manager measuring wall-clock time with ``perf_counter``.

    Example::

        with Timer() as timer:
            model.fit(train)
        print(timer.seconds)
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.seconds: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self.seconds = time.perf_counter() - self._start

    @property
    def microseconds(self) -> float:
        return self.seconds * 1e6

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3
