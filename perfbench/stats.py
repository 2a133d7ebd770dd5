"""Summary statistics shared by every workload of the benchmark."""

from __future__ import annotations

import math

import numpy as np

#: The highest tail percentile a timing is reported at.
MAX_TAIL = 99.0

#: A tail percentile is reported only with at least this many samples beyond.
MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Highest percentile (capped at p99) with ``MIN_BEYOND`` samples past it."""
    if n <= MIN_BEYOND:
        return 50.0
    supported = 100.0 * (1.0 - MIN_BEYOND / n)
    return max(50.0, min(MAX_TAIL, math.floor(supported)))


def median_and_tail(samples) -> tuple[float, float, float]:
    """``(p50, p_tail, tail percentile)`` of a latency sample."""
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        return 0.0, 0.0, 0.0
    tail = tail_percentile(values.size)
    p50, p_tail = np.percentile(values, [50.0, tail])
    return float(p50), float(p_tail), tail


def _windows(samples, times, per_window: int) -> list[np.ndarray]:
    """Samples split, in time order, into windows of at least ``per_window``."""
    values = np.asarray(samples, dtype=np.float64)
    order = np.argsort(np.asarray(times, dtype=np.float64), kind="stable")
    n_windows = max(1, values.size // per_window)
    return np.array_split(values[order], n_windows)


def lowest_stretch_median(samples, stretch, min_samples: int = 20) -> float:
    """Lowest median over the stretches of a run (``stretch`` labels each
    sample) that hold at least ``min_samples`` samples.

    On a shared host a neighbour's load only ever adds time, and it comes
    and goes: it slows one CPU at a time, by up to half, for seconds to
    minutes. The least disturbed stretch of the run is the steadiest
    reading of the program's own cost (the rule ``timeit`` follows). With
    no stretch large enough, the plain median.
    """
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        return 0.0
    stretch = np.asarray(stretch)
    medians = [
        np.median(values[stretch == label]) for label in np.unique(stretch)
        if np.count_nonzero(stretch == label) >= min_samples
    ]
    return float(min(medians) if medians else np.median(values))


def lowest_window_median(samples, times, per_window: int = 100) -> float:
    """:func:`lowest_stretch_median` over consecutive time windows of
    ``per_window`` samples; a sample smaller than two windows gives its
    plain median."""
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        return 0.0
    order = np.argsort(np.asarray(times, dtype=np.float64), kind="stable")
    window = np.empty(values.size, dtype=np.int64)
    window[order] = np.arange(values.size) * max(1, values.size // per_window) // values.size
    return lowest_stretch_median(values, window, min_samples=1)


def windowed_tail(samples, times, per_window: int = 1000) -> float:
    """Median over consecutive time windows of each window's tail percentile.

    Windows hold at least ``per_window`` samples, so each window's tail is
    p99 with ten samples beyond it. A tail set by a handful of rare stalls
    (a disk hiccup, a descheduled reader) moves one window's figure, not
    the run's.
    """
    if len(samples) == 0:
        return 0.0
    windows = _windows(samples, times, per_window)
    return float(np.median([median_and_tail(window)[1] for window in windows]))


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (max CDF distance)."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        return 0.0
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical(n: int, m: int, alpha: float = 0.05) -> float:
    """Asymptotic critical value of the two-sample KS test."""
    if n == 0 or m == 0:
        return 1.0
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n + m) / (n * m))
