"""Tests for run statistics, timers and the KS helper."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.evaluation.stats import RunStats, Timer, same_distribution, summarize


class TestSummarize:
    def test_mean_and_std(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.std == pytest.approx(1.0)
        assert stats.n_runs == 3

    def test_single_sample_has_zero_std(self):
        stats = summarize([4.2])
        assert stats.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_format(self):
        assert RunStats(mean=1.2345, std=0.5, n_runs=3).format(2) == "1.23 (±0.50)"


class TestSameDistribution:
    def test_identical_samples_pass(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=200)
        same, p_value = same_distribution(samples, samples)
        assert same
        assert p_value == pytest.approx(1.0)

    def test_shifted_samples_fail(self):
        rng = np.random.default_rng(1)
        first = rng.normal(0.0, 1.0, size=300)
        second = rng.normal(5.0, 1.0, size=300)
        same, p_value = same_distribution(first, second)
        assert not same
        assert p_value < 0.01

    def test_same_source_passes(self):
        rng = np.random.default_rng(2)
        first = rng.normal(size=200)
        second = rng.normal(size=200)
        same, _ = same_distribution(first, second)
        assert same

    def test_serving_imports_leave_scipy_unloaded(self):
        """scipy loads only when a KS test runs, with unchanged p-values."""
        from scipy import stats as scipy_stats

        script = (
            "import sys, numpy as np\n"
            "import repro.core, repro.serving, repro.sharding, repro.persistence.store\n"
            "print('scipy' in sys.modules)\n"
            "from repro.evaluation.stats import same_distribution\n"
            "rng = np.random.default_rng(3)\n"
            "print(repr(same_distribution(rng.normal(size=150), rng.normal(0.3, size=150))[1]))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, check=True, timeout=120,
        )
        loaded, p_value = completed.stdout.split()
        assert loaded == "False"
        rng = np.random.default_rng(3)
        expected = scipy_stats.ks_2samp(rng.normal(size=150), rng.normal(0.3, size=150))
        assert float(p_value) == float(expected.pvalue)


class TestTimer:
    def test_measures_elapsed_time(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.seconds >= 0.009
        assert timer.milliseconds == pytest.approx(timer.seconds * 1e3)
        assert timer.microseconds == pytest.approx(timer.seconds * 1e6)
