"""Unit tests for repro.eval.significance."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.eval.significance import (
    mcnemar_test,
    paired_accuracy_ttest,
    wilson_interval,
)


class TestMcNemar:
    def test_identical_classifiers_not_significant(self):
        labels = np.array([0, 1, 1, 0, 1, 0])
        predictions = np.array([0, 1, 0, 0, 1, 1])
        result = mcnemar_test(predictions, predictions, labels)
        assert result.p_value == 1.0
        assert not result.significant()

    def test_clearly_better_classifier_is_significant(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=300)
        good = labels.copy()  # always right
        bad = labels.copy()
        flip = rng.random(300) < 0.3  # wrong on 30% of samples
        bad[flip] = 1 - bad[flip]
        result = mcnemar_test(good, bad, labels)
        assert result.significant(alpha=0.01)

    def test_symmetric_disagreement_not_significant(self):
        labels = np.zeros(40, dtype=int)
        a = labels.copy()
        b = labels.copy()
        a[:10] = 1  # a wrong on the first 10
        b[10:20] = 1  # b wrong on the next 10
        result = mcnemar_test(a, b, labels)
        assert result.p_value > 0.5

    def test_detail_counts(self):
        labels = np.array([0, 0, 0, 0])
        a = np.array([0, 0, 1, 1])
        b = np.array([1, 0, 0, 1])
        result = mcnemar_test(a, b, labels)
        assert "discordant pairs: 2" in result.detail


class TestPairedTTest:
    def test_consistent_advantage_is_significant(self):
        a = [0.92, 0.93, 0.91, 0.94, 0.92]
        b = [0.85, 0.86, 0.84, 0.88, 0.85]
        result = paired_accuracy_ttest(a, b)
        assert result.significant(alpha=0.01)
        assert result.statistic > 0

    def test_identical_sequences(self):
        result = paired_accuracy_ttest([0.9, 0.91], [0.9, 0.91])
        assert result.p_value == 1.0

    def test_constant_nonzero_difference(self):
        result = paired_accuracy_ttest([0.9, 0.8], [0.85, 0.75])
        assert result.p_value == 0.0
        assert result.significant()

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_accuracy_ttest([0.9], [0.8, 0.7])
        with pytest.raises(ValueError):
            paired_accuracy_ttest([], [])
        with pytest.raises(ValueError):
            paired_accuracy_ttest([0.9], [0.8])


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(80, 100)
        assert low < 0.8 < high

    def test_narrows_with_more_samples(self):
        low_small, high_small = wilson_interval(8, 10)
        low_large, high_large = wilson_interval(800, 1000)
        assert (high_large - low_large) < (high_small - low_small)

    def test_bounds_clamped(self):
        low, high = wilson_interval(0, 10)
        assert low == pytest.approx(0.0, abs=1e-9)
        low, high = wilson_interval(10, 10)
        assert high == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            wilson_interval(5, 10, confidence=1.0)


def test_package_imports_without_scipy():
    # scipy is a test/eval dependency only: importing the package and its
    # CLI (every ``repro serve`` launch) must work where it is absent.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "import repro, repro.cli; "
        "assert 'scipy.stats' not in sys.modules"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
