"""Shared fixtures for the test suite.

Everything here is intentionally tiny (small D, few samples) so the whole
suite stays fast; the benchmark harness is where paper-scale settings live.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels.encode as encode_module
from repro.datasets.synthetic import make_gaussian_classes
from repro.hdc.encoders import RecordEncoder
from repro.kernels import dispatch


@pytest.fixture(scope="session")
def rng():
    """A session-wide reproducible generator for ad-hoc randomness in tests."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_problem():
    """A small, clearly separable 4-class problem in raw feature space."""
    train_features, train_labels, test_features, test_labels = make_gaussian_classes(
        num_classes=4,
        num_features=24,
        train_size=240,
        test_size=80,
        class_sep=3.0,
        clusters_per_class=1,
        noise_std=0.8,
        seed=7,
    )
    return {
        "train_features": train_features,
        "train_labels": train_labels,
        "test_features": test_features,
        "test_labels": test_labels,
        "num_classes": 4,
    }


@pytest.fixture(scope="session")
def encoded_problem(small_problem):
    """The small problem encoded once with a record encoder (D=1024)."""
    encoder = RecordEncoder(dimension=1024, num_levels=16, seed=11)
    encoder.fit(small_problem["train_features"])
    return {
        "encoder": encoder,
        "train_hypervectors": encoder.encode(small_problem["train_features"]),
        "train_labels": small_problem["train_labels"],
        "test_hypervectors": encoder.encode(small_problem["test_features"]),
        "test_labels": small_problem["test_labels"],
        "num_classes": small_problem["num_classes"],
        "dimension": 1024,
    }


@pytest.fixture(scope="session")
def multimodal_problem():
    """A harder 3-class problem whose classes have two clusters each.

    Centroid training is visibly sub-optimal here, which is what the
    integration tests about strategy ordering rely on.
    """
    train_features, train_labels, test_features, test_labels = make_gaussian_classes(
        num_classes=3,
        num_features=32,
        train_size=360,
        test_size=150,
        class_sep=2.0,
        clusters_per_class=3,
        noise_std=1.0,
        seed=23,
    )
    return {
        "train_features": train_features,
        "train_labels": train_labels,
        "test_features": test_features,
        "test_labels": test_labels,
        "num_classes": 3,
    }


@pytest.fixture
def kernel_pool(monkeypatch):
    """Force the kernel pool width and, optionally, the encode scratch budget.

    ``configure(width, scratch_bytes=None)`` fakes a CPU mask of *width* CPUs,
    starts from no pool and
    returns the list the encode kernel's pool dispatches are recorded in from
    then on.  Every pool built is shut down at teardown.
    """
    created = []
    dispatches = []

    def shared_executor(width):
        executor = dispatch.shared_executor(width)
        if executor not in created:
            created.append(executor)
        dispatches.append(executor)
        return executor

    def configure(width, scratch_bytes=None):
        monkeypatch.setattr(dispatch, "available_cpus", lambda: list(range(width)))
        monkeypatch.setattr(dispatch, "_POOL", None)
        if scratch_bytes is not None:
            monkeypatch.setattr(encode_module, "_SCRATCH_BYTES", scratch_bytes)
        dispatches.clear()
        return dispatches

    monkeypatch.setattr(encode_module, "shared_executor", shared_executor)
    yield configure
    for executor in created:
        executor.shutdown(wait=True)
