"""Unit tests for repro.cluster.worker: worker spec, engine rebuild, shm hygiene."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.cluster.worker import build_worker_engine, make_worker_spec
from repro.hdc.encoders import RecordEncoder
from repro.kernels.packed import pack_bipolar
from repro.serve.engine import PackedInferenceEngine


@pytest.fixture()
def fitted_engine(small_problem):
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=5)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=5))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return PackedInferenceEngine(pipeline, name="unit")


@pytest.fixture()
def ensemble_engine(small_problem):
    # Bit-parity across processes holds for deterministic ("positive")
    # tie-breaks; a "random" encoder would consume per-engine RNG draws.
    encoder = RecordEncoder(dimension=512, num_levels=8, tie_break="positive", seed=9)
    pipeline = HDCPipeline(
        encoder, MultiModelHDC(models_per_class=3, iterations=1, seed=9)
    )
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return PackedInferenceEngine(pipeline, name="ens")


class TestWorkerSpec:
    def test_make_worker_spec_requires_packed_mode(self, small_problem):
        encoder = RecordEncoder(dimension=128, num_levels=4, seed=1)
        pipeline = HDCPipeline(encoder, BaselineHDC(seed=1))
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        engine = PackedInferenceEngine(pipeline, name="dense", mode="dense")
        with pytest.raises(ValueError, match="packed"):
            make_worker_spec(engine)

    def test_spec_strips_compiled_accumulator(self, fitted_engine):
        spec = make_worker_spec(fitted_engine)
        assert spec.encoder._accumulator is None
        # The parent engine's encoder keeps its compiled tables.
        assert fitted_engine.encoder._accumulator is not None
        assert spec.ensemble_shape is None
        assert spec.class_hypervectors is fitted_engine.classifier.class_hypervectors_
        # The bank rides the spec by value: the parent's own scoring words.
        assert spec.packed_bank is fitted_engine.packed_bank

    def test_build_worker_engine_matches_parent(self, fitted_engine, small_problem):
        queries = small_problem["test_features"][:16]
        spec = make_worker_spec(fitted_engine)
        worker_engine = build_worker_engine(spec)
        assert np.array_equal(
            worker_engine.decision_scores(queries),
            fitted_engine.decision_scores(queries),
        )
        # The worker scores with the spec's words, not a re-packed copy.
        assert worker_engine.packed_bank is spec.packed_bank

    def test_pickled_spec_rebuilds_bit_identical_engine(
        self, fitted_engine, small_problem
    ):
        # The spawn start method pickles the spec into the child.
        queries = small_problem["test_features"][:16]
        spec = pickle.loads(pickle.dumps(make_worker_spec(fitted_engine)))
        np.testing.assert_array_equal(
            spec.packed_bank.words, fitted_engine.packed_bank.words
        )
        worker_engine = build_worker_engine(spec)
        assert np.array_equal(
            worker_engine.decision_scores(queries),
            fitted_engine.decision_scores(queries),
        )

    def test_mismatched_bank_is_rejected(self, fitted_engine):
        spec = make_worker_spec(fitted_engine)
        num_classes = spec.class_hypervectors.shape[0]
        wrong = pack_bipolar(
            np.ones((num_classes + 1, spec.packed_bank.dimension), dtype=np.int8)
        )
        with pytest.raises(ValueError, match="packed bank"):
            build_worker_engine(dataclasses.replace(spec, packed_bank=wrong))

    def test_build_worker_engine_ensemble(self, ensemble_engine, small_problem):
        classifier = ensemble_engine.classifier
        queries = small_problem["test_features"][:12]
        spec = make_worker_spec(ensemble_engine)
        assert spec.ensemble_shape == classifier.model_hypervectors_.shape
        assert len(spec.packed_bank) == classifier.model_hypervectors_.shape[0] * 3
        worker_engine = build_worker_engine(spec)
        assert np.array_equal(
            worker_engine.decision_scores(queries),
            ensemble_engine.decision_scores(queries),
        )

    def test_pickled_ensemble_spec_rebuilds_bit_identical_engine(
        self, ensemble_engine, small_problem
    ):
        queries = small_problem["test_features"][:12]
        spec = pickle.loads(pickle.dumps(make_worker_spec(ensemble_engine)))
        worker_engine = build_worker_engine(spec)
        labels, scores = worker_engine.top_k(queries, k=2)
        expected_labels, expected_scores = ensemble_engine.top_k(queries, k=2)
        assert np.array_equal(labels, expected_labels)
        assert np.array_equal(scores, expected_scores)

    def test_worker_ensemble_refuses_dense_scoring(self, ensemble_engine):
        # The dense (K, N, D) bank never crosses to the worker: its stand-in
        # carries only the shape, so dense scoring must fail loudly.
        worker_engine = build_worker_engine(make_worker_spec(ensemble_engine))
        dimension = worker_engine.dimension
        with pytest.raises(RuntimeError, match="not resident"):
            worker_engine.classifier.decision_scores(
                np.ones((1, dimension), dtype=np.int8)
            )


class TestAdoptPackedBank:
    def test_shared_rule_shape_mismatch_rejected(self, encoded_problem):
        classifier = BaselineHDC(seed=0)
        classifier.fit(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        )
        wrong = pack_bipolar(
            np.ones((classifier.num_classes_ + 1, encoded_problem["dimension"]), dtype=np.int8)
        )
        with pytest.raises(ValueError, match="packed bank"):
            classifier.adopt_packed_bank(wrong)

    def test_adopted_bank_is_served_verbatim(self, encoded_problem):
        classifier = BaselineHDC(seed=0)
        classifier.fit(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        )
        bank = pack_bipolar(classifier.class_hypervectors_)
        classifier.adopt_packed_bank(bank)
        assert classifier.packed_inference_bank() is bank


def _shm_names() -> set:
    from pathlib import Path

    root = Path("/dev/shm")
    return {entry.name for entry in root.iterdir()} if root.is_dir() else set()


class TestShmHygieneUnderChaos:
    """Crashes and teardown races must never leak shared-memory segments."""

    def test_pool_creates_only_its_stats_slabs(self, fitted_engine, small_problem):
        from repro.cluster import ClusterDispatcher

        before = _shm_names()
        with ClusterDispatcher(fitted_engine, num_workers=2) as dispatcher:
            dispatcher.top_k(small_problem["test_features"][:4], k=1)
            # One stats slab per worker slot and nothing for the bank, which
            # travels inside the worker spec.
            created = _shm_names() - before
            assert created == {slab.name.lstrip("/") for slab in dispatcher._slabs}
            assert len(created) == 2
        assert _shm_names() - before == set()

    def test_crash_during_drain_leaves_no_segments(self, fitted_engine, small_problem):
        from repro.cluster import ClusterDispatcher
        from repro.faults import FaultPlan, FaultRule

        queries = small_problem["test_features"]
        before = _shm_names()
        plan = FaultPlan(
            rules=(FaultRule(kind="crash", at=2, workers=(0,)),), seed=0
        )
        dispatcher = ClusterDispatcher(
            fitted_engine, num_workers=2, fault_plan=plan
        )
        try:
            dispatcher.top_k(queries[:4], k=1)  # healthy warm call
            dispatcher.top_k(queries[:8], k=1)  # worker 0 crashes, masked
            assert dispatcher.respawns == 1
            # A worker dies again right as the pool shuts down: close() must
            # still unlink the stats slabs.
            dispatcher._workers[0].process.kill()
            dispatcher._workers[0].process.join(timeout=5.0)
        finally:
            dispatcher.close()
        assert _shm_names() - before == set()

    def test_serve_app_chaos_drain_leaves_no_segments(self, fitted_engine, small_problem):
        from repro.faults import FaultPlan, FaultRule
        from repro.serve import ModelRegistry, ServeApp

        queries = small_problem["test_features"]
        before = _shm_names()
        registry = ModelRegistry()
        registry.register("m", fitted_engine)
        plan = FaultPlan(
            rules=(FaultRule(kind="crash", at=2, workers=(0,)),), seed=0
        )
        app = ServeApp(
            registry,
            num_processes=2,
            cache_size=0,
            max_wait_ms=0.5,
            fault_plan=plan,
        )
        try:
            app.predict({"features": queries[:4].tolist()})
            app.predict({"features": queries[:4].tolist()})  # crash masked
        finally:
            app.begin_drain()
            app.drain(grace_seconds=5.0)
        assert _shm_names() - before == set()
