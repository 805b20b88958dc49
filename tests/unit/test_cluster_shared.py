"""Unit tests for repro.cluster.shared: store, handles, worker rebuild."""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.cluster.errors import BankEvictedError
from repro.cluster.shared import (
    SharedModelStore,
    attach_bank,
    build_worker_engine,
    make_worker_spec,
)
from repro.hdc.encoders import RecordEncoder
from repro.kernels.packed import pack_bipolar
from repro.serve.engine import PackedInferenceEngine


def _random_packed(rng, rows=6, dimension=192):
    dense = rng.choice(np.array([-1, 1], dtype=np.int8), size=(rows, dimension))
    return pack_bipolar(dense)


def _segment_exists(name: str) -> bool:
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


@pytest.fixture()
def fitted_engine(small_problem):
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=5)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=5))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return PackedInferenceEngine(pipeline, name="unit")


class TestSharedModelStore:
    def test_publish_attach_roundtrip(self, rng):
        packed = _random_packed(rng)
        with SharedModelStore() as store:
            handle = store.publish("m@v1", packed)
            assert handle.rows == len(packed)
            assert handle.dimension == packed.dimension
            with attach_bank(handle) as attached:
                assert np.array_equal(attached.packed.words, packed.words)
                assert attached.packed.dimension == packed.dimension

    def test_attached_view_is_zero_copy_and_readonly(self, rng):
        packed = _random_packed(rng)
        with SharedModelStore() as store:
            handle = store.publish("m@v1", packed)
            with attach_bank(handle) as attached:
                # A view over the segment buffer, not a materialised copy.
                assert not attached.packed.words.flags.owndata
                assert not attached.packed.words.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    attached.packed.words[0, 0] = np.uint64(1)

    def test_publish_same_key_is_refcounted(self, rng):
        packed = _random_packed(rng)
        store = SharedModelStore()
        first = store.publish("m@v1", packed)
        second = store.publish("m@v1", packed)
        assert first.segment == second.segment
        assert len(store) == 1
        store.release("m@v1")
        assert _segment_exists(first.segment)  # one reference still held
        store.release("m@v1")
        assert not _segment_exists(first.segment)
        assert len(store) == 0

    def test_release_unknown_key_is_noop(self):
        store = SharedModelStore()
        assert store.release("nope") is False

    def test_double_release_is_idempotent(self, rng):
        store = SharedModelStore()
        handle = store.publish("m@v1", _random_packed(rng))
        assert store.release("m@v1") is True
        assert not _segment_exists(handle.segment)
        # A second (buggy or racing) release must not raise or unlink anew.
        assert store.release("m@v1") is False

    def test_close_unlinks_everything(self, rng):
        store = SharedModelStore()
        handles = [
            store.publish(f"m@v{i}", _random_packed(rng, rows=3)) for i in range(3)
        ]
        assert store.resident_bytes == sum(handle.nbytes for handle in handles)
        store.close()
        for handle in handles:
            assert not _segment_exists(handle.segment)
        with pytest.raises(RuntimeError):
            store.publish("late", _random_packed(rng))

    def test_handle_and_queries(self, rng):
        with SharedModelStore() as store:
            handle = store.publish("a", _random_packed(rng))
            assert store.handle("a") == handle
            assert "a" in store and "b" not in store
            assert store.keys() == ["a"]


class TestWorkerSpec:
    def test_make_worker_spec_requires_packed_mode(self, small_problem):
        encoder = RecordEncoder(dimension=128, num_levels=4, seed=1)
        pipeline = HDCPipeline(encoder, BaselineHDC(seed=1))
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        engine = PackedInferenceEngine(pipeline, name="dense", mode="dense")
        with pytest.raises(ValueError, match="packed"):
            make_worker_spec(engine, bank_handle=None)

    def test_spec_strips_compiled_accumulator(self, fitted_engine, rng):
        with SharedModelStore() as store:
            handle = store.publish("unit@v1", fitted_engine.packed_bank)
            spec = make_worker_spec(fitted_engine, handle)
            assert spec.encoder._accumulator is None
            # The parent engine's encoder keeps its compiled tables.
            assert fitted_engine.encoder._accumulator is not None
            assert spec.ensemble_shape is None
            assert spec.class_hypervectors is fitted_engine.classifier.class_hypervectors_

    def test_build_worker_engine_matches_parent(self, fitted_engine, small_problem):
        queries = small_problem["test_features"][:16]
        with SharedModelStore() as store:
            handle = store.publish("unit@v1", fitted_engine.packed_bank)
            spec = make_worker_spec(fitted_engine, handle)
            attached, worker_engine = build_worker_engine(spec)
            try:
                assert np.array_equal(
                    worker_engine.decision_scores(queries),
                    fitted_engine.decision_scores(queries),
                )
                # The worker engine's resident words ARE the shared segment.
                assert worker_engine.packed_bank is attached.packed
            finally:
                attached.close()

    def test_build_worker_engine_ensemble(self, small_problem):
        # Bit-parity across processes holds for deterministic ("positive")
        # tie-breaks; a "random" encoder would consume per-engine RNG draws.
        encoder = RecordEncoder(
            dimension=512, num_levels=8, tie_break="positive", seed=9
        )
        pipeline = HDCPipeline(
            encoder, MultiModelHDC(models_per_class=3, iterations=1, seed=9)
        )
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        classifier = pipeline.classifier
        engine = PackedInferenceEngine(pipeline, name="ens")
        queries = small_problem["test_features"][:12]
        with SharedModelStore() as store:
            handle = store.publish("ens@v1", engine.packed_bank)
            spec = make_worker_spec(engine, handle)
            assert spec.ensemble_shape == classifier.model_hypervectors_.shape
            attached, worker_engine = build_worker_engine(spec)
            try:
                assert np.array_equal(
                    worker_engine.decision_scores(queries),
                    engine.decision_scores(queries),
                )
            finally:
                attached.close()


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
            # still unlink the bank and the stats slabs.
            dispatcher._workers[0].process.kill()
            dispatcher._workers[0].process.join(timeout=5.0)
        finally:
            dispatcher.close()
        assert _shm_names() - before == set()

    def test_unlink_vs_attach_race_is_clean(self, rng):
        before = _shm_names()
        store = SharedModelStore()
        handle = store.publish("m@v1", _random_packed(rng))
        store.close()  # the unlink wins the race
        with pytest.raises(FileNotFoundError):
            attach_bank(handle)
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


class TestFleetPaging:
    """Residency cap, lease/generation protocol, and eviction races."""

    def test_residency_cap_evicts_lru_unleased(self, rng):
        with SharedModelStore(max_resident=2) as store:
            first = store.publish("a@v1", _random_packed(rng))
            store.publish("b@v1", _random_packed(rng))
            store.publish("c@v1", _random_packed(rng))  # evicts "a" (LRU)
            stats = store.stats()
            assert stats["resident_banks"] == 2
            assert stats["evictions"] == 1
            assert stats["peak_resident_banks"] == 2
            assert not _segment_exists(first.segment)
            with pytest.raises(BankEvictedError):
                store.lease("a@v1")

    def test_lease_pins_against_cap_eviction(self, rng):
        with SharedModelStore(max_resident=2, evict_wait_seconds=0.2) as store:
            store.publish("a@v1", _random_packed(rng))
            store.publish("b@v1", _random_packed(rng))
            with store.lease("a@v1"), store.lease("b@v1"):
                # Every resident bank is pinned: a third publish must wait
                # for a lease to drop, then give up — never unlink a leased
                # segment.
                with pytest.raises(RuntimeError, match="cap"):
                    store.publish("c@v1", _random_packed(rng))
            assert store.stats()["resident_banks"] == 2

    def test_evict_defers_until_last_lease_drops(self, rng):
        with SharedModelStore() as store:
            handle = store.publish("a@v1", _random_packed(rng))
            lease = store.lease("a@v1")
            assert store.evict("a@v1") is False  # deferred, not unlinked
            assert _segment_exists(handle.segment)
            with pytest.raises(BankEvictedError):
                store.lease("a@v1")  # draining: no new pins
            lease.release()
            assert not _segment_exists(handle.segment)

    def test_restore_bumps_generation_and_counts(self, rng):
        with SharedModelStore() as store:
            packed = _random_packed(rng)
            handle = store.publish("a@v1", packed)
            store.evict("a@v1")
            restored = store.restore("a@v1", packed)
            assert restored.generation > handle.generation
            assert store.stats()["restores"] == 1
            with attach_bank(restored) as bank:
                np.testing.assert_array_equal(bank.packed.words, packed.words)

    def test_release_while_leased_defers_unlink(self, rng):
        with SharedModelStore() as store:
            handle = store.publish("a@v1", _random_packed(rng))
            lease = store.lease("a@v1")
            assert store.release("a@v1") is False  # deferred on the lease
            assert _segment_exists(handle.segment)
            with attach_bank(handle) as bank:
                assert bank.packed.words.shape == (6, 3)
            lease.release()
            assert not _segment_exists(handle.segment)
            assert len(store) == 0

    def test_parallel_publish_release_is_consistent(self, rng):
        import threading

        before = _shm_names()
        packs = [_random_packed(rng) for _ in range(4)]
        with SharedModelStore(max_resident=2) as store:
            barrier = threading.Barrier(8)
            errors = []

            def churn(index):
                barrier.wait()
                key = f"m{index % 4}@v1"
                try:
                    for _ in range(25):
                        store.publish(key, packs[index % 4])
                        try:
                            lease = store.lease(key)
                        except BankEvictedError:
                            store.restore(key, packs[index % 4])
                        else:
                            lease.release()
                        store.release(key)
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [
                threading.Thread(target=churn, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            stats = store.stats()
            assert stats["leases"] == 0
            assert stats["resident_banks"] <= 2
        assert _shm_names() - before == set()
