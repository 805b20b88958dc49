"""Unit tests for ClusterDispatcher: parity, crash recovery, cleanup, faults."""

from __future__ import annotations

import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.cluster import (
    ClusterDispatcher,
    DeadlineExceededError,
    SharedModelStore,
    WorkerCrashedError,
)
from repro.faults import FaultPlan, FaultRule
from repro.hdc.encoders import RecordEncoder
from repro.serve.engine import PackedInferenceEngine


def _segment_exists(name: str) -> bool:
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


@pytest.fixture(scope="module")
def served(small_problem):
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=5)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=5))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    engine = PackedInferenceEngine(pipeline, name="disp")
    return engine, small_problem["test_features"]


@pytest.fixture()
def dispatcher(served):
    engine, _ = served
    with ClusterDispatcher(engine, num_workers=2) as dispatcher:
        yield dispatcher


class TestDispatch:
    def test_rejects_dense_engines(self, small_problem):
        encoder = RecordEncoder(dimension=128, num_levels=4, seed=1)
        pipeline = HDCPipeline(encoder, BaselineHDC(seed=1))
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        engine = PackedInferenceEngine(pipeline, name="dense", mode="dense")
        with pytest.raises(ValueError, match="packed"):
            ClusterDispatcher(engine, num_workers=1)

    def test_rejects_bad_worker_count(self, served):
        engine, _ = served
        with pytest.raises(ValueError, match="num_workers"):
            ClusterDispatcher(engine, num_workers=0)

    def test_top_k_and_scores_match_single_process(self, dispatcher, served):
        engine, queries = served
        labels, scores = dispatcher.top_k(queries, k=3)
        expected_labels, expected_scores = engine.top_k(queries, k=3)
        assert np.array_equal(labels, expected_labels)
        assert np.array_equal(scores, expected_scores)
        assert np.array_equal(
            dispatcher.decision_scores(queries), engine.decision_scores(queries)
        )
        assert np.array_equal(dispatcher.predict(queries), engine.predict(queries))

    def test_single_sample_round_robin(self, dispatcher, served):
        engine, queries = served
        for row in queries[:5]:
            labels, _ = dispatcher.top_k(row, k=1)
            assert labels.shape == (1, 1)
            assert labels[0, 0] == engine.predict(row[None, :])[0]

    def test_worker_value_error_propagates(self, dispatcher):
        with pytest.raises(ValueError, match="columns"):
            dispatcher.top_k(np.zeros((4, 3)), k=1)
        # The pool survives a request-level error.
        assert dispatcher.ping()

    def test_ping_reports_distinct_pids(self, dispatcher):
        pids = dispatcher.ping()
        assert len(pids) == 2
        assert len(set(pids)) == 2


class TestCrashRecovery:
    def test_mid_batch_crash_is_masked_by_shard_retry(self, served):
        engine, queries = served
        with ClusterDispatcher(engine, num_workers=2) as dispatcher:
            dispatcher.poison_worker(0)
            # The poisoned worker dies mid-batch; the dispatcher retires the
            # slot, respawns it, and retries the shard once — so the request
            # itself succeeds, bit-identical, with the crash visible only in
            # the counters.
            labels, _ = dispatcher.top_k(queries, k=1)
            assert np.array_equal(labels, engine.top_k(queries, k=1)[0])
            assert dispatcher.respawns == 1
            assert dispatcher.shard_retries == 1

    def test_dead_worker_found_at_send_is_respawned_transparently(self, served):
        engine, queries = served
        with ClusterDispatcher(engine, num_workers=2) as dispatcher:
            dispatcher._workers[0].process.kill()
            dispatcher._workers[0].process.join(timeout=5.0)
            labels, _ = dispatcher.top_k(queries, k=1)
            assert np.array_equal(labels, engine.top_k(queries, k=1)[0])
            assert dispatcher.respawns == 1


class TestCleanup:
    def test_close_stops_workers_and_unlinks_segment(self, served):
        engine, queries = served
        dispatcher = ClusterDispatcher(engine, num_workers=2)
        segment = dispatcher._spec.bank_handle.segment
        processes = [worker.process for worker in dispatcher._workers]
        dispatcher.top_k(queries[:4], k=1)
        dispatcher.close()
        assert not _segment_exists(segment)
        for process in processes:
            assert not process.is_alive()
        with pytest.raises(RuntimeError, match="closed"):
            dispatcher.top_k(queries[:4], k=1)
        dispatcher.close()  # idempotent

    def test_shared_store_refcounting_across_dispatchers(self, served):
        engine, queries = served
        with SharedModelStore() as store:
            first = ClusterDispatcher(engine, num_workers=1, store=store, name="m@v1")
            second = ClusterDispatcher(engine, num_workers=1, store=store, name="m@v1")
            segment = first._spec.bank_handle.segment
            assert second._spec.bank_handle.segment == segment
            first.close()
            assert _segment_exists(segment)
            labels, _ = second.top_k(queries[:4], k=1)
            assert labels.shape == (4, 1)
            second.close()
            assert not _segment_exists(segment)

    def test_info_shape(self, dispatcher):
        info = dispatcher.info()
        assert info["num_workers"] == 2
        assert info["shared_bank_bytes"] > 0
        assert len(info["worker_pids"]) == 2


def _plan(*rules: FaultRule, hang_seconds: float = 30.0) -> FaultPlan:
    return FaultPlan(rules=tuple(rules), seed=0, hang_seconds=hang_seconds)


class TestFaultInjection:
    """Injected worker faults must be masked by retry-once or surface typed."""

    def test_hang_watchdog_retires_and_masks(self, served):
        engine, queries = served
        # Worker 0 hangs on its second request; the watchdog must detect the
        # still-alive-but-silent worker at request_timeout, terminate it, and
        # retry the shard on the respawned pool — the regression test for the
        # hung-worker leak where `is_alive()` kept returning the same stuck
        # process forever.
        plan = _plan(FaultRule(kind="hang", at=2, workers=(0,)))
        with ClusterDispatcher(
            engine, num_workers=2, request_timeout=0.75, fault_plan=plan
        ) as dispatcher:
            dispatcher.top_k(queries[:4], k=1)  # count 1: healthy warm call
            started = time.monotonic()
            labels, _ = dispatcher.top_k(queries, k=1)
            elapsed = time.monotonic() - started
            assert np.array_equal(labels, engine.top_k(queries, k=1)[0])
            assert dispatcher.hangs == 1
            assert dispatcher.respawns == 1
            assert dispatcher.shard_retries == 1
            assert elapsed < 10.0  # watchdog, not the 30 s hang
            # The respawned pool is healthy (count restarted, at=2 re-arms
            # only on the second request of the new life — warm past it).
            assert dispatcher.ping()

    def test_repeated_hang_surfaces_worker_crashed(self, served):
        engine, queries = served
        # at=1 re-fires on every respawned life: the retry hangs too, so the
        # dispatcher must give up with a typed error instead of looping.
        plan = _plan(FaultRule(kind="hang", at=1, workers=(0,)))
        with ClusterDispatcher(
            engine, num_workers=2, request_timeout=0.5, fault_plan=plan
        ) as dispatcher:
            with pytest.raises(WorkerCrashedError):
                dispatcher.top_k(queries, k=1)
            assert dispatcher.hangs == 2

    def test_error_reply_is_retried_without_respawn(self, served):
        engine, queries = served
        plan = _plan(FaultRule(kind="error", at=1, workers=(0,)))
        with ClusterDispatcher(
            engine, num_workers=2, fault_plan=plan
        ) as dispatcher:
            labels, _ = dispatcher.top_k(queries, k=1)
            assert np.array_equal(labels, engine.top_k(queries, k=1)[0])
            assert dispatcher.worker_faults == 1
            assert dispatcher.shard_retries == 1
            assert dispatcher.respawns == 0

    def test_dropped_pipe_is_masked(self, served):
        engine, queries = served
        plan = _plan(FaultRule(kind="drop", at=2, workers=(0,)))
        with ClusterDispatcher(
            engine, num_workers=2, fault_plan=plan
        ) as dispatcher:
            dispatcher.top_k(queries[:4], k=1)
            labels, _ = dispatcher.top_k(queries, k=1)
            assert np.array_equal(labels, engine.top_k(queries, k=1)[0])
            assert dispatcher.respawns == 1

    def test_expired_deadline_is_rejected_before_dispatch(self, served):
        engine, queries = served
        with ClusterDispatcher(engine, num_workers=2) as dispatcher:
            with pytest.raises(DeadlineExceededError):
                dispatcher.top_k(queries, k=1, deadline=time.monotonic() - 0.01)
            # Request-level rejection; the pool is untouched.
            assert dispatcher.ping()

    def test_deadline_abandons_hung_worker_early(self, served):
        engine, queries = served
        # The deadline (0.5 s) is tighter than the watchdog (5 s): the
        # dispatcher must answer 504-typed at the deadline instead of waiting
        # out the full request_timeout.
        plan = _plan(FaultRule(kind="hang", at=1, workers=(0,)))
        with ClusterDispatcher(
            engine, num_workers=2, request_timeout=5.0, fault_plan=plan
        ) as dispatcher:
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                dispatcher.top_k(queries, k=1, deadline=time.monotonic() + 0.5)
            assert time.monotonic() - started < 2.0

    def test_info_reports_fault_plan_and_failure_counters(self, served):
        engine, _ = served
        plan = _plan(FaultRule(kind="error", at=1, workers=(0,)))
        with ClusterDispatcher(
            engine, num_workers=2, fault_plan=plan
        ) as dispatcher:
            info = dispatcher.info()
            assert info["fault_plan"]["rules"][0]["kind"] == "error"
            assert set(info["failures"]) == {
                "hangs",
                "shard_retries",
                "transport_errors",
                "worker_faults",
                "deadline_skips",
                "bank_faults",
            }
            assert info["request_timeout"] == dispatcher.request_timeout


class TestHotSwapRace:
    def test_closed_dispatcher_maps_to_retryable_503(self, served):
        # Simulates the promote race: a request resolved a dispatcher that a
        # concurrent hot-swap closed before the batch ran.  The serving layer
        # must answer 503 (retry lands on the new version), not a 500.
        from repro.serve import ModelRegistry, ServeApp
        from repro.serve.server import RequestError

        engine, queries = served
        registry = ModelRegistry()
        registry.register("m", engine)
        app = ServeApp(registry, num_processes=1, max_wait_ms=0.5, cache_size=0)
        try:
            app.predict({"features": queries[:4].tolist()})  # builds the pool
            app._dispatchers["m"][1].close()
            with pytest.raises(RequestError) as excinfo:
                app.predict({"features": queries[:4].tolist()})
            assert excinfo.value.status == 503
            assert "swapped" in str(excinfo.value)
            # The promote completing (new version registered) restores service.
            registry.register("m", engine)
            response = app.predict({"features": queries[:4].tolist()})
            assert response["labels"] == engine.predict(queries[:4]).tolist()
        finally:
            app.close()
