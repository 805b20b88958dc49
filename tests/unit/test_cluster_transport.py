"""Unit tests for the cluster data plane (per-worker pipes).

Covers the pipe tier's contracts end to end: bit-identical shard/merge
parity (including the ensemble max-over-bank merge), request-level error
propagation, `poison_worker` chaos and kill-mid-batch crashes, the
``ParentPipe``/``WorkerPipe`` frame round trip, and the byte-accounting and
affinity surfaces the benchmarks and metrics read.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.cluster import ClusterDispatcher
from repro.cluster.affinity import available_cpus, build_pin_map
from repro.cluster.transport import ParentPipe, WorkerPipe
from repro.hdc.encoders import RecordEncoder
from repro.serve.engine import PackedInferenceEngine


@pytest.fixture(scope="module")
def served(small_problem):
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=5)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=5))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    engine = PackedInferenceEngine(pipeline, name="transport")
    return engine, small_problem["test_features"]


@pytest.fixture(scope="module")
def ensemble_served(small_problem):
    encoder = RecordEncoder(dimension=192, num_levels=8, tie_break="positive", seed=9)
    pipeline = HDCPipeline(
        encoder, MultiModelHDC(models_per_class=4, iterations=1, seed=9)
    )
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    engine = PackedInferenceEngine(pipeline, name="transport-ens")
    return engine, small_problem["test_features"][:32]


class TestParity:
    def test_top_k_scores_and_predict_match_single_process(self, served):
        engine, queries = served
        expected_labels, expected_scores = engine.top_k(queries, k=3)
        with ClusterDispatcher(engine, num_workers=2) as d:
            labels, scores = d.top_k(queries, k=3)
            assert np.array_equal(labels, expected_labels)
            assert np.array_equal(scores, expected_scores)
            assert np.array_equal(
                d.decision_scores(queries), engine.decision_scores(queries)
            )
            assert np.array_equal(d.predict(queries), engine.predict(queries))

    def test_ensemble_max_over_bank_merge(self, ensemble_served):
        engine, queries = ensemble_served
        with ClusterDispatcher(engine, num_workers=2) as d:
            assert np.array_equal(
                d.decision_scores(queries), engine.decision_scores(queries)
            )

    def test_value_error_propagates_and_pool_survives(self, served):
        engine, queries = served
        with ClusterDispatcher(engine, num_workers=2) as d:
            with pytest.raises(ValueError, match="columns"):
                d.top_k(np.zeros((4, 3)), k=1)
            labels, _ = d.top_k(queries, k=1)
            assert np.array_equal(labels, engine.top_k(queries, k=1)[0])
            assert d.respawns == 0

    def test_ships_packed_words_not_float_rows(self, served):
        engine, queries = served
        batch = np.ascontiguousarray(queries[:16])
        packed_nbytes = engine._encode_packed(engine._validate(batch)).words.nbytes
        with ClusterDispatcher(engine, num_workers=1) as d:
            assert d.info()["ships_packed_queries"] is True
            d.decision_scores(batch)
            sent = d.transport_stats()["per_worker"][0]
            # Request payload = the packed words (32x smaller than float64
            # rows at D=256/F=24); everything else is reply scores.
            reply_nbytes = 16 * d.num_classes * 8
            assert sent["payload_bytes"] == packed_nbytes + reply_nbytes
            assert packed_nbytes < batch.nbytes


class TestPipeFrames:
    def test_request_and_reply_round_trip_with_exact_accounting(self, rng):
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        parent = ParentPipe(parent_conn)
        worker = WorkerPipe(child_conn)
        try:
            batch = rng.standard_normal((2, 4))
            parent.send_request({"op": "scores"}, [batch])
            header, arrays = worker.recv()
            assert header["op"] == "scores"
            assert np.array_equal(arrays[0], batch)
            worker.send_ok(None, [batch * 2], ["span"])
            assert parent.poll(1.0)
            tag, scalar, reply_arrays, spans = parent.recv_reply()
            assert (tag, scalar, spans) == ("ok", None, ["span"])
            assert np.array_equal(reply_arrays[0], batch * 2)
            worker.send_error("ValueError", "bad width")
            assert parent.recv_reply() == ("error", "ValueError", "bad width")
            stats = parent.stats()
            assert stats["frames_sent"] == 1
            assert stats["frames_received"] == 2
            assert stats["payload_bytes"] == 2 * batch.nbytes
            assert stats["pipe_bytes"] > stats["payload_bytes"]
        finally:
            worker.close()
            parent.close()

    def test_counters_start_at_zero_in_declared_order(self, pipe_pair):
        parent, _ = pipe_pair
        stats = parent.stats()
        assert tuple(stats) == ParentPipe.COUNTERS
        assert all(value == 0 for value in stats.values())

    def test_pipe_bytes_are_the_exact_pickled_frame_sizes(self, pipe_pair, rng):
        parent, worker = pipe_pair
        batch = rng.standard_normal((3, 5))
        header = {"op": "scores", "k": 2}
        parent.send_request(header, [batch])
        request_size = len(
            pickle.dumps((header, [batch]), protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert parent.stats()["pipe_bytes"] == request_size
        worker.recv()
        worker.send_ok(7, [batch], [])
        parent.recv_reply()
        reply_size = len(
            pickle.dumps(("ok", 7, [batch], []), protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert parent.stats()["pipe_bytes"] == request_size + reply_size

    def test_payload_bytes_sum_every_array_in_a_frame(self, pipe_pair):
        parent, worker = pipe_pair
        words = np.arange(12, dtype=np.uint64).reshape(3, 4)
        labels = np.arange(3, dtype=np.int64)
        parent.send_request({"op": "top_k"}, [words, labels])
        _, arrays = worker.recv()
        assert len(arrays) == 2
        assert parent.stats()["payload_bytes"] == words.nbytes + labels.nbytes

    def test_error_reply_counts_frame_bytes_but_no_payload(self, pipe_pair):
        parent, worker = pipe_pair
        worker.send_error("RuntimeError", "boom")
        assert parent.recv_reply() == ("error", "RuntimeError", "boom")
        stats = parent.stats()
        assert stats["frames_received"] == 1
        assert stats["pipe_bytes"] > 0
        assert stats["payload_bytes"] == 0

    @pytest.mark.parametrize("dtype", [np.uint64, np.float64, np.int32])
    def test_frames_preserve_dtype_and_shape(self, pipe_pair, dtype):
        parent, worker = pipe_pair
        array = np.arange(24).astype(dtype).reshape(2, 3, 4)
        parent.send_request({"op": "echo"}, [array])
        _, (received,) = worker.recv()
        assert received.dtype == array.dtype
        assert received.shape == array.shape
        assert np.array_equal(received, array)

    def test_poll_is_false_until_a_reply_arrives(self, pipe_pair):
        parent, worker = pipe_pair
        assert parent.poll(0.0) is False
        worker.send_ok(None, [], [])
        assert parent.poll(1.0) is True
        assert parent.recv_reply() == ("ok", None, [], [])

    def test_worker_recv_raises_eof_when_parent_closes(self):
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        worker = WorkerPipe(child_conn)
        ParentPipe(parent_conn).close()
        try:
            with pytest.raises(EOFError):
                worker.recv()
        finally:
            worker.close()

    def test_parent_recv_raises_eof_when_worker_closes(self):
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        parent = ParentPipe(parent_conn)
        WorkerPipe(child_conn).close()
        try:
            with pytest.raises(EOFError):
                parent.recv_reply()
            assert parent.stats()["frames_received"] == 0
        finally:
            parent.close()

    def test_send_to_a_closed_worker_raises_oserror(self):
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        parent = ParentPipe(parent_conn)
        WorkerPipe(child_conn).close()
        try:
            with pytest.raises(OSError):
                parent.send_request({"op": "scores"}, [np.zeros(4)])
            # A frame that never left is not counted.
            assert parent.stats()["frames_sent"] == 0
        finally:
            parent.close()

    def test_close_closes_the_connection(self):
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        parent, worker = ParentPipe(parent_conn), WorkerPipe(child_conn)
        parent.close()
        worker.close()
        assert parent_conn.closed and child_conn.closed


@pytest.fixture
def pipe_pair():
    parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
    parent, worker = ParentPipe(parent_conn), WorkerPipe(child_conn)
    yield parent, worker
    worker.close()
    parent.close()


class TestCrashPaths:
    def test_poison_worker_chaos_is_masked(self, served):
        engine, queries = served
        with ClusterDispatcher(engine, num_workers=2) as d:
            d.poison_worker(1)
            labels, _ = d.top_k(queries, k=1)  # masked by the retry-once path
            assert np.array_equal(labels, engine.top_k(queries, k=1)[0])
            assert np.array_equal(
                d.decision_scores(queries), engine.decision_scores(queries)
            )
            assert d.respawns == 1
            assert d.shard_retries >= 1

    def test_kill_mid_batch_is_respawned(self, served):
        engine, queries = served
        with ClusterDispatcher(engine, num_workers=2) as d:
            victim = d.info()["worker_pids"][0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    os.kill(victim, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
            # The dead worker is respawned transparently at the next ensure.
            assert np.array_equal(
                d.decision_scores(queries), engine.decision_scores(queries)
            )


class TestSurfaces:
    def test_info_and_stats_expose_the_pipe_counters(self, served):
        engine, queries = served
        with ClusterDispatcher(engine, num_workers=2, cpu_affinity="auto") as d:
            d.top_k(queries[:8], k=1)
            info = d.info()
            assert info["cpu_count"] == (os.cpu_count() or 1)
            assert len(info["pin_map"]) == 2
            stats = info["transport_stats"]
            assert len(stats["per_worker"]) == 2
            assert stats["totals"]["frames_sent"] >= 2
            assert stats["totals"]["payload_bytes"] > 0
            assert stats["totals"]["pipe_bytes"] > 0
            # Metric readers sum bytes by carriage; only the pipe carries.
            assert stats["totals"]["shm_bytes"] == 0
            assert stats["totals"]["socket_bytes"] == 0
            assert info["failures"]["transport_errors"] == 0

    def test_per_worker_counters_sum_to_the_totals(self, served):
        engine, queries = served
        with ClusterDispatcher(engine, num_workers=2) as d:
            d.decision_scores(queries)
            d.top_k(queries[:5], k=2)
            stats = d.transport_stats()
            for key in ParentPipe.COUNTERS:
                assert stats["totals"][key] == sum(
                    worker[key] for worker in stats["per_worker"]
                ), key
            # Every request frame was answered by exactly one reply.
            assert stats["totals"]["frames_sent"] == stats["totals"]["frames_received"]

    def test_dispatcher_has_no_transport_option(self, served):
        engine, _ = served
        with pytest.raises(TypeError, match="transport"):
            ClusterDispatcher(engine, num_workers=1, transport="shm")

    def test_affinity_helpers(self):
        cpus = available_cpus()
        assert cpus and all(isinstance(cpu, int) for cpu in cpus)
        pin_map = build_pin_map(4, cpus=[0, 1])
        assert pin_map == {0: 0, 1: 1, 2: 0, 3: 1}
        assert build_pin_map(2, cpus=[]) == {}
