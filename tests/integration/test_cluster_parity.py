"""Integration: cluster-served predictions are bit-identical to one process.

The acceptance criterion for the cluster tier: for both a shared-rule
classifier and a ``MultiModelHDC`` ensemble bank — each round-tripped through
``repro.io`` the way ``repro serve`` loads models — predictions produced by
``ServeApp(num_processes=N)`` (shared-memory bank, sharded batches, merged
scores) equal the single-process ``PackedInferenceEngine`` output exactly.
Also covers the end-to-end soak wiring: ``repro.loadgen`` driving the
cluster-backed app over HTTP.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.cluster import ClusterDispatcher
from repro.hdc.encoders import RecordEncoder
from repro.io import load_model, save_model
from repro.loadgen import ClosedLoop, HTTPTarget, RequestSampler, run_load_test, validate_report
from repro.serve import ModelRegistry, PackedInferenceEngine, ServeApp, create_server


@pytest.fixture(scope="module")
def saved_models(small_problem, tmp_path_factory):
    """A shared-rule model and an ensemble bank, saved + reloaded via io."""
    directory = tmp_path_factory.mktemp("cluster-parity")
    paths = {}
    for name, classifier in (
        ("baseline", BaselineHDC(seed=0)),
        ("ensemble", MultiModelHDC(models_per_class=4, iterations=1, seed=0)),
    ):
        encoder = RecordEncoder(
            dimension=512, num_levels=8, tie_break="positive", seed=0
        )
        pipeline = HDCPipeline(encoder, classifier)
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        paths[name] = save_model(directory / f"{name}.npz", pipeline, strategy_name=name)
    return paths


@pytest.mark.parametrize("name", ["baseline", "ensemble"])
def test_dispatcher_parity_for_saved_models(saved_models, small_problem, name):
    queries = small_problem["test_features"]
    engine = PackedInferenceEngine(load_model(saved_models[name]), name=name)
    reference_labels, reference_scores = engine.top_k(queries, k=3)
    with ClusterDispatcher(engine, num_workers=3) as dispatcher:
        labels, scores = dispatcher.top_k(queries, k=3)
        assert np.array_equal(labels, reference_labels)
        assert np.array_equal(scores, reference_scores)
        assert np.array_equal(
            dispatcher.decision_scores(queries), engine.decision_scores(queries)
        )


def test_serveapp_cluster_parity_and_crash_masking(saved_models, small_problem):
    queries = small_problem["test_features"][:24]
    registry = ModelRegistry()
    registry.register("ens", saved_models["ensemble"])
    app = ServeApp(registry, num_processes=2, max_wait_ms=0.5, cache_size=0)
    try:
        engine = registry.get("ens")
        response = app.predict({"features": queries.tolist(), "top_k": 2})
        expected_labels, expected_scores = engine.top_k(queries, k=2)
        assert response["top_k_labels"] == expected_labels.astype(int).tolist()
        assert response["top_k_scores"] == expected_scores.astype(float).tolist()

        # Worker crash mid-batch: the dead worker is respawned and the lost
        # shard retried once on the healthy pool, so a single crash is
        # masked entirely — the request still answers correctly.
        dispatcher = app._dispatchers["ens"][1]
        assert dispatcher is not None
        dispatcher.poison_worker(0)
        masked = app.predict({"features": queries.tolist()})
        assert masked["labels"] == expected_labels[:, 0].astype(int).tolist()
        info = dispatcher.info()
        assert info["respawns"] >= 1
        assert info["failures"]["shard_retries"] >= 1
    finally:
        app.close()


def test_loadgen_soaks_cluster_backed_http_endpoint(saved_models):
    registry = ModelRegistry()
    registry.register("baseline", saved_models["baseline"])
    app = ServeApp(registry, num_processes=2, max_wait_ms=0.5)
    server = create_server(app, port=0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        sampler = RequestSampler.from_arrays(
            np.random.default_rng(0).random((40, 24)), seed=0
        )
        report = run_load_test(
            HTTPTarget(f"http://127.0.0.1:{port}"),
            sampler,
            ClosedLoop(concurrency=4),
            num_requests=40,
            warmup_requests=8,
        )
        validate_report(report)
        assert report["config"]["target"]["kind"] == "http"

        # The worker pool is visible through the public metrics route.
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/v1/metrics", timeout=10
        ) as response:
            metrics = json.loads(response.read())
        assert "baseline@v1" in metrics["cluster"]
        assert len(metrics["cluster"]["baseline@v1"]["worker_pids"]) == 2
    finally:
        server.shutdown()
        server.server_close()
        app.close()
