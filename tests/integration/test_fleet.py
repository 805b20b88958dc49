"""Multi-tenant fleet integration: pool residency, admission, degradation.

These tests drive :class:`ServeApp` in-process the way the HTTP layer
would, with many model names ("tenants") sharing one worker-pool budget, and
assert the three fleet behaviours end to end: the residency cap evicts and
cold-loads worker pools without changing answers, per-tenant admission
sheds with typed 429s, and a broken cold-load trips the circuit breaker
into fast 503s.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.serve import ModelRegistry, PackedInferenceEngine, ServeApp
from repro.serve.server import RequestError
from repro.serve.tenancy import TenantQuotas


@pytest.fixture(scope="module")
def fleet_engine(small_problem):
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=5)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=5))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return PackedInferenceEngine(pipeline, name="fleet")


def _shm_names() -> set:
    root = Path("/dev/shm")
    return {entry.name for entry in root.iterdir()} if root.is_dir() else set()


def _registry(engine, tenants):
    registry = ModelRegistry(max_resident=max(4, len(tenants)))
    for name in tenants:
        registry.register(name, engine)
    return registry


class TestFleetPaging:
    def test_paging_across_tenants_matches_single_process(
        self, fleet_engine, small_problem
    ):
        tenants = [f"t{i}" for i in range(5)]
        queries = small_problem["test_features"][:6]
        expected = fleet_engine.predict(queries)
        app = ServeApp(
            _registry(fleet_engine, tenants),
            num_processes=2,
            max_resident_banks=2,
            cache_size=0,
            max_wait_ms=0.5,
        )
        try:
            for round_robin in range(2):
                for name in tenants:
                    answer = app.predict(
                        {"features": queries.tolist(), "model": name}
                    )
                    assert answer["labels"] == expected.tolist()
            fleet = app.metrics_snapshot()["fleet"]
            assert fleet["cold_loads"] >= 5
            assert fleet["evictions"] >= 3  # cap 2 forced paging
            assert fleet["dispatchers"] <= 2
            assert fleet["max_resident_banks"] == 2
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)

    def test_concurrent_tenants_all_answer_correctly(
        self, fleet_engine, small_problem
    ):
        tenants = [f"t{i}" for i in range(4)]
        queries = small_problem["test_features"][:4]
        expected = fleet_engine.predict(queries).tolist()
        shm_before = _shm_names()
        app = ServeApp(
            _registry(fleet_engine, tenants),
            num_processes=2,
            max_resident_banks=2,
            cache_size=0,
            max_wait_ms=0.5,
        )
        failures = []

        def hammer(name):
            try:
                for _ in range(6):
                    answer = app.predict(
                        {"features": queries.tolist(), "model": name}
                    )
                    if answer["labels"] != expected:
                        failures.append((name, "wrong answer"))
            except Exception as error:  # pragma: no cover - failure path
                failures.append((name, repr(error)))

        try:
            threads = [
                threading.Thread(target=hammer, args=(name,)) for name in tenants
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert failures == []
            fleet = app.metrics_snapshot()["fleet"]
            assert fleet["evictions"] >= 1  # 4 tenants over a cap of 2
            assert fleet["dispatchers"] <= 2
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)
        # Every stats slab the churn created (and closed by eviction) is
        # unlinked once the app has drained.
        assert _shm_names() - shm_before == set()


class TestResidencyAccounting:
    """``max_resident_banks`` means one thing: at most N live worker pools."""

    def _app(self, engine, tenants, **kwargs):
        kwargs.setdefault("num_processes", 2)
        return ServeApp(
            _registry(engine, tenants), cache_size=0, max_wait_ms=0.5, **kwargs
        )

    def _ask(self, app, name, queries):
        return app.predict({"features": queries.tolist(), "model": name})

    def test_each_cap_closure_counts_one_eviction(self, fleet_engine, small_problem):
        queries = small_problem["test_features"][:2]
        app = self._app(fleet_engine, ["a", "b", "c"], max_resident_banks=1)
        try:
            for name in ("a", "b", "c"):
                self._ask(app, name, queries)
            fleet = app.metrics_snapshot()["fleet"]
            assert fleet["cold_loads"] == 3
            assert fleet["evictions"] == 2
            assert fleet["dispatchers"] == 1
            assert list(app._dispatchers) == ["c"]
            # The two closed pools each scored one 2-row batch as two
            # 1-row shards; their counts survive in the fleet block.
            assert fleet["retired"]["worker_requests"] == 4
            assert fleet["retired"]["respawns"] == 0
        finally:
            app.drain(grace_seconds=10.0)

    def test_recently_used_pool_survives_the_cap(self, fleet_engine, small_problem):
        queries = small_problem["test_features"][:2]
        app = self._app(fleet_engine, ["a", "b", "c"], max_resident_banks=2)
        try:
            self._ask(app, "a", queries)
            self._ask(app, "b", queries)
            self._ask(app, "a", queries)  # "b" is now least recently used
            self._ask(app, "c", queries)
            assert sorted(app._dispatchers) == ["a", "c"]
            fleet = app.metrics_snapshot()["fleet"]
            assert (fleet["cold_loads"], fleet["evictions"]) == (3, 1)
        finally:
            app.drain(grace_seconds=10.0)

    def test_hot_swap_replacement_is_not_an_eviction(
        self, fleet_engine, small_problem
    ):
        queries = small_problem["test_features"][:2]
        registry = _registry(fleet_engine, ["a"])
        app = ServeApp(
            registry,
            num_processes=2,
            max_resident_banks=1,
            cache_size=0,
            max_wait_ms=0.5,
        )
        try:
            self._ask(app, "a", queries)
            registry.register("a", fleet_engine)  # promotes version 2
            answer = self._ask(app, "a", queries)
            assert answer["labels"] == fleet_engine.predict(queries).tolist()
            fleet = app.metrics_snapshot()["fleet"]
            assert fleet["cold_loads"] == 2
            assert fleet["evictions"] == 0
            assert fleet["dispatchers"] == 1
        finally:
            app.drain(grace_seconds=10.0)

    def test_fleet_block_reports_live_pools_and_slabs(self, fleet_engine):
        app = self._app(fleet_engine, ["a"], max_resident_banks=3)
        try:
            snapshot = app.metrics_snapshot()
            assert snapshot["fleet"] == {
                "cold_loads": 0,
                "evictions": 0,
                "dispatchers": 0,
                "max_resident_banks": 3,
                "retired": {},
            }
            assert snapshot["shared_memory"] == {"stats_slabs": 0}
            app.engine_for("a")
            snapshot = app.metrics_snapshot()
            assert snapshot["fleet"]["dispatchers"] == 1
            assert snapshot["shared_memory"] == {"stats_slabs": 2}
        finally:
            app.drain(grace_seconds=10.0)

    def test_in_process_app_has_no_fleet_block(self, fleet_engine, small_problem):
        app = self._app(fleet_engine, ["a"], num_processes=0)
        try:
            self._ask(app, "a", small_problem["test_features"][:2])
            snapshot = app.metrics_snapshot()
            assert "fleet" not in snapshot
            assert "shared_memory" not in snapshot
        finally:
            app.drain(grace_seconds=10.0)


class TestTenantAdmission:
    def test_rate_limited_tenant_sheds_typed_429(self, fleet_engine, small_problem):
        queries = small_problem["test_features"][:1]
        quotas = TenantQuotas(rps=1.0, burst=1.0)
        app = ServeApp(
            _registry(fleet_engine, ["a", "b"]),
            tenant_quotas=quotas,
            cache_size=0,
            max_wait_ms=0.5,
        )
        try:
            app.predict({"features": queries.tolist(), "model": "a"})
            with pytest.raises(RequestError) as info:
                app.predict({"features": queries.tolist(), "model": "a"})
            assert info.value.status == 429
            assert info.value.code == "tenant_rate_limited"
            assert info.value.retry_after >= 1
            # Tenant "b" has an independent bucket and still answers.
            app.predict({"features": queries.tolist(), "model": "b"})
            tenancy = app.metrics_snapshot()["tenancy"]
            assert tenancy["tenants"]["a"]["rate_limited"] == 1
            assert tenancy["tenants"]["b"]["rate_limited"] == 0
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)

    def test_quota_lease_is_released_after_each_request(
        self, fleet_engine, small_problem
    ):
        queries = small_problem["test_features"][:1]
        quotas = TenantQuotas(max_concurrent=1)
        app = ServeApp(
            _registry(fleet_engine, ["a"]),
            tenant_quotas=quotas,
            cache_size=0,
            max_wait_ms=0.5,
        )
        try:
            for _ in range(5):  # a leaked lease would 429 on the second call
                app.predict({"features": queries.tolist(), "model": "a"})
            assert quotas.snapshot()["tenants"]["a"]["in_flight"] == 0
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)


class TestCircuitBreaker:
    def test_broken_cold_load_opens_breaker_and_fails_fast(
        self, fleet_engine, small_problem, monkeypatch
    ):
        import repro.serve.server as server_mod

        def exploding_dispatcher(*args, **kwargs):
            raise RuntimeError("injected cold-load failure")

        monkeypatch.setattr(server_mod, "ClusterDispatcher", exploding_dispatcher)
        queries = small_problem["test_features"][:1]
        app = ServeApp(
            _registry(fleet_engine, ["a"]),
            num_processes=2,
            cache_size=0,
            max_wait_ms=0.5,
            cold_load_retries=0,
            breaker_threshold=2,
            breaker_reset_seconds=60.0,
        )
        try:
            for _ in range(2):
                with pytest.raises(RequestError) as info:
                    app.predict({"features": queries.tolist(), "model": "a"})
                assert info.value.status == 503
                assert info.value.code == "model_unavailable"
            # The breaker is open now: the next request fails fast with a
            # Retry-After hint instead of re-attempting the broken load.
            with pytest.raises(RequestError) as info:
                app.predict({"features": queries.tolist(), "model": "a"})
            assert info.value.status == 503
            assert info.value.code == "model_unavailable"
            assert "breaker" in str(info.value)
            assert info.value.retry_after >= 1
            fleet = app.metrics_snapshot()["fleet"]
            assert fleet["breakers"]["a"]["state"] == "open"
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)

    def test_breaker_closes_after_successful_probe(
        self, fleet_engine, small_problem, monkeypatch
    ):
        import repro.serve.server as server_mod

        real_dispatcher = server_mod.ClusterDispatcher
        fail = {"on": True}

        def flaky_dispatcher(*args, **kwargs):
            if fail["on"]:
                raise RuntimeError("injected cold-load failure")
            return real_dispatcher(*args, **kwargs)

        monkeypatch.setattr(server_mod, "ClusterDispatcher", flaky_dispatcher)
        queries = small_problem["test_features"][:2]
        expected = fleet_engine.predict(queries).tolist()
        app = ServeApp(
            _registry(fleet_engine, ["a"]),
            num_processes=2,
            cache_size=0,
            max_wait_ms=0.5,
            cold_load_retries=0,
            breaker_threshold=1,
            breaker_reset_seconds=0.05,
        )
        try:
            with pytest.raises(RequestError):
                app.predict({"features": queries.tolist(), "model": "a"})
            assert app.metrics_snapshot()["fleet"]["breakers"]["a"]["state"] in (
                "open",
                "half_open",
            )
            fail["on"] = False
            deadline = time.monotonic() + 5.0
            while True:  # wait out reset_seconds, then the probe succeeds
                try:
                    answer = app.predict(
                        {"features": queries.tolist(), "model": "a"}
                    )
                    break
                except RequestError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.02)
            assert answer["labels"] == expected
            assert app.metrics_snapshot()["fleet"]["breakers"]["a"]["state"] == (
                "closed"
            )
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)
