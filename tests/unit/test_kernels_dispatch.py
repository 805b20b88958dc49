"""Unit tests for the kernel registry, the kernel thread pool, and dtype policy."""

import numpy as np
import pytest

from repro.kernels import dispatch


class TestRegistry:
    def test_get_known_kernel(self):
        assert callable(dispatch.get_kernel("packed.bit_differences"))
        assert callable(dispatch.get_kernel("encode.lut_accumulate"))
        assert callable(dispatch.get_kernel("linear.matmul"))

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError, match="no kernel registered"):
            dispatch.get_kernel("no.such.kernel")

    def test_one_implementation_per_name(self):
        @dispatch.register_kernel("test.only")
        def only():
            return "only"

        assert dispatch.get_kernel("test.only") is only
        assert "test.only" in dispatch.list_kernels()

    def test_list_kernels_returns_sorted_names(self):
        listing = dispatch.list_kernels()
        assert listing == sorted(listing)
        for name in (
            "encode.lut_accumulate",
            "linear.matmul",
            "packed.bit_differences",
            "train.bundle_counts",
            "train.scatter_add",
        ):
            assert name in listing


class TestFloatDtypePolicy:
    def test_default_is_float32(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLOAT_DTYPE", raising=False)
        dispatch.set_float_dtype(None)
        assert dispatch.float_dtype() == np.dtype(np.float32)

    def test_environment_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLOAT_DTYPE", "float64")
        dispatch.set_float_dtype(None)
        assert dispatch.float_dtype() == np.dtype(np.float64)
        monkeypatch.delenv("REPRO_FLOAT_DTYPE")

    def test_use_float_dtype_context(self):
        with dispatch.use_float_dtype(np.float64):
            assert dispatch.float_dtype() == np.dtype(np.float64)
        assert dispatch.float_dtype() == np.dtype(np.float32)

    def test_non_float_dtype_rejected(self):
        with pytest.raises(ValueError, match="floating dtype"):
            dispatch.set_float_dtype(np.int32)


class TestKernelPool:
    @pytest.fixture
    def fresh_pool(self, monkeypatch):
        monkeypatch.setattr(dispatch, "_POOL", None)
        monkeypatch.setattr(dispatch, "_POOL_LOCK", dispatch._POOL_LOCK)
        yield
        if dispatch._POOL is not None:
            dispatch._POOL[1].shutdown(wait=True)

    def test_width_is_the_cpu_mask(self, monkeypatch):
        monkeypatch.setattr(dispatch, "available_cpus", lambda: [0, 1, 2])
        assert dispatch.pool_width() == 3

    def test_width_is_capped_at_four(self, monkeypatch):
        monkeypatch.setattr(dispatch, "available_cpus", lambda: list(range(16)))
        assert dispatch.pool_width() == 4

    def test_width_follows_a_later_pin(self, monkeypatch):
        monkeypatch.setattr(dispatch, "available_cpus", lambda: [0, 1])
        assert dispatch.pool_width() == 2
        monkeypatch.setattr(dispatch, "available_cpus", lambda: [1])
        assert dispatch.pool_width() == 1

    def test_cluster_reads_the_same_cpu_set(self):
        from repro.cluster import affinity
        from repro.utils import cpus

        assert affinity.available_cpus is cpus.available_cpus
        assert dispatch.available_cpus is cpus.available_cpus

    def test_executor_is_reused_until_the_width_changes(self, fresh_pool):
        executor = dispatch.shared_executor(3)
        try:
            assert dispatch.shared_executor(3) is executor
            assert executor._max_workers == 3
            narrower = dispatch.shared_executor(2)
            assert narrower is not executor and narrower._max_workers == 2
            # A caller still holding the replaced pool can finish its map.
            assert list(executor.map(abs, [-1, -2])) == [1, 2]
        finally:
            executor.shutdown(wait=True)

    def test_fork_reset_drops_the_inherited_pool(self, fresh_pool):
        executor = dispatch.shared_executor(2)
        lock = dispatch._POOL_LOCK
        try:
            dispatch._reset_pool_after_fork()
            assert dispatch._POOL is None
            assert dispatch._POOL_LOCK is not lock
        finally:
            executor.shutdown(wait=True)


class TestKernelProfiling:
    def test_disabled_by_default_and_unwrapped(self):
        assert dispatch.kernel_profiling_enabled() is False
        kernel = dispatch.get_kernel("linear.matmul")
        # Off the profiling path, get_kernel returns the raw implementation.
        assert not hasattr(kernel, "__wrapped__")

    def test_profiled_calls_are_counted_and_timed(self):
        dispatch.reset_kernel_profile()
        a = np.ones((4, 3), dtype=np.float32)
        b = np.ones((3, 2), dtype=np.float32)
        with dispatch.profile_kernels():
            kernel = dispatch.get_kernel("linear.matmul")
            kernel(a, b)
            kernel(a, b)
        snapshot = dispatch.kernel_profile_snapshot()
        assert list(snapshot) == ["linear.matmul"]
        entry = snapshot["linear.matmul"]
        assert entry["calls"] == 2
        assert entry["total_ms"] >= 0.0
        assert entry["mean_ms"] == pytest.approx(entry["total_ms"] / 2)
        assert entry["kernel"] == "linear.matmul"
        assert "backend" not in entry

    def test_wrapper_is_stable_across_resolutions(self):
        with dispatch.profile_kernels():
            first = dispatch.get_kernel("linear.matmul")
            second = dispatch.get_kernel("linear.matmul")
        assert first is second

    def test_context_restores_prior_state(self):
        assert dispatch.kernel_profiling_enabled() is False
        with dispatch.profile_kernels():
            assert dispatch.kernel_profiling_enabled() is True
            with dispatch.profile_kernels():
                pass
            # The inner exit restores the outer enabled state, not False.
            assert dispatch.kernel_profiling_enabled() is True
        assert dispatch.kernel_profiling_enabled() is False

    def test_reset_clears_counters(self):
        a = np.ones((2, 2), dtype=np.float32)
        with dispatch.profile_kernels():
            dispatch.get_kernel("linear.matmul")(a, a)
        dispatch.reset_kernel_profile()
        assert dispatch.kernel_profile_snapshot() == {}

    def test_failing_kernel_still_counted(self):
        dispatch.reset_kernel_profile()
        with dispatch.profile_kernels():
            kernel = dispatch.get_kernel("linear.matmul")
            with pytest.raises(ValueError):
                kernel(np.ones((2, 3)), np.ones((5, 2)))  # shape mismatch
        snapshot = dispatch.kernel_profile_snapshot()
        assert snapshot["linear.matmul"]["calls"] == 1
