"""Unit tests for the kernel registry, backend selection, and dtype policy."""

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

    def test_unknown_backend_falls_back_to_numpy(self):
        numpy_impl = dispatch.get_kernel("linear.matmul", backend="numpy")

        @dispatch.register_kernel("test.only_numpy")
        def only_numpy():
            return "numpy"

        assert dispatch.get_kernel("test.only_numpy", backend="threaded") is only_numpy
        assert dispatch.get_kernel("linear.matmul", backend="numpy") is numpy_impl

    def test_register_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            dispatch.register_kernel("test.bad", backend="cuda")

    def test_list_kernels_names_backends(self):
        listing = dispatch.list_kernels()
        assert "numpy" in listing["packed.bit_differences"]
        assert "threaded" in listing["packed.bit_differences"]


class TestBackendSelection:
    def test_default_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        dispatch.set_backend(None)
        assert dispatch.active_backend() == "numpy"

    def test_environment_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "threaded")
        dispatch.set_backend(None)
        assert dispatch.active_backend() == "threaded"
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")

    def test_use_backend_context(self):
        with dispatch.use_backend("threaded"):
            assert dispatch.active_backend() == "threaded"
        assert dispatch.active_backend() == "numpy"

    def test_set_backend_validates(self):
        with pytest.raises(ValueError, match="unknown backend"):
            dispatch.set_backend("gpu")

    def test_num_threads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
        assert dispatch.num_threads() == 3
        monkeypatch.delenv("REPRO_KERNEL_THREADS")
        assert dispatch.num_threads() >= 1


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


class TestEnvironmentValidation:
    def test_unknown_env_backend_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "thread")  # typo of "threaded"
        dispatch.set_backend(None)
        with pytest.raises(ValueError, match="REPRO_KERNEL_BACKEND"):
            dispatch.active_backend()
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")

    def test_non_integer_thread_count_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "four")
        with pytest.raises(ValueError, match="REPRO_KERNEL_THREADS"):
            dispatch.num_threads()
        monkeypatch.delenv("REPRO_KERNEL_THREADS")

    def test_run_sharded_matches_direct(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
        data = np.arange(20.0).reshape(10, 2)
        result = dispatch.run_sharded(lambda start, stop: data[start:stop] * 2, 10)
        np.testing.assert_array_equal(result, data * 2)
        monkeypatch.delenv("REPRO_KERNEL_THREADS")

    def test_multiprocess_is_not_a_backend(self, monkeypatch):
        # Process-level parallelism is the cluster tier's job.
        assert dispatch.available_backends() == ["numpy", "threaded"]
        with pytest.raises(ValueError, match="unknown backend"):
            dispatch.set_backend("multiprocess")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "multiprocess")
        dispatch.set_backend(None)
        with pytest.raises(ValueError, match="REPRO_KERNEL_BACKEND"):
            dispatch.active_backend()

    def test_bit_differences_backends(self):
        assert dispatch.list_kernels()["packed.bit_differences"] == [
            "numpy",
            "threaded",
        ]


class TestSharding:
    def test_small_input_runs_as_one_direct_call(self, monkeypatch):
        # Below two rows per worker the shards cannot pay off.
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "4")
        calls = []

        def compute(start, stop):
            calls.append((start, stop))
            return np.arange(start, stop)

        np.testing.assert_array_equal(dispatch.run_sharded(compute, 7), np.arange(7))
        assert calls == [(0, 7)]

    def test_one_thread_never_shards(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "1")
        calls = []

        def compute(start, stop):
            calls.append((start, stop))
            return np.arange(start, stop)

        np.testing.assert_array_equal(
            dispatch.run_sharded(compute, 100), np.arange(100)
        )
        assert calls == [(0, 100)]

    def test_shards_cover_every_row_once_in_order(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
        calls = []

        def compute(start, stop):
            calls.append((start, stop))
            return np.arange(start, stop)

        np.testing.assert_array_equal(dispatch.run_sharded(compute, 10), np.arange(10))
        assert sorted(calls) == [(0, 4), (4, 8), (8, 10)]

    def test_run_sharded_sum_adds_the_partials(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "2")
        data = np.arange(40, dtype=np.int64).reshape(20, 2)
        total = dispatch.run_sharded_sum(
            lambda start, stop: data[start:stop].sum(axis=0), 20
        )
        np.testing.assert_array_equal(total, data.sum(axis=0))

    def test_executor_is_built_once_and_reused(self):
        assert dispatch._shared_executor() is dispatch._shared_executor()


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
        entry = snapshot["linear.matmul[numpy]"]
        assert entry["calls"] == 2
        assert entry["total_ms"] >= 0.0
        assert entry["mean_ms"] == pytest.approx(entry["total_ms"] / 2)
        assert entry["kernel"] == "linear.matmul"
        assert entry["backend"] == "numpy"

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
        assert snapshot["linear.matmul[numpy]"]["calls"] == 1
