"""Unit tests for repro.cluster.bench (dispatch micro-bench and scaling bench).

The harnesses run at toy sizes here: the point is their contracts — parity
is checked before timing, byte counters are the parent pipe's own, and the
row formatters annotate single-CPU results instead of claiming a speedup.
"""

from __future__ import annotations

import pytest

from repro.cluster.bench import (
    MICROBENCH_HEADERS,
    format_microbench_rows,
    format_scaling_rows,
    run_cluster_scaling_benchmark,
    run_dispatch_microbench,
)


@pytest.fixture(scope="module")
def microbench():
    return run_dispatch_microbench(
        dimension=256, num_features=16, num_classes=3, batch_size=8, k=2, repeats=4
    )


@pytest.fixture(scope="module")
def scaling():
    return run_cluster_scaling_benchmark(
        dimension=192,
        num_features=12,
        num_classes=3,
        num_samples=32,
        batch_size=16,
        worker_counts=(1, 2),
        ensemble_models_per_class=2,
        cpu_affinity=None,
    )


def _scaling_result(cpu_count, parity_ok=True):
    return {
        "cpu_count": cpu_count,
        "rates": {"single-process": 1000.0, "pipe:workers-2": 1500.0},
        "speedups": {"single-process": 1.0, "pipe:workers-2": 1.5},
        "parity": {"single-process": True, "pipe:workers-2": parity_ok},
    }


class TestDispatchMicrobench:
    def test_config_echoes_the_arguments(self, microbench):
        assert microbench["config"] == {
            "dimension": 256,
            "num_features": 16,
            "num_classes": 3,
            "batch_size": 8,
            "k": 2,
            "repeats": 4,
        }
        assert microbench["parity"] is True
        assert microbench["cpu_count"] >= 1
        assert microbench["available_cpus"]

    def test_one_worker_moves_one_request_and_one_reply_per_dispatch(
        self, microbench
    ):
        cost = microbench["dispatch"]
        assert cost["frames_per_dispatch"] == 2.0
        assert cost["estimated_syscalls_per_dispatch"] == 4.0

    def test_pipe_bytes_cover_the_payload(self, microbench):
        cost = microbench["dispatch"]
        assert 0 < cost["payload_bytes_per_dispatch"] < cost["pipe_bytes_per_dispatch"]
        assert cost["wall_seconds_per_dispatch"] > 0
        assert cost["samples_per_second"] > 0

    def test_rows_match_the_headers(self, microbench):
        (row,) = format_microbench_rows(microbench)
        assert len(row) == len(MICROBENCH_HEADERS)
        assert row[3] == "2.0"


class TestScalingBenchmark:
    def test_every_mode_is_bit_identical(self, scaling):
        assert scaling["parity"] == {
            "single-process": True,
            "pipe:workers-1": True,
            "pipe:workers-2": True,
            "ensemble:pipe-workers-2": True,
        }

    def test_rates_and_speedups_cover_each_worker_count(self, scaling):
        assert set(scaling["rates"]) == {
            "single-process",
            "pipe:workers-1",
            "pipe:workers-2",
        }
        assert scaling["speedups"]["single-process"] == 1.0
        assert all(rate > 0 for rate in scaling["rates"].values())
        assert scaling["config"]["worker_counts"] == [1, 2]

    def test_pipe_carries_every_byte(self, scaling):
        for key in ("pipe:workers-1", "pipe:workers-2"):
            totals = scaling["transport_totals"][key]
            assert totals["pipe_bytes"] > totals["payload_bytes"] > 0
            assert totals["shm_bytes"] == 0
            assert totals["socket_bytes"] == 0
        assert set(scaling["pin_maps"]) == {"pipe:workers-1", "pipe:workers-2"}

    def test_scaling_note_tracks_the_cpu_count(self, scaling):
        if scaling["cpu_count"] < 2:
            assert "no speedup is claimed" in scaling["scaling_note"]
        else:
            assert scaling["scaling_note"] == ""


class TestFormatScalingRows:
    def test_multi_cpu_rows_print_the_ratio(self):
        rows = format_scaling_rows(_scaling_result(cpu_count=4))
        assert rows == [
            ["single-process", "1000", "1.00x", "exact"],
            ["pipe:workers-2", "1500", "1.50x", "exact"],
        ]

    def test_single_cpu_rows_are_annotated_as_overhead(self):
        rows = format_scaling_rows(_scaling_result(cpu_count=1))
        assert rows[0][2] == "1.00x"
        assert rows[1][2] == "(1.50x, 1 cpu: overhead only)"

    def test_parity_mismatch_is_flagged(self):
        rows = format_scaling_rows(_scaling_result(cpu_count=2, parity_ok=False))
        assert rows[1][3] == "MISMATCH"
