"""Unit tests for repro.obs.prometheus, including the golden-format test."""

import pytest

from repro.obs.prometheus import CONTENT_TYPE, render_prometheus, validate_exposition


def _snapshot():
    """A hand-built /v1/metrics snapshot covering every rendered family."""
    return {
        "models": {
            "har": {
                "requests": 12,
                "samples": 40,
                "errors": 1,
                "sheds": 2,
                "deadline_exceeded": 1,
                "batches": 5,
                "cache": {"hits": 3, "misses": 9},
                "latency": {
                    "count": 12,
                    "sum_seconds": 0.06,
                    "buckets": [
                        {"le": "0.001", "count": 2},
                        {
                            "le": "0.01",
                            "count": 10,
                            "exemplar": {
                                "trace_id": "deadbeefdeadbeef",
                                "value": 0.0089,
                                "timestamp": 1700000000.0,
                            },
                        },
                        {"le": "+Inf", "count": 12},
                    ],
                },
                "stages": {
                    "validate": {
                        "count": 12,
                        "sum_seconds": 0.001,
                        "buckets": [
                            {"le": "0.001", "count": 12},
                            {"le": "+Inf", "count": 12},
                        ],
                    },
                },
            },
        },
        "schedulers": {"har": {"queue_depth": 3}},
        "prediction_cache": {"entries": 7, "max_entries": 128},
        "shared_memory": {"segments": 2, "resident_bytes": 4096, "stats_slabs": 2},
        "cluster": {
            "har": {
                "respawns": 1,
                "failures": {"hangs": 1, "shard_retries": 2},
                "uptime_seconds": 10.0,
                "workers": {
                    "per_worker": [
                        {
                            "requests": 6,
                            "samples": 20,
                            "errors": 0,
                            "busy_seconds": 2.5,
                            "scoring_p50_ms": 400.0,
                            "scoring_p99_ms": 430.0,
                        },
                    ],
                    "fleet": {"requests": 6, "busy_seconds": 2.5},
                },
            },
        },
        "slo": {
            "alert_burn_rate": 14.4,
            "tenants": {
                "har": {
                    "budget_remaining": 0.75,
                    "windows": {
                        "fast": {"burn_rate": 2.0},
                        "slow": {"burn_rate": 0.5},
                    },
                    "alerting": False,
                },
            },
        },
    }


GOLDEN = """\
# HELP repro_requests_total Completed inference requests.
# TYPE repro_requests_total counter
repro_requests_total{model="har"} 12
# HELP repro_samples_total Samples scored.
# TYPE repro_samples_total counter
repro_samples_total{model="har"} 40
# HELP repro_errors_total Failed requests.
# TYPE repro_errors_total counter
repro_errors_total{model="har"} 1
# HELP repro_shed_total Requests rejected by admission control (HTTP 429).
# TYPE repro_shed_total counter
repro_shed_total{model="har"} 2
# HELP repro_deadline_exceeded_total Requests that missed their deadline (HTTP 504).
# TYPE repro_deadline_exceeded_total counter
repro_deadline_exceeded_total{model="har"} 1
# HELP repro_cache_hits_total Prediction-cache hits.
# TYPE repro_cache_hits_total counter
repro_cache_hits_total{model="har"} 3
# HELP repro_cache_misses_total Prediction-cache misses.
# TYPE repro_cache_misses_total counter
repro_cache_misses_total{model="har"} 9
# HELP repro_batches_total Coalesced micro-batches executed.
# TYPE repro_batches_total counter
repro_batches_total{model="har"} 5
# HELP repro_request_latency_seconds End-to-end request latency.
# TYPE repro_request_latency_seconds histogram
repro_request_latency_seconds_bucket{model="har",le="0.001"} 2
repro_request_latency_seconds_bucket{model="har",le="0.01"} 10 # {trace_id="deadbeefdeadbeef"} 0.0089 1700000000
repro_request_latency_seconds_bucket{model="har",le="+Inf"} 12
repro_request_latency_seconds_sum{model="har"} 0.06
repro_request_latency_seconds_count{model="har"} 12
# HELP repro_stage_latency_seconds Per-stage latency (validate, queue_wait, dispatch, ...).
# TYPE repro_stage_latency_seconds histogram
repro_stage_latency_seconds_bucket{model="har",stage="validate",le="0.001"} 12
repro_stage_latency_seconds_bucket{model="har",stage="validate",le="+Inf"} 12
repro_stage_latency_seconds_sum{model="har",stage="validate"} 0.001
repro_stage_latency_seconds_count{model="har",stage="validate"} 12
# HELP repro_scheduler_queue_depth Requests waiting in the micro-batch queue.
# TYPE repro_scheduler_queue_depth gauge
repro_scheduler_queue_depth{model="har"} 3
# HELP repro_prediction_cache_entries Resident LRU cache entries.
# TYPE repro_prediction_cache_entries gauge
repro_prediction_cache_entries 7
# HELP repro_shm_segments Published shared-memory segments.
# TYPE repro_shm_segments gauge
repro_shm_segments 2
# HELP repro_shm_resident_bytes Bytes of packed model banks resident in shared memory.
# TYPE repro_shm_resident_bytes gauge
repro_shm_resident_bytes 4096
# HELP repro_cluster_respawns_total Worker respawns after crashes.
# TYPE repro_cluster_respawns_total counter
repro_cluster_respawns_total{dispatcher="har"} 1
# HELP repro_cluster_hangs_total Worker hangs detected by the request-timeout watchdog.
# TYPE repro_cluster_hangs_total counter
repro_cluster_hangs_total{dispatcher="har"} 1
# HELP repro_cluster_shard_retries_total Shards retried once after a worker fault.
# TYPE repro_cluster_shard_retries_total counter
repro_cluster_shard_retries_total{dispatcher="har"} 2
# HELP repro_worker_requests_total Shards answered by each cluster worker.
# TYPE repro_worker_requests_total counter
repro_worker_requests_total{dispatcher="har",worker="0"} 6
# HELP repro_worker_busy_seconds_total Cumulative scoring time inside each worker.
# TYPE repro_worker_busy_seconds_total counter
repro_worker_busy_seconds_total{dispatcher="har",worker="0"} 2.5
# HELP repro_worker_utilization Worker busy fraction since the dispatcher started.
# TYPE repro_worker_utilization gauge
repro_worker_utilization{dispatcher="har",worker="0"} 0.25
# HELP repro_slo_error_budget_remaining Fraction of the tenant's error budget left (1 = untouched).
# TYPE repro_slo_error_budget_remaining gauge
repro_slo_error_budget_remaining{tenant="har"} 0.75
# HELP repro_slo_burn_rate Error-budget burn rate over the fast/slow window.
# TYPE repro_slo_burn_rate gauge
repro_slo_burn_rate{tenant="har",window="fast"} 2
repro_slo_burn_rate{tenant="har",window="slow"} 0.5
# HELP repro_slo_alerting Multiwindow burn-rate alert firing (1) or quiet (0).
# TYPE repro_slo_alerting gauge
repro_slo_alerting{tenant="har"} 0
"""


class TestRender:
    def test_golden_exposition(self):
        # The full output is pinned: any format drift is an API change for
        # whoever scrapes /metrics, and must show up in review.
        assert render_prometheus(_snapshot()) == GOLDEN

    def test_golden_output_validates(self):
        validate_exposition(GOLDEN)

    def test_transport_series_count_pipe_bytes_and_frames_per_worker(self):
        snapshot = {
            "cluster": {
                "har": {
                    "transport_stats": {
                        "per_worker": [
                            {
                                "frames_sent": 3,
                                "frames_received": 3,
                                "pipe_bytes": 900,
                                "payload_bytes": 800,
                            },
                            None,  # a worker slot awaiting respawn
                        ],
                        "totals": {
                            "pipe_bytes": 900,
                            "shm_bytes": 0,
                            "socket_bytes": 0,
                        },
                    },
                },
            },
        }
        text = render_prometheus(snapshot)
        validate_exposition(text)
        assert (
            'repro_transport_pipe_bytes_total{dispatcher="har",worker="0"} 900'
            in text
        )
        assert 'repro_transport_frames_total{dispatcher="har",worker="0"} 6' in text
        assert 'worker="1"' not in text
        assert "shm" not in text and "socket" not in text and "ring" not in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""

    def test_label_values_are_escaped(self):
        text = render_prometheus(
            {"schedulers": {'m"odel\n': {"queue_depth": 1}}}
        )
        assert 'model="m\\"odel\\n"' in text
        validate_exposition(text)

    def test_content_type_is_prometheus_text(self):
        assert CONTENT_TYPE.startswith("text/plain; version=0.0.4")


class TestValidate:
    def test_rejects_undeclared_family(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            validate_exposition('mystery_metric{a="b"} 1\n')

    def test_rejects_unparseable_sample(self):
        with pytest.raises(ValueError, match="unparseable"):
            validate_exposition(
                "# TYPE broken counter\nbroken not-a-number\n"
            )

    def test_rejects_non_cumulative_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
        )
        with pytest.raises(ValueError, match="cumulative"):
            validate_exposition(text)

    def test_accepts_exemplar_on_bucket(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5 # {trace_id="abcd1234abcd1234"} 0.042 1700000000\n'
            'h_bucket{le="+Inf"} 5\n'
        )
        validate_exposition(text)

    def test_accepts_exemplar_without_timestamp(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 5 # {trace_id="abcd1234abcd1234"} 0.042\n'
        )
        validate_exposition(text)

    def test_rejects_exemplar_on_non_bucket_sample(self):
        text = (
            "# TYPE c_total counter\n"
            'c_total 5 # {trace_id="abcd1234abcd1234"} 0.042\n'
        )
        with pytest.raises(ValueError, match="non-bucket"):
            validate_exposition(text)

    def test_rejects_malformed_exemplar(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 5 # {trace_id=unquoted} 0.042\n'
        )
        with pytest.raises(ValueError, match="malformed exemplar"):
            validate_exposition(text)
        with pytest.raises(ValueError, match="malformed exemplar"):
            validate_exposition(
                "# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 5 # {trace_id="abc"} not-a-number\n'
            )
