"""The ``serve-single`` and ``serve-batch`` workloads: ``repro serve`` over HTTP.

The benchmark fits a LeHDC ucihar model from the seed, saves it, launches
``repro serve`` on a probed free port and drives it with its own client:
one process, two sending threads, each holding one persistent HTTP/1.1
connection for the whole server lifetime.  Every payload is a test row
plus seeded jitter, so the prediction cache never hits, and every served
label is checked against ``load_model(path).predict`` on the same rows.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from harness import (
    WORK_DIR,
    BenchmarkError,
    free_port,
    latency_summary,
    metric,
    process_group_alive,
    process_tree,
    program_env,
    shm_entries,
    vm_hwm_mb,
)
from train import build_pipeline, class_digest, kernel_rate_metrics, probed_fit, timed_fit

MODEL_NAME = "har"
DATASET = "ucihar"
#: Fewer epochs than Table 2's 100; below ~20 the test accuracy of some
#: seeds falls far short of the rest.
SERVE_EPOCHS = 20
#: Warm refits timed for ``train_s``; the served model's own fit is the
#: process's first, runs cold, and is not timed.
MODEL_FITS = 3
#: Open-loop arrival rate.  A request sent within ~40 ms of the previous
#: answer on its connection hits the keep-alive stall (README.md), and a
#: stalled sender makes the next request late, hence stalled too.  The
#: share of stalled or late requests sets which percentile of the
#: un-stalled requests the p50 lands on: at 14 req/s (15-35%) it sat on
#: their upper shoulder, and host slow spells swung it 5.2-8.7 ms between
#: runs.  The tail needs at least 11 stalls: at 10 req/s a 24 s loop of
#: some seeds' arrival times held fewer, and the tail fell to ~16 ms.  At
#: 12 req/s ~8-17% stall, which keeps both away from those edges.
SINGLE_RATE_PER_S = 12.0
SENDERS = 2
BATCH_ROWS = 64
#: Feature jitter, as a fraction of each feature's test-split spread.
JITTER = 0.01
LAUNCHES = 3
#: Timed traffic of each run, as shares of ``--seconds``.  The single-row
#: open loop runs longest on both serve workloads: the host has slow spells
#: of 5-20 s, and its p50 is only as steady as the number of spells a run
#: averages over.  64-row latency is mostly the keep-alive stall and varies
#: little, so it needs fewer seconds.
SHARES = {
    "serve-single": {"single": 1.5, "batch": 0.25},
    "serve-batch": {"batch": 0.5, "single": 1.5},
}
#: Untimed open-loop traffic before each server's timed traffic.  The first
#: seconds of a server's traffic were often ~30% slower than the rest.
WARMUP_SECONDS = 2.0
WARMUP_BATCH = 3
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0

WORKERS = {"serve-single": 1, "serve-batch": 2}

SERVE_LAYER_UNITS = {
    "client.latency_mean_ms": "ms",
    "client.late_ms": "ms",
    "http.front_door_ms": "ms",
    "serve.validate_ms": "ms",
    "serve.cache_lookup_ms": "ms",
    "serve.batching.queue_wait_ms": "ms",
    "serve.batching.batch_execute_ms": "ms",
    "serve.batching.batch_size_mean": "rows",
    "cluster.dispatch_ms": "ms",
    "cluster.worker_score_ms": "ms",
    "cluster.dispatch_unattributed_ms": "ms",
    "cluster.merge_ms": "ms",
    "serve.respond_ms": "ms",
    "serve.unattributed_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "cluster.worker_utilization": "ratio",
    "cluster.transport_bytes_per_dispatch": "bytes",
    "cluster.respawns": "count",
    "cluster.shard_retries": "count",
    "cluster.transport_errors": "count",
}
#: Per-request means that sum to ``client.latency_mean_ms``.
ADDITIVE_STAGES = (
    "client.late_ms",
    "http.front_door_ms",
    "serve.validate_ms",
    "serve.cache_lookup_ms",
    "serve.batching.queue_wait_ms",
    "serve.batching.batch_execute_ms",
    "cluster.dispatch_ms",
    "cluster.merge_ms",
    "serve.respond_ms",
    "serve.unattributed_ms",
)
#: Direct children of the server's ``request`` span.  A span not listed here
#: stays inside ``serve.unattributed_ms``.
_SPAN_STAGES = {
    "validate": "serve.validate_ms",
    "cache_lookup": "serve.cache_lookup_ms",
    "queue_wait": "serve.batching.queue_wait_ms",
    "batch_execute": "serve.batching.batch_execute_ms",
    "dispatch": "cluster.dispatch_ms",
    "merge": "cluster.merge_ms",
    "respond": "serve.respond_ms",
}


# ------------------------------------------------------------------ inputs
class PayloadMaker:
    """Unique request rows: test rows in seeded order plus seeded jitter."""

    def __init__(self, features: np.ndarray, seed: int):
        self._features = features
        self._scale = JITTER * features.std(axis=0)
        self._rng = np.random.default_rng([seed, 1])
        self._order = self._rng.permutation(features.shape[0])
        self._cursor = 0

    def take(self, count: int) -> np.ndarray:
        index = self._order[
            np.arange(self._cursor, self._cursor + count) % len(self._order)
        ]
        self._cursor += count
        noise = self._rng.normal(size=(count, self._features.shape[1]))
        return self._features[index] + noise * self._scale


def request_body(rows: np.ndarray) -> bytes:
    """A predict payload: one row as a 1-D list, several as a 2-D list."""
    features = rows[0].tolist() if rows.shape[0] == 1 else rows.tolist()
    return json.dumps({"model": MODEL_NAME, "features": features}).encode()


# ------------------------------------------------------------------ server
class Server:
    """One ``repro serve`` process group, always torn down by :meth:`stop`."""

    def __init__(self, model_path: Path, workers: int, workdir: Path, trace_path=None):
        self.model_path = model_path
        self.workers = workers
        self.workdir = workdir
        self.trace_path = trace_path
        self.process = None
        self.port = None

    def start(self) -> float:
        """Launch and wait for ``/v1/readyz`` 200; returns the seconds it took."""
        for _ in range(3):
            self.port = free_port()
            command = [
                sys.executable, "-m", "repro", "serve",
                "--model", f"{MODEL_NAME}={self.model_path}",
                "--port", str(self.port),
            ]
            if self.workers > 1:
                command += ["--workers", str(self.workers)]
            if self.trace_path is not None:
                command += ["--trace", str(self.trace_path), "--trace-sample", "1"]
            log_path = self.workdir / f"server-{self.port}.log"
            with open(log_path, "wb") as log:
                started = time.perf_counter()
                self.process = subprocess.Popen(
                    command,
                    env=program_env(),
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    stdin=subprocess.DEVNULL,
                    start_new_session=True,
                )
            while time.perf_counter() - started < READY_TIMEOUT_S:
                if self.process.poll() is not None:
                    break
                if self._ready():
                    return time.perf_counter() - started
                time.sleep(0.005)
            self.stop()
            output = log_path.read_text(errors="replace")
            if "Address already in use" not in output:
                raise BenchmarkError(f"repro serve never became ready:\n{output[-2000:]}")
        raise BenchmarkError("no free port found for repro serve")

    def _ready(self) -> bool:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=2)
        try:
            connection.request("GET", "/v1/readyz")
            return connection.getresponse().status == 200
        except OSError:
            return False
        finally:
            connection.close()

    def metrics(self) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", "/v1/metrics")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the server and its worker processes."""
        return vm_hwm_mb(process_tree(self.process.pid))

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL the group if it lingers;
        returns only when no process of the group is left."""
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while process_group_alive(process.pid):
            if time.monotonic() > deadline:
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
            time.sleep(0.05)
        try:
            process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


# ------------------------------------------------------------------ client
class Connection:
    """One persistent HTTP/1.1 connection."""

    def __init__(self, port: int):
        self._http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def post(self, body: bytes):
        """``(status, answer)``; a broken connection is status 0, and the
        next request reconnects."""
        try:
            self._http.request(
                "POST", "/v1/predict", body=body, headers={"Content-Type": "application/json"}
            )
            response = self._http.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self._http.close()
            return 0, {}
        try:
            return response.status, json.loads(payload)
        except json.JSONDecodeError:
            return response.status, {}

    def close(self) -> None:
        self._http.close()


class Client:
    """The load generator, logging every request.

    It opens its connections once per server lifetime and keeps them: one
    per open-loop sending thread, and one for the closed loop.  Fixed
    connections keep the server's per-connection threads, and the memory
    they touch, the same on every run, and each connection only ever
    carries one kind of request, so its TCP acknowledgement state does too.
    """

    def __init__(self, port: int, maker: PayloadMaker, records: list):
        self.maker = maker
        self.records = records
        self._lock = threading.Lock()
        self._senders = [Connection(port) for _ in range(SENDERS)]
        self._batch = Connection(port)

    def close(self) -> None:
        for connection in (*self._senders, self._batch):
            connection.close()

    def _send(self, connection, phase, rows, body, due=None):
        sent = time.perf_counter()
        status, answer = connection.post(body)
        done = time.perf_counter()
        with self._lock:
            self.records.append(
                {
                    "phase": phase,
                    "rows": rows,
                    "due": sent if due is None else due,
                    "sent": sent,
                    "done": done,
                    "status": status,
                    "labels": answer.get("labels"),
                    "trace_id": answer.get("trace_id"),
                }
            )

    def warm_up(self, rng) -> None:
        """Trigger lazy set-up (worker pool spawn, first-call costs) and run
        both kinds of traffic untimed."""
        self.closed_loop("warmup", count=WARMUP_BATCH)
        self.open_loop("warmup", WARMUP_SECONDS, rng)

    def open_loop(self, phase: str, seconds: float, rng) -> None:
        """Single-row requests at Poisson arrivals of SINGLE_RATE_PER_S, each
        timed from when it was due, so a stalled sender delays later ones."""
        offsets = np.cumsum(
            rng.exponential(1.0 / SINGLE_RATE_PER_S, int(seconds * SINGLE_RATE_PER_S * 3) + 16)
        )
        offsets = offsets[offsets < seconds]
        rows = [self.maker.take(1) for _ in offsets]
        bodies = [request_body(row) for row in rows]
        cursor = iter(range(len(bodies)))
        cursor_lock = threading.Lock()
        errors = []
        start = time.perf_counter() + 0.05

        def sender(connection):
            try:
                while True:
                    with cursor_lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    due = start + offsets[index]
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    self._send(connection, phase, rows[index], bodies[index], due)
            except Exception as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        threads = [
            threading.Thread(target=sender, args=(connection,), daemon=True)
            for connection in self._senders
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise BenchmarkError(f"open-loop sender failed: {errors[0]!r}")

    def closed_loop(self, phase: str, seconds=None, count=None) -> None:
        """64-row requests over one connection, each sent when the last
        returns, for ``seconds`` or for ``count`` requests."""
        started = time.perf_counter()
        sent = 0
        while (sent < count) if count is not None else (time.perf_counter() - started < seconds):
            rows = self.maker.take(BATCH_ROWS)
            self._send(self._batch, phase, rows, request_body(rows))
            sent += 1


def latencies_ms(records: list, phase: str) -> list:
    """Answered requests of ``phase``, each timed from when it was due."""
    return [
        (r["done"] - r["due"]) * 1e3
        for r in records
        if r["phase"] == phase and r["status"] == 200
    ]


# ------------------------------------------------------------------ checks
def answer_checks(records: list, model_path: Path):
    """Statuses and labels of every request, against offline prediction;
    returns ``(checks, failed requests)``."""
    from repro.io import load_model

    answered = [r for r in records if r["status"] == 200]
    mismatched = 0
    if answered:
        offline = load_model(model_path).predict(np.vstack([r["rows"] for r in answered]))
        cursor = 0
        for record in answered:
            count = record["rows"].shape[0]
            if record["labels"] != offline[cursor : cursor + count].tolist():
                mismatched += 1
            cursor += count
    bad_status = len(records) - len(answered)
    checks = {"all_status_200": bad_status == 0, "labels_match_offline": mismatched == 0}
    return checks, bad_status + mismatched


# ------------------------------------------------------------ trace tables
def _interval_union(intervals) -> float:
    total, end = 0.0, None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def trace_breakdown(trace_path: Path, records: list):
    """Per-request stage means, joined to client timings by ``trace_id``;
    returns ``(means, joined request count)``.

    A request's client latency (from when it was due) splits into
    ``client.late_ms`` (sender behind schedule), ``http.front_door_ms``
    (client round trip minus the server's ``request`` span: HTTP parsing,
    JSON decode and encode, socket writes), the ``request`` span's direct
    children, and ``serve.unattributed_ms`` (the rest of the span).
    ``cluster.dispatch_ms`` splits further into the wall time covered by its
    parallel ``worker:score`` spans and ``cluster.dispatch_unattributed_ms``.
    """
    from repro.obs.trace import parse_trace_file

    by_trace = {}
    for span in parse_trace_file(trace_path):
        by_trace.setdefault(span["trace"], []).append(span)
    rows = []
    for record in records:
        trace = by_trace.get(record["trace_id"])
        if not trace:
            continue
        children = {}
        for span in trace:
            children.setdefault(span.get("parent"), []).append(span)
        root = next(span for span in trace if span["name"] == "request")
        row = dict.fromkeys(SERVE_LAYER_UNITS, 0.0)
        round_trip = (record["done"] - record["sent"]) * 1e3
        row["client.latency_mean_ms"] = (record["done"] - record["due"]) * 1e3
        row["client.late_ms"] = (record["sent"] - record["due"]) * 1e3
        row["http.front_door_ms"] = round_trip - root["dur_ms"]
        attributed = 0.0
        for span in children.get(root["span"], []):
            key = _SPAN_STAGES.get(span["name"])
            if key is None:
                continue
            row[key] += span["dur_ms"]
            attributed += span["dur_ms"]
            if span["name"] == "dispatch":
                low, high = span["ts"], span["ts"] + span["dur_ms"] / 1e3
                covered_ms = 1e3 * _interval_union(
                    (max(low, s["ts"]), min(high, s["ts"] + s["dur_ms"] / 1e3))
                    for s in children.get(span["span"], [])
                    if s["name"] == "worker:score"
                )
                row["cluster.worker_score_ms"] += covered_ms
                row["cluster.dispatch_unattributed_ms"] += span["dur_ms"] - covered_ms
        row["serve.unattributed_ms"] = root["dur_ms"] - attributed
        rows.append(row)
    if not rows:
        raise BenchmarkError("no traced request could be joined to the trace file")
    means = {key: statistics.fmean(row[key] for row in rows) for key in SERVE_LAYER_UNITS}
    return means, len(rows)


def metrics_delta(before: dict, after: dict) -> dict:
    """Counters from two ``/v1/metrics`` snapshots taken around a run."""
    model_before = before["models"][MODEL_NAME]
    model_after = after["models"][MODEL_NAME]
    hits = model_after["cache"]["hits"] - model_before["cache"]["hits"]
    misses = model_after["cache"]["misses"] - model_before["cache"]["misses"]
    batches = rows = 0
    for size, count in model_after["batch_size_distribution"].items():
        delta = count - model_before["batch_size_distribution"].get(size, 0)
        batches += delta
        rows += int(size) * delta
    busy = uptime = carried = respawns = retries = transport_errors = 0.0
    for name, info in after.get("cluster", {}).items():
        prior = before.get("cluster", {}).get(name)
        if prior is None:
            raise BenchmarkError(f"dispatcher {name} appeared during the measured run")
        busy += info["workers"]["fleet"]["busy_seconds"] - prior["workers"]["fleet"]["busy_seconds"]
        uptime += info["uptime_seconds"] - prior["uptime_seconds"]
        totals, prior_totals = info["transport_stats"]["totals"], prior["transport_stats"]["totals"]
        carried += sum(
            totals[key] - prior_totals[key] for key in ("pipe_bytes", "shm_bytes", "socket_bytes")
        )
        respawns += info["respawns"] - prior["respawns"]
        retries += info["failures"]["shard_retries"] - prior["failures"]["shard_retries"]
        transport_errors += (
            info["failures"]["transport_errors"] - prior["failures"]["transport_errors"]
        )

    def dispatch_count(model):
        return model["stages"].get("dispatch", {}).get("count", 0)

    dispatches = dispatch_count(model_after) - dispatch_count(model_before)
    return {
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.batching.batch_size_mean": rows / batches if batches else 0.0,
        "cluster.worker_utilization": busy / uptime if uptime else 0.0,
        "cluster.transport_bytes_per_dispatch": carried / dispatches if dispatches else 0.0,
        "cluster.respawns": respawns,
        "cluster.shard_retries": retries,
        "cluster.transport_errors": transport_errors,
    }


# ---------------------------------------------------------------- workload
def _lifetime(workload, model_path, workdir, maker, records, traffic, seed, trace_path=None):
    """Launch a server, warm it up, run ``traffic(client)``, tear it down.

    ``/v1/metrics`` is read around the traffic only on traced lifetimes:
    each read opens a connection, and with it a server thread.
    """
    server = Server(model_path, WORKERS[workload], workdir, trace_path)
    try:
        setup_s = server.start()
        client = Client(server.port, maker, records)
        try:
            client.warm_up(np.random.default_rng([seed, 3]))
            before = server.metrics() if trace_path else None
            traffic(client)
            after = server.metrics() if trace_path else None
            peak_rss = server.peak_rss_mb()
        finally:
            client.close()
    finally:
        server.stop()
    return {"setup_s": setup_s, "before": before, "after": after, "peak_rss_mb": peak_rss}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run a serve workload.  Every server is gone and the scratch directory
    removed when this returns; leaked ``/dev/shm`` segments fail a check."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    shm_before = shm_entries()
    try:
        result = (_run_traced if trace else _run)(workload, seed, seconds, workdir)
        logs = "".join(path.read_text(errors="replace") for path in workdir.glob("*.log"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    leaked = sorted(shm_entries() - shm_before)
    # The resource tracker unlinks what a server leaked, and says so.
    result["checks"]["no_leaked_shm_segments"] = not leaked and "leaked shared_memory" not in logs
    result["details"]["leaked_shm"] = leaked
    return result


def _served_pipeline(seed):
    return build_pipeline(DATASET, seed, SERVE_EPOCHS, tie_break="positive")


def _run(workload, seed, seconds, workdir):
    from repro import get_dataset
    from repro.io import save_model

    data = get_dataset(DATASET, profile="small", seed=seed, prefer_real=False)
    # The served model's fit is the process's first, and runs cold; only the
    # warm refits after the traffic are timed.
    fitted = _served_pipeline(seed)
    fitted.fit(data.train_features, data.train_labels)
    fit_times, digests = [], {class_digest(fitted)}
    model_path = workdir / "model.npz"
    save_model(model_path, fitted)

    rng = np.random.default_rng([seed, 2])
    shares = SHARES[workload]

    def traffic(client):
        for phase, share in shares.items():
            if phase == "single":
                client.open_loop(phase, seconds * share, rng)
            else:
                client.closed_loop(phase, seconds=seconds * share)

    # The traffic runs right after the one fit it needs: the timed fits and
    # the extra launches are bursts of CPU work that would otherwise sit just
    # before it.
    records = []
    maker = PayloadMaker(data.test_features, seed)
    lifetime = _lifetime(workload, model_path, workdir, maker, records, traffic, seed)
    setup_samples = [lifetime["setup_s"]]
    for _ in range(MODEL_FITS):
        refit = _served_pipeline(seed)
        fit_times.append(timed_fit(refit, data))
        digests.add(class_digest(refit))
    for _ in range(LAUNCHES - 1):
        server = Server(model_path, WORKERS[workload], workdir)
        try:
            setup_samples.append(server.start())
        finally:
            server.stop()

    checks, failed_operations = answer_checks(records, model_path)
    checks["fits_bit_identical"] = len(digests) == 1
    single = latency_summary(latencies_ms(records, "single"))
    batch = latency_summary(latencies_ms(records, "batch"))
    late = [(r["sent"] - r["due"]) * 1e3 for r in records if r["phase"] == "single"]
    metrics = {
        "train_s": metric(statistics.median(fit_times), "s"),
        "train_test_accuracy": metric(
            fitted.score(data.test_features, data.test_labels), "fraction"
        ),
        "single_p50_ms": metric(single["p50_ms"], "ms"),
        "single_tail_ms": metric(single["tail_ms"], "ms"),
        # One connection, one request at a time: rows over busy time.
        "batch_rows_per_s": metric(BATCH_ROWS * 1e3 / batch["mean_ms"], "rows/s"),
        "batch_p50_ms": metric(batch["p50_ms"], "ms"),
        "batch_tail_ms": metric(batch["tail_ms"], "ms"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": metric(lifetime["peak_rss_mb"], "MB"),
    }
    return {
        "checks": checks,
        "attempted": len(records) + len(fit_times) + 1,
        "failed_operations": failed_operations,
        "metrics": metrics,
        "details": {
            "train_s_samples": fit_times,
            "setup_s_samples": setup_samples,
            "single": single,
            "single_late_ms_max": max(late),
            "batch": batch,
        },
    }


def _run_traced(workload, seed, seconds, workdir):
    """An untraced then a traced server lifetime of the primary traffic; the
    per-layer numbers come from the traced one only."""
    from repro import get_dataset
    from repro.io import load_model, save_model

    generate_started = time.perf_counter()
    data = get_dataset(DATASET, profile="small", seed=seed, prefer_real=False)
    generate_s = time.perf_counter() - generate_started
    _, layers, fitted = probed_fit(lambda: _served_pipeline(seed), data, SERVE_EPOCHS)
    layers["datasets.generate_s"] = metric(generate_s, "s")
    model_path = workdir / "model.npz"
    save_model(model_path, fitted)

    half = seconds / 2

    def traffic(phase):
        rng = np.random.default_rng([seed, 2])
        if workload == "serve-single":
            return lambda client: client.open_loop(phase, half, rng)
        return lambda client: client.closed_loop(phase, seconds=half)

    records = []
    maker = PayloadMaker(data.test_features, seed)
    _lifetime(workload, model_path, workdir, maker, records, traffic("untraced"), seed)
    trace_path = workdir / "trace.jsonl"
    traced = _lifetime(
        workload, model_path, workdir, maker, records, traffic("traced"), seed, trace_path
    )
    checks, failed_operations = answer_checks(records, model_path)
    traced_records = [r for r in records if r["phase"] == "traced" and r["status"] == 200]
    breakdown, joined = trace_breakdown(trace_path, traced_records)
    checks["every_request_traced"] = joined == len(traced_records)
    breakdown.update(metrics_delta(traced["before"], traced["after"]))
    overhead = statistics.median(latencies_ms(records, "traced")) / statistics.median(
        latencies_ms(records, "untraced")
    )
    values = {key: metric(breakdown[key], unit) for key, unit in SERVE_LAYER_UNITS.items()}
    values.update(layers)
    values.update(kernel_rate_metrics(load_model(model_path), data.test_features))
    values["trace.overhead_ratio"] = metric(overhead, "ratio")
    return {
        "checks": checks,
        "attempted": len(records) + 1,
        "failed_operations": failed_operations,
        "metrics": values,
        "details": {
            "traced_requests": len(traced_records),
            "stage_sum_ms": sum(breakdown[key] for key in ADDITIVE_STAGES),
            "client_latency_mean_ms": breakdown["client.latency_mean_ms"],
        },
    }
