"""Cluster benchmarks: dispatch micro-costs and scaling, parity always.

Shared by ``benchmarks/bench_cluster_scaling.py`` and ``repro
bench-dispatch``.  Two harnesses over one trained model at serving scale
(D=4000 by default):

* :func:`run_dispatch_microbench` — the per-dispatch cost of the pipe with
  one worker, so the number isolates carriage overhead rather than
  parallelism: wall time per dispatch, exact pipe and payload bytes from the
  parent pipe's own counters, and an estimated syscall count (two per
  frame: one write, one read).
* :func:`run_cluster_scaling_benchmark` — samples/second of the sharded
  cluster vs the single-process engine, swept over worker count, with
  workers pinned round-robin via ``sched_setaffinity`` where the platform
  allows it.

Both harnesses assert bit-identical parity against the single-process
engine *before* any timing is reported, and both record ``cpu_count``, the
available-CPU mask, and the per-worker pin map — on a single-CPU host the
scaling result carries an explicit note that speedup is not claimed there
(the cluster pays fork + carriage overhead for no parallelism), instead of
silently benchmarking workers below single-process.

An ensemble (``MultiModelHDC``) parity check rides along so the
max-over-bank merge path is exercised at benchmark scale, not just in the
unit tests.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.cluster.affinity import available_cpus
from repro.cluster.dispatcher import ClusterDispatcher
from repro.datasets.synthetic import make_gaussian_classes
from repro.hdc.encoders import RecordEncoder
from repro.serve.engine import PackedInferenceEngine


def _throughput(run, num_samples: int, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return num_samples / best if best > 0 else float("inf")


def _build_engine(
    dimension: int,
    num_features: int,
    num_classes: int,
    num_samples: int,
    seed: int,
):
    train_features, train_labels, test_features, _ = make_gaussian_classes(
        num_classes=num_classes,
        num_features=num_features,
        train_size=max(40 * num_classes, 200),
        test_size=num_samples,
        class_sep=2.5,
        seed=seed,
    )
    encoder = RecordEncoder(
        dimension=dimension, num_levels=16, tie_break="positive", seed=seed
    )
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=seed))
    pipeline.fit(train_features, train_labels)
    engine = PackedInferenceEngine(pipeline, name="scaling")
    engine.warmup()
    return engine, train_features, train_labels, test_features[:num_samples]


# ------------------------------------------------------------- micro-bench
def run_dispatch_microbench(
    dimension: int = 4000,
    num_features: int = 64,
    num_classes: int = 10,
    batch_size: int = 64,
    k: int = 10,
    repeats: int = 30,
    seed: int = 0,
) -> Dict[str, object]:
    """Per-dispatch pipe cost with one worker: bytes, frames, wall time.

    Parity against the single-process engine is asserted (bit-identical
    labels *and* scores) before a single timed dispatch; the byte counters
    come from the parent pipe itself, so ``pipe_bytes_per_dispatch`` is
    exact, not estimated.
    """
    engine, _, _, queries = _build_engine(
        dimension, num_features, num_classes, max(batch_size, 64), seed
    )
    batch = queries[:batch_size]
    expected_labels, expected_scores = engine.top_k(batch, k=k)

    with ClusterDispatcher(engine, num_workers=1, name="micro") as dispatcher:
        labels, scores = dispatcher.top_k(batch, k=k)
        if not (
            np.array_equal(labels, expected_labels)
            and np.array_equal(scores, expected_scores)
        ):
            raise AssertionError(
                "cluster dispatch broke top-k parity; refusing to time it"
            )
        dispatcher.top_k(batch, k=k)  # warm the pipe buffers
        before = dispatcher.transport_stats()["totals"]
        started = time.perf_counter()
        for _ in range(repeats):
            dispatcher.top_k(batch, k=k)
        elapsed = time.perf_counter() - started
        after = dispatcher.transport_stats()["totals"]
    delta = {key: after[key] - before[key] for key in after}
    frames = delta["frames_sent"] + delta["frames_received"]
    return {
        "config": {
            "dimension": dimension,
            "num_features": num_features,
            "num_classes": num_classes,
            "batch_size": batch_size,
            "k": k,
            "repeats": repeats,
        },
        "cpu_count": os.cpu_count() or 1,
        "available_cpus": available_cpus(),
        "parity": True,
        "dispatch": {
            "wall_seconds_per_dispatch": elapsed / repeats,
            "samples_per_second": batch_size * repeats / elapsed,
            "pipe_bytes_per_dispatch": delta["pipe_bytes"] / repeats,
            "payload_bytes_per_dispatch": delta["payload_bytes"] / repeats,
            "frames_per_dispatch": frames / repeats,
            # One write + one read per frame.
            "estimated_syscalls_per_dispatch": 2 * frames / repeats,
        },
    }


# ----------------------------------------------------------- scaling bench
def run_cluster_scaling_benchmark(
    dimension: int = 4000,
    num_features: int = 64,
    num_classes: int = 10,
    num_samples: int = 256,
    batch_size: int = 64,
    worker_counts: Sequence[int] = (1, 2, 4),
    ensemble_models_per_class: int = 8,
    cpu_affinity: Optional[str] = "auto",
    seed: int = 0,
) -> Dict[str, object]:
    """Measure cluster throughput per worker count; verify parity.

    Returns ``{config, cpu_count, available_cpus, pin_maps, rates, speedups,
    parity, transport_totals, scaling_note}`` where ``rates`` maps
    ``"single-process"`` and ``"pipe:workers-N"`` to samples/second,
    ``speedups`` normalises by the single-process rate, ``pin_maps`` records
    the per-worker CPU assignment actually applied (``None`` entries mean
    the pin was skipped or refused), and ``scaling_note`` is a non-empty
    honesty annotation whenever the host cannot support a speedup claim
    (``cpu_count == 1``).
    """
    engine, train_features, train_labels, queries = _build_engine(
        dimension, num_features, num_classes, num_samples, seed
    )
    reference_scores = engine.decision_scores(queries)

    def run_batches(top_k):
        for start in range(0, num_samples, batch_size):
            top_k(queries[start : start + batch_size], k=1)

    rates: Dict[str, float] = {
        "single-process": _throughput(lambda: run_batches(engine.top_k), num_samples)
    }
    parity: Dict[str, bool] = {"single-process": True}
    pin_maps: Dict[str, object] = {}
    transport_totals: Dict[str, Dict[str, int]] = {}

    for count in worker_counts:
        key = f"pipe:workers-{count}"
        with ClusterDispatcher(
            engine, num_workers=count, cpu_affinity=cpu_affinity, name=key
        ) as dispatcher:
            parity[key] = bool(
                np.array_equal(dispatcher.decision_scores(queries), reference_scores)
            )
            rates[key] = _throughput(
                lambda: run_batches(dispatcher.top_k), num_samples
            )
            pin_maps[key] = dispatcher.info()["pin_map"]
            transport_totals[key] = dispatcher.transport_stats()["totals"]

    # Ensemble max-over-bank merge parity at benchmark dimension (the merge
    # happens worker-side; sharding must preserve it bit for bit).
    ensemble_encoder = RecordEncoder(
        dimension=dimension, num_levels=16, tie_break="positive", seed=seed + 1
    )
    ensemble_pipeline = HDCPipeline(
        ensemble_encoder,
        MultiModelHDC(
            models_per_class=ensemble_models_per_class, iterations=1, seed=seed
        ),
    )
    ensemble_pipeline.fit(train_features, train_labels)
    ensemble_engine = PackedInferenceEngine(ensemble_pipeline, name="scaling-ens")
    ensemble_queries = queries[: min(64, num_samples)]
    ensemble_expected = ensemble_engine.decision_scores(ensemble_queries)
    with ClusterDispatcher(ensemble_engine, num_workers=2) as dispatcher:
        parity["ensemble:pipe-workers-2"] = bool(
            np.array_equal(
                dispatcher.decision_scores(ensemble_queries), ensemble_expected
            )
        )

    cpu_count = os.cpu_count() or 1
    baseline_rate = rates["single-process"]
    return {
        "config": {
            "dimension": dimension,
            "num_features": num_features,
            "num_classes": num_classes,
            "num_samples": num_samples,
            "batch_size": batch_size,
            "worker_counts": list(worker_counts),
            "cpu_affinity": cpu_affinity,
            "ensemble_models_per_class": ensemble_models_per_class,
        },
        "cpu_count": cpu_count,
        "available_cpus": available_cpus(),
        "pin_maps": pin_maps,
        "rates": rates,
        "speedups": {mode: rate / baseline_rate for mode, rate in rates.items()},
        "parity": parity,
        "transport_totals": transport_totals,
        "scaling_note": (
            "cpu_count == 1: no parallelism is available, so worker rates "
            "measure dispatch overhead only and no speedup is claimed"
            if cpu_count < 2
            else ""
        ),
    }


def format_scaling_rows(result: Dict[str, object]):
    """Rows ``[mode, samples/s, vs single-process, parity]`` for ``format_table``."""
    rates: Dict[str, float] = result["rates"]  # type: ignore[assignment]
    speedups: Dict[str, float] = result["speedups"]  # type: ignore[assignment]
    parity: Dict[str, bool] = result["parity"]  # type: ignore[assignment]
    single_cpu = int(result.get("cpu_count", 1)) < 2
    rows = []
    for mode in rates:
        if mode == "single-process" or not single_cpu:
            speedup = f"{speedups[mode]:.2f}x"
        else:
            # A "speedup" measured on one CPU is dispatch overhead, not
            # scaling — annotate instead of printing a misleading ratio.
            speedup = f"({speedups[mode]:.2f}x, 1 cpu: overhead only)"
        rows.append(
            [
                mode,
                f"{rates[mode]:.0f}",
                speedup,
                "exact" if parity.get(mode) else "MISMATCH",
            ]
        )
    return rows


def format_microbench_rows(result: Dict[str, object]):
    """Rows for the per-dispatch pipe cost table."""
    cost: Dict[str, float] = result["dispatch"]  # type: ignore[assignment]
    return [
        [
            f"{cost['wall_seconds_per_dispatch'] * 1e6:.0f}",
            f"{cost['pipe_bytes_per_dispatch']:.0f}",
            f"{cost['payload_bytes_per_dispatch']:.0f}",
            f"{cost['frames_per_dispatch']:.1f}",
        ]
    ]


#: Column headers matching :func:`format_microbench_rows`.
MICROBENCH_HEADERS = ["us/dispatch", "pipe B/disp", "payload B/disp", "frames/disp"]


__all__ = [
    "MICROBENCH_HEADERS",
    "format_microbench_rows",
    "format_scaling_rows",
    "run_cluster_scaling_benchmark",
    "run_dispatch_microbench",
]
