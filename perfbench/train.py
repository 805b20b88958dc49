"""The ``train`` workload: fit LeHDC on synthetic MNIST through the public API.

Also home of the pieces every workload shares: the pipeline factory, the
training-layer probes (the serve workloads fit the model they serve, so
their traced runs report the same training layers), and the encode/score
kernel rates measured on a fitted model.
"""

from __future__ import annotations

import gc
import hashlib
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from harness import (
    BenchmarkError,
    Probe,
    latency_summary,
    metric,
    program_env,
    rate,
    vm_hwm_mb,
)

DIMENSION = 4000
TRAIN_EPOCHS = 20
DEFAULT_SEED = 0
#: First 16 hex digits of the sha256 of the int8 class hypervectors the
#: ``train`` workload fits at ``--seed 0``.  LeHDC training must stay
#: bit-identical, so a change in this digest is a failed check, not a new
#: baseline.
DEFAULT_SEED_DIGEST = "855b0295b0517618"
BATCH_ROWS = 64
#: A run fits at least this many times, and after each of its first
#: ``ROUNDS`` fits takes one slice of every inference block.  The host
#: switches between a fast and a ~1.5x slower speed for seconds at a time; a
#: block made of slices spread over the run sees the run's mix of both, where
#: a block timed in one go sees only one.
ROUNDS = 4
#: Fresh-interpreter set-up samples, one after each of the first fits.
SETUP_SAMPLES = 3

_SETUP_SCRIPT = """
import sys, time
started = time.perf_counter()
import repro
from repro.datasets.registry import get_dataset
get_dataset("mnist", profile="small", seed=int(sys.argv[1]), prefer_real=False)
print(time.perf_counter() - started)
"""


def build_pipeline(dataset: str, seed: int, epochs: int, tie_break: str = "random"):
    """The paper's pipeline: record encoder at D=4000 + LeHDC with the
    dataset's Table 2 hyper-parameters and a reduced epoch count."""
    from repro import HDCPipeline, LeHDCClassifier, RecordEncoder
    from repro.core.configs import get_paper_config

    return HDCPipeline(
        RecordEncoder(dimension=DIMENSION, tie_break=tie_break, seed=seed),
        LeHDCClassifier(
            get_paper_config(dataset).with_overrides(epochs=epochs), seed=seed
        ),
    )


def class_digest(pipeline) -> str:
    return hashlib.sha256(pipeline.class_hypervectors_.tobytes()).hexdigest()[:16]


def timed_fit(pipeline, data) -> float:
    started = time.perf_counter()
    pipeline.fit(data.train_features, data.train_labels)
    return time.perf_counter() - started


# ------------------------------------------------------------ train layers
TRAIN_LAYER_UNITS = {
    "datasets.generate_s": "s",
    "hdc.encode_s": "s",
    "hdc.encode_rows_per_s": "rows/s",
    "core.fit_s": "s",
    "core.epoch_s": "s",
    "nn.forward_s": "s",
    "nn.backward_s": "s",
    "nn.loss_s": "s",
    "nn.optimizer_s": "s",
    "nn.clip_s": "s",
    "nn.batches": "count",
    "kernels.linear.matmul_calls": "count",
    "kernels.linear.matmul_s": "s",
    "core.unattributed_s": "s",
    "pipeline.unattributed_s": "s",
    "classifiers.predict_rows_per_s": "rows/s",
}


#: Probes a fit may legitimately never reach: ``clip_gradient_norm`` runs
#: only when the config sets ``grad_clip_norm``.
OPTIONAL_PROBES = {"nn.grad_clip"}


def install_train_probes(probe: Probe) -> None:
    """Wrap the public functions one LeHDC fit calls, layer by layer."""
    import repro.core.bnn_model as bnn_model
    import repro.nn.layers as layers
    from repro.classifiers.base import HDCClassifierBase
    from repro.core.lehdc import LeHDCClassifier
    from repro.hdc.encoders import Encoder
    from repro.nn.optim import Optimizer

    probe.wrap(Encoder, "encode", "hdc.encode")
    probe.wrap(LeHDCClassifier, "fit", "core.fit")
    probe.wrap(bnn_model.BNNTrainer, "train", "core.train")
    probe.wrap(bnn_model.SingleLayerBNN, "forward", "nn.forward")
    probe.wrap(bnn_model.SingleLayerBNN, "backward", "nn.backward")
    probe.wrap(bnn_model, "cross_entropy_from_logits", "nn.loss")
    probe.wrap(Optimizer, "step", "nn.optimizer")
    probe.wrap(layers.BinaryLinear, "clip_latent", "nn.clip")
    probe.wrap(bnn_model, "clip_gradient_norm", "nn.grad_clip")
    probe.wrap(layers, "matmul", "kernels.linear.matmul")
    probe.wrap(HDCClassifierBase, "decision_scores_packed", "classifiers.score")


def train_layer_metrics(probe: Probe, fit_seconds: float, rows: int, epochs: int) -> dict:
    """The probed training layers of one fit (zero for a function the fit
    never called).

    ``core.unattributed_s`` is LeHDC fit time not spent in the five probed
    loop stages; ``pipeline.unattributed_s`` is ``HDCPipeline.fit`` time
    outside encode and the LeHDC fit (encoder item-memory set-up).
    """
    spent, calls = probe.seconds, probe.calls
    clip = spent["nn.clip"] + spent["nn.grad_clip"]
    children = (
        spent["nn.forward"] + spent["nn.backward"] + spent["nn.loss"] + spent["nn.optimizer"] + clip
    )
    values = {
        "hdc.encode_s": spent["hdc.encode"],
        "hdc.encode_rows_per_s": rate(rows, spent["hdc.encode"]),
        "core.fit_s": spent["core.fit"],
        "core.epoch_s": spent["core.train"] / epochs,
        "nn.forward_s": spent["nn.forward"],
        "nn.backward_s": spent["nn.backward"],
        "nn.loss_s": spent["nn.loss"],
        "nn.optimizer_s": spent["nn.optimizer"],
        "nn.clip_s": clip,
        "nn.batches": calls["nn.loss"],
        "kernels.linear.matmul_calls": calls["kernels.linear.matmul"],
        "kernels.linear.matmul_s": spent["kernels.linear.matmul"],
        "core.unattributed_s": spent["core.fit"] - children,
        "pipeline.unattributed_s": fit_seconds - spent["hdc.encode"] - spent["core.fit"],
    }
    return {key: metric(value, TRAIN_LAYER_UNITS[key]) for key, value in values.items()}


def probed_fit(make_pipeline, data, epochs: int):
    """One fit, then one test-split score, under the training-layer probes;
    returns ``(fit seconds, layer metrics, fitted pipeline)``."""
    probe = Probe()
    install_train_probes(probe)
    try:
        fitted = make_pipeline()
        seconds = timed_fit(fitted, data)
        fitted.score(data.test_features, data.test_labels)
    finally:
        probe.restore()
    silent = sorted(
        key for key, count in probe.calls.items() if not count and key not in OPTIONAL_PROBES
    )
    if silent:
        raise BenchmarkError(f"probes {silent} attached but were never called")
    layers = train_layer_metrics(probe, seconds, data.train_features.shape[0], epochs)
    layers["classifiers.predict_rows_per_s"] = metric(
        rate(data.test_features.shape[0], probe.seconds["classifiers.score"]), "rows/s"
    )
    return seconds, layers, fitted


# ------------------------------------------------------- batch timings
#: ``{batch rows: (blocks, calls per block)}`` for the packed scoring calls
#: (``predict_packed``, ``decision_scores_packed``; ~20 us per row and
#: ~0.14 ms per 64 rows), so one block takes ~20 ms and each of its
#: ``ROUNDS`` slices ~4 ms: a host hiccup of a millisecond moves a block mean
#: by a few percent, not by half.  Fixed counts keep the tail percentile (rank
#: n - 10 of the blocks) the same across commits.
SCORE_PLAN = {1: (100, 1000), BATCH_ROWS: (60, 100)}
#: The same for ``Encoder.encode_packed`` (~0.4 ms per row, ~17 ms per 64).
ENCODE_PLAN = {1: (40, 10), BATCH_ROWS: (20, 1)}


def time_batches(function, make_batch, rows: int, plan: dict) -> dict:
    """Time ``function`` on the batches ``make_batch(start, count)`` of each
    size in ``plan`` (see :data:`SCORE_PLAN`), taking the batches in turn,
    after one untimed warm-up call per size (a fresh classifier packs its
    class hypervectors then).

    Returns ``{size: (starts, per-call mean of each block in ms, answers in
    call order)}``; answer ``i`` is for the batch at
    ``starts[i % len(starts)]``.  A block spans milliseconds, not one
    microsecond-scale call, so a host hiccup nudges one block mean instead
    of making one sample an outlier.  As in ``timeit``, the garbage
    collector is off while a block runs: the answers kept for checking
    would otherwise make its pauses grow.
    """
    timings = {}
    collecting = gc.isenabled()
    try:
        for size, (blocks, calls) in plan.items():
            starts = list(range(0, rows - size + 1, max(1, size // 8)))
            batches = [make_batch(start, size) for start in starts]
            function(batches[0])
            samples, answers = [], []
            for block in range(blocks):
                queue = [batches[(block * calls + call) % len(batches)] for call in range(calls)]
                gc.disable()
                started = time.perf_counter()
                results = [function(batch) for batch in queue]
                samples.append((time.perf_counter() - started) * 1e3 / calls)
                if collecting:
                    gc.enable()
                answers.extend(results)
            timings[size] = (starts, samples, answers)
    finally:
        if collecting:
            gc.enable()
    return timings


def packed_rows(packed):
    """``make_batch`` for :func:`time_batches` over packed hypervectors."""
    from repro.kernels.packed import PackedHypervectors

    def make_batch(start, count):
        words = packed.words[start : start + count]
        return PackedHypervectors(words=words, dimension=packed.dimension)

    return make_batch


KERNEL_RATE_UNITS = {
    "kernels.encode_us_per_row.b1": "us",
    "classifiers.score_us_per_row.b1": "us",
    "kernels.encode_rows_per_s.b64": "rows/s",
    "classifiers.score_rows_per_s.b64": "rows/s",
}


def kernel_rate_metrics(pipeline, features) -> dict:
    """Encode and score rates of a fitted pipeline on 1-row and 64-row batches
    (``Encoder.encode_packed`` and ``decision_scores_packed``), from the
    median block."""
    encoder, classifier = pipeline.encoder, pipeline.classifier
    rows = features.shape[0]
    encode = time_batches(
        encoder.encode_packed,
        lambda start, count: features[start : start + count],
        rows,
        ENCODE_PLAN,
    )
    score = time_batches(
        classifier.decision_scores_packed,
        packed_rows(encoder.encode_packed(features)),
        rows,
        SCORE_PLAN,
    )

    def median_ms(timings, size):
        return statistics.median(timings[size][1])

    values = {
        "kernels.encode_us_per_row.b1": median_ms(encode, 1) * 1e3,
        "classifiers.score_us_per_row.b1": median_ms(score, 1) * 1e3,
        "kernels.encode_rows_per_s.b64": BATCH_ROWS * 1e3 / median_ms(encode, BATCH_ROWS),
        "classifiers.score_rows_per_s.b64": BATCH_ROWS * 1e3 / median_ms(score, BATCH_ROWS),
    }
    return {key: metric(value, KERNEL_RATE_UNITS[key]) for key, value in values.items()}


# ---------------------------------------------------------------- workload
def _setup_sample(seed: int) -> float:
    """``import repro`` + dataset generation in a fresh interpreter, seconds."""
    result = subprocess.run(
        [sys.executable, "-c", _SETUP_SCRIPT, str(seed)],
        env=program_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(result.stdout.strip().splitlines()[-1])


def _mismatches(timings: dict, expected) -> int:
    """Answers of :func:`time_batches` over ``predict_packed`` that differ
    from the dense ``predict`` labels ``expected``."""
    wrong = 0
    for size, (starts, _, answers) in timings.items():
        for index, labels in enumerate(answers):
            start = starts[index % len(starts)]
            wrong += int(not np.array_equal(labels, expected[start : start + size]))
    return wrong


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload; returns ``{"checks", "attempted", "metrics", ...}``."""
    from repro import BaselineHDC, get_dataset
    from repro.kernels.packed import unpack_bipolar

    generate_started = time.perf_counter()
    data = get_dataset("mnist", profile="small", seed=seed, prefer_real=False)
    generate_s = time.perf_counter() - generate_started

    def pipeline():
        return build_pipeline("mnist", seed, TRAIN_EPOCHS)

    if trace:
        return _run_traced(pipeline, data, seconds, generate_s)

    # In-process LeHDC inference, predict_packed (XOR + popcount), on
    # pre-encoded test rows; every answer must equal the dense predict.
    round_plan = {
        size: (blocks, calls // ROUNDS) for size, (blocks, calls) in SCORE_PLAN.items()
    }
    slices = {size: [] for size in SCORE_PLAN}
    setup_samples, times, digests = [], [], []
    mismatches = attempted = 0
    started = time.perf_counter()
    while len(times) < ROUNDS or time.perf_counter() - started < seconds:
        fitted = pipeline()
        times.append(timed_fit(fitted, data))
        digests.append(class_digest(fitted))
        if len(times) == 1:
            accuracy = fitted.score(data.test_features, data.test_labels)
            packed_test = fitted.encoder.encode_packed(data.test_features)
            expected = fitted.classifier.predict(unpack_bipolar(packed_test))
        if len(times) <= SETUP_SAMPLES:
            setup_samples.append(_setup_sample(seed))
        if len(times) <= ROUNDS:
            timings = time_batches(
                fitted.classifier.predict_packed,
                packed_rows(packed_test),
                len(expected),
                round_plan,
            )
            mismatches += _mismatches(timings, expected)
            for size, (_, block_ms, answers) in timings.items():
                slices[size].append(block_ms)
                attempted += len(answers)
    # Block j's mean call time is the mean of its slices, one per round.
    samples = {
        size: [statistics.fmean(block) for block in zip(*rounds)]
        for size, rounds in slices.items()
    }
    checks = {"fits_bit_identical": len(set(digests)) == 1}
    attempted += len(times)

    if seed == DEFAULT_SEED:
        default_digest = digests[0]
    else:
        reference = build_pipeline("mnist", DEFAULT_SEED, TRAIN_EPOCHS)
        timed_fit(
            reference,
            get_dataset("mnist", profile="small", seed=DEFAULT_SEED, prefer_real=False),
        )
        default_digest = class_digest(reference)
    checks["default_seed_digest"] = default_digest == DEFAULT_SEED_DIGEST

    encoded_train = fitted.encoder.encode(data.train_features)
    encoded_test = fitted.encoder.encode(data.test_features)
    baseline = BaselineHDC(seed=seed).fit(encoded_train, data.train_labels)
    baseline_accuracy = baseline.score(encoded_test, data.test_labels)
    lehdc_accuracy = fitted.classifier.score(encoded_test, data.test_labels)
    checks["lehdc_beats_baseline"] = lehdc_accuracy > baseline_accuracy
    checks["packed_predict_matches_dense"] = mismatches == 0

    single = latency_summary(samples[1])
    batch = latency_summary(samples[BATCH_ROWS])
    metrics = {
        "train_s": metric(statistics.median(times), "s"),
        "train_test_accuracy": metric(accuracy, "fraction"),
        "single_p50_ms": metric(single["p50_ms"], "ms"),
        "single_tail_ms": metric(single["tail_ms"], "ms"),
        "batch_rows_per_s": metric(BATCH_ROWS * 1e3 / batch["mean_ms"], "rows/s"),
        "batch_p50_ms": metric(batch["p50_ms"], "ms"),
        "batch_tail_ms": metric(batch["tail_ms"], "ms"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": metric(vm_hwm_mb([os.getpid()]), "MB"),
    }
    return {
        "checks": checks,
        "attempted": attempted,
        "failed_operations": mismatches,
        "metrics": metrics,
        "details": {
            "fits": len(times),
            "train_s_samples": times,
            "setup_s_samples": setup_samples,
            "digest": digests[0],
            "baseline_accuracy": baseline_accuracy,
            "lehdc_encoded_accuracy": lehdc_accuracy,
            "single": {**single, "calls_per_sample": SCORE_PLAN[1][1]},
            "batch": {**batch, "calls_per_sample": SCORE_PLAN[BATCH_ROWS][1]},
        },
    }


def _run_traced(pipeline, data, seconds, generate_s):
    """Untraced and traced fits in alternation (so drift hits both alike);
    the layer numbers are per-fit means over the traced ones only."""
    untraced, traced, runs, digests = [], [], [], set()
    # The first fit of a process runs cold (~1.5x slower); keep it out of
    # both medians.
    timed_fit(pipeline(), data)
    started = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - started < seconds:
        fitted = pipeline()
        untraced.append(timed_fit(fitted, data))
        fit_s, layers, probed = probed_fit(pipeline, data, TRAIN_EPOCHS)
        traced.append(fit_s)
        runs.append(layers)
        digests.update((class_digest(fitted), class_digest(probed)))
    layers = {
        key: metric(statistics.fmean(run[key]["value"] for run in runs), unit["unit"])
        for key, unit in runs[0].items()
    }
    layers["datasets.generate_s"] = metric(generate_s, "s")
    layers.update(kernel_rate_metrics(fitted, data.test_features))
    layers["trace.overhead_ratio"] = metric(
        statistics.median(traced) / statistics.median(untraced), "ratio"
    )
    # The probes only time calls: traced fits must stay bit-identical.
    checks = {"fits_bit_identical": len(digests) == 1}
    return {"checks": checks, "attempted": len(untraced) + len(traced), "metrics": layers}
