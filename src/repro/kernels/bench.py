"""Kernel-layer benchmark shared by the CLI and the benchmark harness.

Measures the four hot paths the ``repro.kernels`` refactor moved into one
place, each against the implementation the seed repository shipped:

* **encode** — the fused position×level LUT accumulation behind
  ``RecordEncoder.encode`` vs the seed's per-feature gather+multiply loop
  (re-implemented here verbatim as the reference);
* **encode-ngram** — the vectorised rolled-window kernel behind
  ``NGramEncoder.encode`` vs the seed's per-window Python loop;
* **predict** — batched packed XOR+popcount classification vs the dense
  int64 dot-product rule, from the same encoded queries (the packed side
  pays for its own bit-packing, so the speedup is end-to-end honest);
* **train-epoch** — one BNN training epoch under the float32 dtype policy
  vs the seed's forced-float64 behaviour.

Every section reports its wall time, a rate, and the speedup; the result
dictionary is JSON-ready.  The acceptance bar from the kernels issue —
packed batch predict >= 5x dense at D=4000, fused encode >= 2x the seed
encoder — is checked by ``benchmarks/bench_kernels.py``.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from repro.classifiers.baseline import BaselineHDC
from repro.core.bnn_model import BNNTrainer, SingleLayerBNN
from repro.core.configs import DEFAULT_CONFIG
from repro.datasets.synthetic import make_gaussian_classes
from repro.hdc.encoders import NGramEncoder, RecordEncoder
from repro.hdc.hypervector import dot_similarity, sign_with_ties
from repro.kernels.dispatch import (
    kernel_profile_snapshot,
    pool_width,
    profile_kernels,
    reset_kernel_profile,
    use_float_dtype,
)
from repro.kernels.packed import pack_bits


def _best_time(run, repeats: int = 3) -> float:
    """Best-of-*repeats* wall seconds for callable *run*."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


# ------------------------------------------------------- seed reference paths
def _seed_record_accumulate(encoder: RecordEncoder, levels: np.ndarray) -> np.ndarray:
    """The seed repository's ``RecordEncoder._accumulate``: one vectorised
    gather + multiply per feature, no fused LUT."""
    positions = encoder.position_memory.vectors.astype(np.int32)
    level_vectors = encoder.level_memory.vectors.astype(np.int32)
    batch, num_features = levels.shape
    accumulated = np.zeros((batch, encoder.dimension), dtype=np.int32)
    for feature_index in range(num_features):
        value_vectors = level_vectors[levels[:, feature_index]]
        accumulated += positions[feature_index] * value_vectors
    return accumulated


def _seed_ngram_accumulate(encoder: NGramEncoder, levels: np.ndarray) -> np.ndarray:
    """The seed repository's ``NGramEncoder._accumulate``: a Python loop over
    binding windows."""
    level_vectors = encoder.level_memory.vectors.astype(np.int32)
    batch, num_features = levels.shape
    permuted_codebooks = [
        np.roll(level_vectors, offset, axis=1) for offset in range(encoder.ngram)
    ]
    accumulated = np.zeros((batch, encoder.dimension), dtype=np.int32)
    for start in range(num_features - encoder.ngram + 1):
        gram = permuted_codebooks[0][levels[:, start]].copy()
        for offset in range(1, encoder.ngram):
            gram *= permuted_codebooks[offset][levels[:, start + offset]]
        accumulated += gram
    return accumulated


def _seed_encode(encoder: RecordEncoder, features: np.ndarray, batch_size: int = 256):
    """Seed ``encode``: per-feature accumulation + sign, batched like the seed."""
    levels = encoder._quantizer.transform(features)
    outputs = np.empty((features.shape[0], encoder.dimension), dtype=np.int8)
    for start in range(0, features.shape[0], batch_size):
        stop = min(start + batch_size, features.shape[0])
        raw = _seed_record_accumulate(encoder, levels[start:stop])
        outputs[start:stop] = sign_with_ties(
            raw, rng=encoder.rng, tie_break=encoder.tie_break
        )
    return outputs


# ------------------------------------------------------------------ benchmark
def run_kernel_benchmark(
    dimension: int = 4000,
    num_features: int = 64,
    num_levels: int = 32,
    num_classes: int = 10,
    num_samples: int = 512,
    ngram: int = 3,
    seed: int = 0,
    repeats: int = 3,
    quick: bool = False,
) -> Dict[str, object]:
    """Benchmark the kernel layer against the seed implementations.

    ``quick=True`` shrinks every size for CI smoke runs (a couple of seconds
    end to end); the defaults match the acceptance setting ``D=4000``.
    """
    if quick:
        dimension = min(dimension, 1024)
        num_samples = min(num_samples, 128)
        repeats = 1

    train_features, train_labels, test_features, _ = make_gaussian_classes(
        num_classes=num_classes,
        num_features=num_features,
        train_size=max(20 * num_classes, 100),
        test_size=num_samples,
        class_sep=2.5,
        seed=seed,
    )

    results: Dict[str, object] = {
        "config": {
            "dimension": dimension,
            "num_features": num_features,
            "num_levels": num_levels,
            "num_classes": num_classes,
            "num_samples": num_samples,
            "ngram": ngram,
            "seed": seed,
            "quick": quick,
            "pool_width": pool_width(),
        }
    }

    # ---- encode: fused LUT kernel vs seed per-feature loop -----------------
    encoder = RecordEncoder(
        dimension=dimension, num_levels=num_levels, tie_break="positive", seed=seed
    )
    encoder.fit(train_features)
    fused_out = encoder.encode(test_features)
    seed_out = _seed_encode(encoder, test_features)
    assert np.array_equal(fused_out, seed_out), "fused encode diverged from seed"
    fused_time = _best_time(lambda: encoder.encode(test_features), repeats)
    seed_time = _best_time(lambda: _seed_encode(encoder, test_features), repeats)
    results["encode"] = {
        "seed_seconds": seed_time,
        "fused_seconds": fused_time,
        "fused_samples_per_s": num_samples / fused_time,
        "speedup": seed_time / fused_time,
    }

    # ---- encode-ngram: rolled-window kernel vs seed window loop ------------
    ngram_encoder = NGramEncoder(
        dimension=dimension,
        num_levels=num_levels,
        ngram=ngram,
        tie_break="positive",
        seed=seed,
    )
    ngram_encoder.fit(train_features)
    ngram_levels = ngram_encoder._quantizer.transform(test_features)
    assert np.array_equal(
        ngram_encoder._accumulate(ngram_levels),
        _seed_ngram_accumulate(ngram_encoder, ngram_levels),
    ), "vectorised n-gram accumulation diverged from seed"
    ngram_fused = _best_time(lambda: ngram_encoder._accumulate(ngram_levels), repeats)
    ngram_seed = _best_time(
        lambda: _seed_ngram_accumulate(ngram_encoder, ngram_levels), repeats
    )
    results["encode_ngram"] = {
        "seed_seconds": ngram_seed,
        "fused_seconds": ngram_fused,
        "speedup": ngram_seed / ngram_fused,
    }

    # ---- predict: packed XOR+popcount vs dense int64 dot -------------------
    classifier = BaselineHDC(seed=seed)
    classifier.fit(encoder.encode(train_features), train_labels)
    queries = fused_out  # the encoded test split
    packed_classes = classifier.packed_class_hypervectors()

    def dense_predict():
        return np.argmax(dot_similarity(queries, classifier.class_hypervectors_), axis=1)

    def packed_predict():
        packed_queries = pack_bits(queries > 0, dimension)
        scores = packed_queries.dot_scores(packed_classes)
        return np.argmax(scores, axis=1)

    assert np.array_equal(dense_predict(), packed_predict())
    dense_time = _best_time(dense_predict, repeats)
    packed_time = _best_time(packed_predict, repeats)
    results["predict"] = {
        "dense_seconds": dense_time,
        "packed_seconds": packed_time,
        "packed_samples_per_s": num_samples / packed_time,
        "speedup": dense_time / packed_time,
    }

    # ---- train-epoch: float32 policy vs forced float64 ---------------------
    train_encoded = encoder.encode(train_features)
    config = DEFAULT_CONFIG.with_overrides(
        epochs=1, batch_size=64, validation_fraction=0.0
    )

    def one_epoch(dtype):
        with use_float_dtype(dtype):
            model = SingleLayerBNN(
                dimension=dimension,
                num_classes=num_classes,
                dropout_rate=config.dropout_rate,
                seed=seed,
            )
            trainer = BNNTrainer(model, config, seed=seed)
            trainer.train(train_encoded, train_labels)

    time_f32 = _best_time(lambda: one_epoch("float32"), repeats)
    time_f64 = _best_time(lambda: one_epoch("float64"), repeats)
    results["train_epoch"] = {
        "float64_seconds": time_f64,
        "float32_seconds": time_f32,
        "speedup": time_f64 / time_f32,
    }

    # ---- per-kernel profile: where the kernels-side time actually went -----
    # One profiled re-run of each measured path (profiling hooks in at
    # get_kernel resolution, so the timed sections above stay unwrapped).
    reset_kernel_profile()
    with profile_kernels():
        encoder.encode(test_features)
        ngram_encoder._accumulate(ngram_levels)
        packed_predict()
        one_epoch("float32")
    results["kernel_profile"] = kernel_profile_snapshot()

    return results


def format_report(results: Dict[str, object]) -> str:
    """Human-readable summary of :func:`run_kernel_benchmark` output."""
    config = results["config"]
    lines = [
        f"kernel benchmark  D={config['dimension']}  "
        f"N={config['num_features']}  samples={config['num_samples']}",
        "",
        f"{'section':<14} {'seed/dense (s)':>15} {'kernels (s)':>12} {'speedup':>8}",
    ]
    rows = (
        ("encode", "seed_seconds", "fused_seconds"),
        ("encode_ngram", "seed_seconds", "fused_seconds"),
        ("predict", "dense_seconds", "packed_seconds"),
        ("train_epoch", "float64_seconds", "float32_seconds"),
    )
    for section, before_key, after_key in rows:
        entry = results[section]
        lines.append(
            f"{section:<14} {entry[before_key]:>15.5f} "
            f"{entry[after_key]:>12.5f} {entry['speedup']:>7.2f}x"
        )
    profile = results.get("kernel_profile")
    if profile:
        lines.append("")
        lines.append(f"{'kernel':<36} {'calls':>6} {'total (ms)':>11} {'mean (ms)':>10}")
        for key, entry in profile.items():
            lines.append(
                f"{key:<36} {entry['calls']:>6} "
                f"{entry['total_ms']:>11.3f} {entry['mean_ms']:>10.4f}"
            )
    return "\n".join(lines)


__all__ = ["run_kernel_benchmark", "format_report"]
