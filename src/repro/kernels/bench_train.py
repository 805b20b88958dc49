"""Packed-training benchmark shared by the CLI and the benchmark harness.

Measures the packed training path of the classifier family against the
sequential per-sample loop the seed repository shipped (still available as
``packed_epochs=False``, unchanged):

* **bundle** — baseline centroid bundling over packed words
  (:func:`repro.kernels.train.bundle_packed`, including the one-time pack)
  vs the dense ``np.add.at`` rule;
* **retraining / adapthd / enhanced** — full ``fit()`` wall-clock of each
  retraining strategy on the packed epoch kernels (blocked XOR+popcount
  scoring + ordered scatter-add) vs the seed loop, end to end: the packed
  side pays for building its own :class:`~repro.kernels.train.PackedTrainingSet`;
* **multimodel** — the SearcHD-style ensemble's full ``fit()`` on the
  incremental packed-scoring trainer
  (:class:`~repro.kernels.train.EnsembleScoreboard`: score-once per pass,
  sparse flipped-mask column updates) vs the seed per-sample dense
  model-bank matmul, verified bit-identical — models, history *and* the RNG
  stream, for both ``push_away`` settings — before timing.

Every comparison also *verifies* bit-identity — equal class hypervectors,
equal non-binary accumulators / model banks, and an identical
:class:`~repro.classifiers.retraining.RetrainingHistory` — before timing is
reported; a benchmark that drifted numerically raises instead of reporting a
speedup.  The result dictionary is JSON-ready.  The acceptance bars —
retraining ``fit()`` >= 5x and ensemble ``fit()`` >= 5x the seed loops at
D=4000 (the ensemble at the paper's 64 models per class) — are asserted by
``benchmarks/bench_training.py``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

import numpy as np

from repro.classifiers.adapthd import AdaptHDC
from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.enhanced import EnhancedRetrainingHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.retraining import RetrainingHDC
from repro.datasets.synthetic import make_gaussian_classes
from repro.hdc.encoders import RecordEncoder
from repro.kernels.dispatch import pool_width
from repro.kernels.train import PackedTrainingSet


def _best_time(run: Callable, repeats: int) -> float:
    """Best-of-*repeats* wall seconds for callable *run* (returns last result)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def _assert_identical(name: str, seed_model, packed_model) -> None:
    """The packed path must reproduce the sequential path bit for bit."""
    if not np.array_equal(
        seed_model.class_hypervectors_, packed_model.class_hypervectors_
    ):
        raise AssertionError(f"{name}: packed class hypervectors diverged from seed")
    seed_history = seed_model.history_
    packed_history = packed_model.history_
    if (
        seed_history.train_accuracy != packed_history.train_accuracy
        or seed_history.update_fraction != packed_history.update_fraction
        or seed_history.test_accuracy != packed_history.test_accuracy
    ):
        raise AssertionError(f"{name}: packed retraining history diverged from seed")
    if not np.array_equal(
        seed_model.nonbinary_class_hypervectors_,
        packed_model.nonbinary_class_hypervectors_,
    ):
        raise AssertionError(f"{name}: packed accumulators diverged from seed")


def _assert_identical_ensemble(name: str, seed_model, packed_model) -> None:
    """The packed ensemble trainer must reproduce the seed loop bit for bit.

    Beyond the model bank and history, the RNG streams must coincide: the
    packed path replays every ``rng`` call of the seed loop (permutations,
    bootstrap choices, flip choices, ``sgn(0)`` ties) in the same order with
    the same arguments, so the generators end in the same state.
    """
    if not np.array_equal(
        seed_model.model_hypervectors_, packed_model.model_hypervectors_
    ):
        raise AssertionError(f"{name}: packed model bank diverged from seed")
    if not np.array_equal(
        seed_model.class_hypervectors_, packed_model.class_hypervectors_
    ):
        raise AssertionError(f"{name}: packed majority vectors diverged from seed")
    seed_history = seed_model.history_
    packed_history = packed_model.history_
    if (
        seed_history.train_accuracy != packed_history.train_accuracy
        or seed_history.update_fraction != packed_history.update_fraction
    ):
        raise AssertionError(f"{name}: packed training history diverged from seed")
    if seed_model.rng.bit_generator.state != packed_model.rng.bit_generator.state:
        raise AssertionError(f"{name}: packed RNG stream diverged from seed")


def run_training_benchmark(
    dimension: int = 4000,
    num_features: int = 64,
    num_levels: int = 32,
    num_classes: int = 10,
    num_samples: int = 2000,
    iterations: int = 20,
    class_sep: float = 0.5,
    seed: int = 0,
    repeats: int = 1,
    quick: bool = False,
    multimodel_models_per_class: int = 64,
    multimodel_samples: int = 400,
    multimodel_iterations: int = 3,
) -> Dict[str, object]:
    """Benchmark packed training against the seed sequential loop.

    ``quick=True`` shrinks every size for CI smoke runs (a few seconds end
    to end); the defaults match the acceptance setting ``D=4000``, with
    ``class_sep`` low enough that a few percent of samples stay
    misclassified throughout — so the timed epochs exercise the scatter-add,
    not just the scorer.  All retraining strategies run ``shuffle=False`` /
    ``tie_break='positive'`` / ``epsilon=0`` so every pair completes the same
    full iteration budget and the bit-identity check covers the whole
    trajectory.

    The multimodel case runs at the paper's 64 models per class on a slice
    of the encoded set with 15% label noise mixed in — noisy labels keep a
    steady share of samples misclassified, so the timed passes exercise the
    stochastic flip updates and the incremental score-column maintenance,
    not just the pass-start scorer.
    """
    if quick:
        dimension = min(dimension, 1024)
        num_samples = min(num_samples, 256)
        iterations = min(iterations, 5)
        repeats = 1
        multimodel_models_per_class = min(multimodel_models_per_class, 8)
        multimodel_samples = min(multimodel_samples, 128)
        multimodel_iterations = min(multimodel_iterations, 2)
    # Clamp before the config block below records it, so the committed JSON
    # always states the sample count the ensemble case actually ran on.
    multimodel_samples = min(multimodel_samples, num_samples)

    train_features, train_labels, _, _ = make_gaussian_classes(
        num_classes=num_classes,
        num_features=num_features,
        train_size=num_samples,
        test_size=num_classes,
        class_sep=class_sep,
        seed=seed,
    )
    encoder = RecordEncoder(
        dimension=dimension, num_levels=num_levels, tie_break="positive", seed=seed
    )
    encoder.fit(train_features)
    encoded = encoder.encode(train_features)

    results: Dict[str, object] = {
        "config": {
            "dimension": dimension,
            "num_features": num_features,
            "num_levels": num_levels,
            "num_classes": num_classes,
            "num_samples": num_samples,
            "iterations": iterations,
            "class_sep": class_sep,
            "seed": seed,
            "repeats": repeats,
            "quick": quick,
            "multimodel_models_per_class": multimodel_models_per_class,
            "multimodel_samples": multimodel_samples,
            "multimodel_iterations": multimodel_iterations,
            "pool_width": pool_width(),
        }
    }

    # ---- bundle: packed per-class bit counts vs dense np.add.at ------------
    def dense_bundle():
        return BaselineHDC(tie_break="positive", seed=seed).fit(encoded, train_labels)

    def packed_bundle():
        train_set = PackedTrainingSet.from_dense(encoded)
        return BaselineHDC(tie_break="positive", seed=seed).fit(
            encoded, train_labels, packed_train=train_set
        )

    if not np.array_equal(
        dense_bundle().accumulators_, packed_bundle().accumulators_
    ):
        raise AssertionError("bundle_packed accumulators diverged from np.add.at")
    dense_time = _best_time(dense_bundle, repeats)
    packed_time = _best_time(packed_bundle, repeats)
    results["bundle"] = {
        "dense_seconds": dense_time,
        "packed_seconds": packed_time,
        "speedup": dense_time / packed_time,
    }

    # ---- retraining family: packed epochs vs the seed sequential loop ------
    strategy_factories = {
        "retraining": lambda packed: RetrainingHDC(
            iterations=iterations,
            epsilon=0.0,
            shuffle=False,
            packed_epochs=packed,
            tie_break="positive",
            seed=seed,
        ),
        "adapthd": lambda packed: AdaptHDC(
            iterations=iterations,
            mode="data",
            epsilon=0.0,
            shuffle=False,
            packed_epochs=packed,
            tie_break="positive",
            seed=seed,
        ),
        "enhanced": lambda packed: EnhancedRetrainingHDC(
            iterations=iterations,
            epsilon=0.0,
            shuffle=False,
            packed_epochs=packed,
            tie_break="positive",
            seed=seed,
        ),
    }
    for name, factory in strategy_factories.items():
        seed_model = factory(False)
        packed_model = factory(True)
        seed_time = _best_time(lambda: seed_model.fit(encoded, train_labels), repeats)
        packed_time = _best_time(
            lambda: packed_model.fit(encoded, train_labels), repeats
        )
        _assert_identical(name, seed_model, packed_model)
        history = packed_model.history_
        results[name] = {
            "seed_seconds": seed_time,
            "packed_seconds": packed_time,
            "speedup": seed_time / packed_time,
            "iterations": history.iterations,
            "seed_iteration_seconds": float(
                np.mean(seed_model.history_.iteration_seconds)
            ),
            "packed_iteration_seconds": float(np.mean(history.iteration_seconds)),
            "samples_per_second": num_samples * history.iterations / packed_time,
            "final_train_accuracy": history.train_accuracy[-1],
            "bit_identical": True,
        }

    # ---- multimodel: incremental packed scoring vs the seed dense loop -----
    ensemble_encoded = encoded[:multimodel_samples]
    noise_rng = np.random.default_rng(seed + 1)
    ensemble_labels = np.array(train_labels[:multimodel_samples])
    noisy = noise_rng.random(multimodel_samples) < 0.15
    ensemble_labels[noisy] = (
        ensemble_labels[noisy]
        + noise_rng.integers(1, num_classes, size=int(np.count_nonzero(noisy)))
    ) % num_classes

    def ensemble_factory(packed: bool, push_away: bool = False) -> MultiModelHDC:
        return MultiModelHDC(
            models_per_class=multimodel_models_per_class,
            iterations=multimodel_iterations,
            push_away=push_away,
            packed_epochs=packed,
            seed=seed,
        )

    seed_model = ensemble_factory(False)
    packed_model = ensemble_factory(True)
    seed_time = _best_time(
        lambda: seed_model.fit(ensemble_encoded, ensemble_labels), repeats
    )
    packed_time = _best_time(
        lambda: packed_model.fit(ensemble_encoded, ensemble_labels), repeats
    )
    _assert_identical_ensemble("multimodel", seed_model, packed_model)
    # The push-away update rule flips a second sub-model per misclassification
    # (extra RNG draws, extra score-column patches); verify it separately.
    seed_push = ensemble_factory(False, push_away=True)
    packed_push = ensemble_factory(True, push_away=True)
    seed_push.fit(ensemble_encoded, ensemble_labels)
    packed_push.fit(ensemble_encoded, ensemble_labels)
    _assert_identical_ensemble("multimodel[push_away]", seed_push, packed_push)
    history = packed_model.history_
    results["multimodel"] = {
        "seed_seconds": seed_time,
        "packed_seconds": packed_time,
        "speedup": seed_time / packed_time,
        "iterations": history.iterations,
        "seed_iteration_seconds": float(
            np.mean(seed_model.history_.iteration_seconds)
        ),
        "packed_iteration_seconds": float(np.mean(history.iteration_seconds)),
        "samples_per_second": multimodel_samples * history.iterations / packed_time,
        "final_train_accuracy": history.train_accuracy[-1],
        "bit_identical": True,
        "rng_stream_identical": True,
        "push_away_bit_identical": True,
        "models_per_class": multimodel_models_per_class,
        "num_samples": multimodel_samples,
    }

    return results


def format_training_report(results: Dict[str, object]) -> str:
    """Human-readable summary of :func:`run_training_benchmark` output."""
    config = results["config"]
    lines = [
        f"packed training benchmark  D={config['dimension']}  "
        f"n={config['num_samples']}  K={config['num_classes']}  "
        f"iters={config['iterations']}",
        "",
        f"{'section':<12} {'seed (s)':>10} {'packed (s)':>11} {'speedup':>8}  "
        f"{'s/iter packed':>13}",
    ]
    bundle = results["bundle"]
    lines.append(
        f"{'bundle':<12} {bundle['dense_seconds']:>10.4f} "
        f"{bundle['packed_seconds']:>11.4f} {bundle['speedup']:>7.2f}x {'—':>13}"
    )
    for section in ("retraining", "adapthd", "enhanced", "multimodel"):
        entry = results[section]
        lines.append(
            f"{section:<12} {entry['seed_seconds']:>10.4f} "
            f"{entry['packed_seconds']:>11.4f} {entry['speedup']:>7.2f}x "
            f"{entry['packed_iteration_seconds']:>12.5f}s"
        )
    multimodel = results["multimodel"]
    lines.append("")
    lines.append(
        f"multimodel: {multimodel['models_per_class']} models/class on "
        f"{multimodel['num_samples']} samples, both push_away settings "
        "verified (models + RNG stream)"
    )
    lines.append(
        "histories bit-identical to the sequential loops (verified before timing)"
    )
    return "\n".join(lines)


__all__ = ["format_training_report", "run_training_benchmark"]
