"""Shared hot-path compute kernels.

``repro.kernels`` is the single home for the computations every layer of the
system competes on: bit-packed XOR+popcount scoring (:mod:`.packed`), fused
encoder accumulation (:mod:`.encode`), packed training — centroid bundling,
epoch scoring and ordered accumulator updates (:mod:`.train`) — and the
float matmul/dtype policy behind the NN substrate (:mod:`.linear`).
Each kernel has one implementation, published in a named registry
(:mod:`.dispatch`) that also times kernels when profiling is on and owns the
thread pool the fused encode spreads large batches over.

Layering: :mod:`repro.hdc`, :mod:`repro.classifiers`, :mod:`repro.nn`,
:mod:`repro.core`, :mod:`repro.eval` and :mod:`repro.serve` all call *down*
into this package; nothing here imports back up (the only exception is the
lazy encoder-type dispatch inside :func:`~repro.kernels.encode.build_accumulator`).
See ``docs/architecture.md`` for the full data-flow.
"""

from repro.kernels.dispatch import (
    enable_kernel_profiling,
    float_dtype,
    get_kernel,
    kernel_profile_snapshot,
    kernel_profiling_enabled,
    list_kernels,
    profile_kernels,
    register_kernel,
    reset_kernel_profile,
    set_float_dtype,
    use_float_dtype,
)
from repro.kernels.train import (
    EnsembleScoreboard,
    PackedTrainingSet,
    apply_class_updates,
    bundle_packed,
    flip_fraction_packed,
    score_epoch,
)
from repro.kernels.encode import (
    DEFAULT_LUT_BUDGET_BYTES,
    NGramAccumulator,
    RecordAccumulator,
    build_accumulator,
)
from repro.kernels.linear import as_float, matmul, sign_bipolar
from repro.kernels.packed import (
    PackedHypervectors,
    bit_differences_words,
    flip_score_delta,
    pack_bipolar,
    pack_bits,
    pack_flip_mask,
    packed_dot_scores,
    popcount,
    sign_fuse_bits,
    try_pack_bipolar,
    unpack_bipolar,
)

__all__ = [
    "DEFAULT_LUT_BUDGET_BYTES",
    "EnsembleScoreboard",
    "NGramAccumulator",
    "PackedHypervectors",
    "PackedTrainingSet",
    "RecordAccumulator",
    "apply_class_updates",
    "as_float",
    "bit_differences_words",
    "build_accumulator",
    "bundle_packed",
    "enable_kernel_profiling",
    "flip_fraction_packed",
    "flip_score_delta",
    "float_dtype",
    "get_kernel",
    "kernel_profile_snapshot",
    "kernel_profiling_enabled",
    "list_kernels",
    "matmul",
    "profile_kernels",
    "reset_kernel_profile",
    "pack_bipolar",
    "pack_bits",
    "pack_flip_mask",
    "packed_dot_scores",
    "popcount",
    "register_kernel",
    "score_epoch",
    "set_float_dtype",
    "sign_bipolar",
    "sign_fuse_bits",
    "try_pack_bipolar",
    "unpack_bipolar",
    "use_float_dtype",
]
