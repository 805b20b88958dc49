"""Fused encoder kernels: pre-sign accumulation for record and n-gram encoders.

Both accumulators produce the exact integer accumulation the dense encoders
define (Eq. 1), so signing the result reproduces ``Encoder.encode``
bit-for-bit; they only reorganise the computation:

* :class:`RecordAccumulator` fuses the position×level bind into a lookup
  table ``lut[i, l] = position[i] * level[l]`` built once, collapsing each
  batch into one fancy-indexed gather + a single C-level reduction (chunked
  over batch rows so the int8 scratch stays bounded, the chunks of a large
  batch spread over the kernel thread pool);
* :class:`NGramAccumulator` hoists the per-call codebook permutations out of
  the request path and evaluates all binding windows of a block at once with
  a rolled gather per n-gram offset, instead of a Python loop over windows.

The encoders in :mod:`repro.hdc.encoders` and the serving engine in
:mod:`repro.serve.engine` both build their accumulator through
:func:`build_accumulator`, so training, evaluation, and serving ride the same
fused kernel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.dispatch import (
    get_kernel,
    pool_width,
    register_kernel,
    shared_executor,
)

#: Largest bound-LUT the record path will materialise, in bytes
#: (``num_features * num_levels * D`` int8 entries).  Above this the factored
#: item memories are kept and the bind happens on the fly.
DEFAULT_LUT_BUDGET_BYTES = 128 * 1024 * 1024

#: Byte cap on the int8 gather scratch in flight at once (the record kernel
#: splits it over the pool's threads).  Each pool thread's allocator arena
#: keeps its last block after the call, out of the calling thread's reach,
#: so the cap bounds that retained memory too: at 32 MiB, width 2 raised a
#: LeHDC fit's peak RSS by ~25 MB.  4 MiB blocks (one core's L2 on a 2-CPU
#: Xeon) also encoded faster than 32 MiB ones at every width measured.
_SCRATCH_BYTES = 4 * 1024 * 1024

#: A block's partial sums are reduced in int16; each gathered element is ±1,
#: so at most this many may be summed per output element in one reduction.
_INT16_HEADROOM = 32767


@register_kernel("encode.lut_accumulate")
def _lut_accumulate(flat_lut: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Gather *rows* of *flat_lut* and reduce over the feature axis.

    ``rows`` is ``(batch, num_features)`` int64 indices into the flattened
    ``(num_features * num_levels, D)`` table.  Batch rows are chunked so each
    block's ``(rows, num_features, D)`` int8 gather stays within
    ``_SCRATCH_BYTES / width`` — small blocks keep the gather + reduction in
    cache, which measures ~3x faster than chunking the feature axis.  A batch
    of one block runs directly; more blocks are mapped over the
    :func:`~repro.kernels.dispatch.pool_width` threads of the shared pool, so
    the gathers in flight together still fit ``_SCRATCH_BYTES``.  Rows are
    independent, so every width yields the same integers.
    """
    batch, num_features = rows.shape
    dimension = flat_lut.shape[1]
    if num_features > _INT16_HEADROOM:  # pragma: no cover - absurdly wide inputs
        accumulated = np.zeros((batch, dimension), dtype=np.int32)
        for feature_index in range(num_features):
            accumulated += flat_lut[rows[:, feature_index]]
        return accumulated
    width = pool_width()
    block = max(1, _SCRATCH_BYTES // max(1, width * num_features * dimension))
    accumulated = np.empty((batch, dimension), dtype=np.int32)

    def accumulate_block(start: int) -> None:
        stop = min(start + block, batch)
        # Gather and reduce in one expression: the multi-MB gather scratch is
        # freed before the next block allocates, so the allocator hands back
        # the same (hot, already-faulted) buffer every iteration — keeping it
        # alive in a local measures ~2x slower end to end.
        accumulated[start:stop] = flat_lut[rows[start:stop]].sum(
            axis=1, dtype=np.int16
        )

    starts = range(0, batch, block)
    # Pool blocks write disjoint rows; draining the map re-raises the first
    # block's exception on the calling thread.
    run = map if width == 1 or len(starts) == 1 else shared_executor(width).map
    for _ in run(accumulate_block, starts):
        pass
    return accumulated


class RecordAccumulator:
    """Pre-sign accumulation for the record encoder with a fused bind LUT.

    ``lut[i, l] = position[i] * level[l]`` collapses the bind into a gather;
    a batch accumulates as one fancy-indexed gather over the flattened
    ``(N * L, D)`` table followed by one C-level reduction per block.  When
    the LUT itself would exceed *lut_budget_bytes* the factored form is kept
    (one gather + one multiply per feature), with the int32 casts hoisted out
    of the request path.
    """

    def __init__(
        self,
        position_vectors: np.ndarray,
        level_vectors: np.ndarray,
        lut_budget_bytes: int = DEFAULT_LUT_BUDGET_BYTES,
    ):
        num_features, dimension = position_vectors.shape
        num_levels = level_vectors.shape[0]
        lut_bytes = num_features * num_levels * dimension
        if lut_bytes <= lut_budget_bytes:
            lut = position_vectors[:, None, :].astype(np.int8) * level_vectors[None, :, :]
            self._flat_lut = lut.reshape(num_features * num_levels, dimension)
            self._row_offsets = np.arange(num_features, dtype=np.int64) * num_levels
            self._positions = None
            self._levels = None
            self.table_bytes = self._flat_lut.nbytes
        else:
            self._flat_lut = None
            self._row_offsets = None
            self._positions = position_vectors.astype(np.int32)
            self._levels = level_vectors.astype(np.int32)
            self.table_bytes = self._positions.nbytes + self._levels.nbytes
        self._dimension = dimension

    def __call__(self, level_indices: np.ndarray) -> np.ndarray:
        if self._flat_lut is not None:
            rows = level_indices + self._row_offsets
            return get_kernel("encode.lut_accumulate")(self._flat_lut, rows)
        batch, num_features = level_indices.shape
        accumulated = np.zeros((batch, self._dimension), dtype=np.int32)
        for feature_index in range(num_features):
            accumulated += (
                self._positions[feature_index]
                * self._levels[level_indices[:, feature_index]]
            )
        return accumulated


class NGramAccumulator:
    """Pre-sign accumulation for the n-gram encoder, fully vectorised.

    The ``ngram`` permuted copies of the level codebook are built once; each
    call then evaluates *all* binding windows of a block in one shot: for
    offset ``o`` the rolled gather ``codebook[o][levels[:, o : o + W]]``
    yields every window's ``o``-th factor at once (``W`` windows), the
    factors multiply element-wise (products of ±1 stay ±1, so int8 never
    overflows) and a single C-level reduction bundles the windows.  Window
    blocks bound the ``(batch, W, D)`` int8 scratch.
    """

    def __init__(self, level_vectors: np.ndarray, ngram: int):
        codebook = level_vectors.astype(np.int8)
        self.ngram = int(ngram)
        self._codebooks = [
            np.roll(codebook, offset, axis=1) for offset in range(self.ngram)
        ]
        self._dimension = codebook.shape[1]
        self.table_bytes = sum(book.nbytes for book in self._codebooks)

    def __call__(self, level_indices: np.ndarray) -> np.ndarray:
        batch, num_features = level_indices.shape
        num_windows = num_features - self.ngram + 1
        if num_windows < 1:
            raise ValueError(
                f"ngram={self.ngram} exceeds the number of features {num_features}"
            )
        accumulated = np.zeros((batch, self._dimension), dtype=np.int32)
        block = max(1, _SCRATCH_BYTES // max(1, batch * self._dimension))
        block = min(block, _INT16_HEADROOM)
        for start in range(0, num_windows, block):
            stop = min(start + block, num_windows)
            gram = self._codebooks[0][level_indices[:, start:stop]]
            for offset in range(1, self.ngram):
                gram *= self._codebooks[offset][
                    level_indices[:, start + offset : stop + offset]
                ]
            accumulated += gram.sum(axis=1, dtype=np.int16)
            # Release the window-block scratch before the next gather so the
            # allocator reuses the same hot buffer (see _lut_accumulate).
            del gram
        return accumulated


def build_accumulator(
    encoder, lut_budget_bytes: int = DEFAULT_LUT_BUDGET_BYTES
) -> Optional[object]:
    """Compile the fused accumulator for a fitted encoder, or ``None``.

    Dispatches on the encoder type; unknown encoder classes get ``None`` so
    callers can fall back to ``encoder.encode``.
    """
    from repro.hdc.encoders import NGramEncoder, RecordEncoder

    if isinstance(encoder, NGramEncoder):
        return NGramAccumulator(encoder.level_memory.vectors, encoder.ngram)
    if isinstance(encoder, RecordEncoder):
        return RecordAccumulator(
            encoder.position_memory.vectors,
            encoder.level_memory.vectors,
            lut_budget_bytes=lut_budget_bytes,
        )
    return None


__all__ = [
    "DEFAULT_LUT_BUDGET_BYTES",
    "NGramAccumulator",
    "RecordAccumulator",
    "build_accumulator",
]
