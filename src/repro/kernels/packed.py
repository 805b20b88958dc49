"""Bit-packed hypervector kernels: pack/unpack, XOR+popcount, sign fusion.

This is the single home of every bit-level trick the paper's zero-overhead
inference claim rests on:

* :func:`pack_bits` / :func:`pack_bipolar` / :func:`unpack_bipolar` — the
  uint64-word representation (``+1 -> 1``, ``-1 -> 0``);
* :func:`bit_differences_words` — pairwise differing-bit counts via one
  broadcasted XOR + popcount per row block (the Eq. 4 Hamming kernel);
* :func:`packed_dot_scores` — the integer dot similarity ``D - 2 * diff``
  recovered from bit differences without unpacking;
* :func:`sign_fuse_bits` — majority/sign fusion: derive the packed bit
  directly from the encoder's pre-sign integer accumulation, replicating
  :func:`repro.hdc.hypervector.sign_with_ties` bit-for-bit (same RNG draws)
  so the dense int8 hypervector never needs to exist.
"""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np

from repro.kernels.dispatch import get_kernel, register_kernel, run_sharded

BIPOLAR_DTYPE = np.int8

_WORD_BITS = 64

# Popcount lookup table for 16-bit chunks; uint64 words are split into four.
# Only used when NumPy lacks the native ``bitwise_count`` ufunc (added in 2.0).
_POPCOUNT_16 = np.array(
    [bin(value).count("1") for value in range(1 << 16)], dtype=np.uint8
)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Upper bound (bytes) on the XOR scratch buffer allocated per block of the
#: pairwise distance computation; rows of the query side are chunked under it.
_DISTANCE_BLOCK_BYTES = 1 << 25  # 32 MiB


# ------------------------------------------------------------------- packing
def pack_bits(bits: np.ndarray, dimension: Optional[int] = None) -> "PackedHypervectors":
    """Pack a ``(rows, D)`` 0/1 bit matrix into uint64 words.

    This is the raw packing kernel behind :func:`pack_bipolar` (bit 1 means
    ``+1``); callers that already hold bits — e.g. the serving engine, which
    derives them straight from the encoder's pre-sign accumulation — use it to
    skip the dense int8 intermediate.  Entries are not validated; anything
    non-zero counts as a set bit.
    """
    bits = np.atleast_2d(np.asarray(bits))
    if dimension is None:
        dimension = bits.shape[1]
    if bits.dtype != np.bool_:
        bits = bits != 0  # uint8 astype would truncate e.g. 256 or 0.5 to 0
    padded_width = ((dimension + _WORD_BITS - 1) // _WORD_BITS) * _WORD_BITS
    if padded_width != dimension:
        padding = np.zeros((bits.shape[0], padded_width - dimension), dtype=bits.dtype)
        bits = np.concatenate([bits, padding], axis=1)
    if sys.byteorder == "little":
        # np.packbits with little bit order followed by a native uint64 view
        # is the C-speed path; byte k of a word holds bits 8k..8k+7, which on
        # a little-endian host is exactly the arithmetic packing below.
        packed_bytes = np.packbits(bits, axis=1, bitorder="little")
        words = np.ascontiguousarray(packed_bytes).view(np.uint64)
    else:  # pragma: no cover - big-endian hosts
        reshaped = bits.reshape(bits.shape[0], -1, _WORD_BITS)
        weights = (1 << np.arange(_WORD_BITS, dtype=np.uint64)).astype(np.uint64)
        words = (reshaped.astype(np.uint64) * weights).sum(axis=2, dtype=np.uint64)
    return PackedHypervectors(words=words, dimension=dimension)


def pack_bipolar(hypervectors: np.ndarray) -> "PackedHypervectors":
    """Pack a ``(rows, D)`` bipolar int8 matrix into uint64 words."""
    packed = try_pack_bipolar(hypervectors)
    if packed is None:
        raise ValueError("pack_bipolar expects entries in {+1, -1}")
    return packed


def try_pack_bipolar(hypervectors: np.ndarray) -> Optional["PackedHypervectors"]:
    """:func:`pack_bipolar`, but ``None`` instead of raising on non-bipolar input.

    The bipolarity probe is a cheap elementwise compare (one read pass, no
    ``np.isin`` sort machinery), so callers choosing between a packed and a
    dense code path — the packed training path, validation-split scoring —
    can test arbitrary input at streaming cost.
    """
    hypervectors = np.atleast_2d(np.asarray(hypervectors))
    if hypervectors.ndim != 2 or hypervectors.size == 0:
        return None
    if not bool(np.all((hypervectors == 1) | (hypervectors == -1))):
        return None
    return pack_bits(hypervectors > 0, hypervectors.shape[1])


def unpack_bipolar(packed: "PackedHypervectors") -> np.ndarray:
    """Reverse :func:`pack_bipolar`, returning the dense ``{+1, -1}`` matrix."""
    words = packed.words
    rows, num_words = words.shape
    shifts = np.arange(_WORD_BITS, dtype=np.uint64)
    bits = ((words[:, :, None] >> shifts) & np.uint64(1)).astype(np.int8)
    dense = bits.reshape(rows, num_words * _WORD_BITS)[:, : packed.dimension]
    return (2 * dense - 1).astype(BIPOLAR_DTYPE)


# ------------------------------------------------------------------ popcount
def _popcount_table(words: np.ndarray) -> np.ndarray:
    """Population count of each uint64 element via four 16-bit table lookups."""
    counts = np.zeros(words.shape, dtype=np.uint32)
    remaining = words.copy()
    for _ in range(4):
        counts += _POPCOUNT_16[(remaining & np.uint64(0xFFFF)).astype(np.uint32)]
        remaining >>= np.uint64(16)
    return counts


def popcount(words: np.ndarray) -> np.ndarray:
    """Population count of each uint64 element.

    Uses the native ``np.bitwise_count`` ufunc when available (NumPy >= 2.0),
    falling back to 16-bit table lookups otherwise.  Both paths return the
    exact same integer counts.
    """
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words)
    return _popcount_table(words)


# ----------------------------------------------------------- bit differences
@register_kernel("packed.bit_differences")
def _bit_differences_numpy(a_words: np.ndarray, b_words: np.ndarray) -> np.ndarray:
    """Pairwise differing-bit counts between two uint64 word matrices.

    The whole pairwise XOR is evaluated as one broadcasted ufunc call per
    row block (blocks bound the scratch buffer to ``_DISTANCE_BLOCK_BYTES``)
    rather than a Python-level loop over rows, which is what makes the
    packed path faster than the dense dot product instead of merely smaller.
    """
    num_words = a_words.shape[1]
    counts = np.empty((a_words.shape[0], b_words.shape[0]), dtype=np.int64)
    bytes_per_row = max(1, b_words.shape[0] * num_words * 8)
    block_rows = max(1, _DISTANCE_BLOCK_BYTES // bytes_per_row)
    for start in range(0, a_words.shape[0], block_rows):
        stop = min(start + block_rows, a_words.shape[0])
        xor = a_words[start:stop, None, :] ^ b_words[None, :, :]
        counts[start:stop] = popcount(xor).sum(axis=2, dtype=np.int64)
    return counts


@register_kernel("packed.bit_differences", backend="threaded")
def _bit_differences_threaded(a_words: np.ndarray, b_words: np.ndarray) -> np.ndarray:
    """Shard the query rows of the XOR+popcount across the shared pool."""
    return run_sharded(
        lambda start, stop: _bit_differences_numpy(a_words[start:stop], b_words),
        a_words.shape[0],
    )


def bit_differences_words(a_words: np.ndarray, b_words: np.ndarray) -> np.ndarray:
    """Dispatchable pairwise differing-bit counts over packed word matrices.

    ``int64`` counts are returned so callers can derive the dot similarity
    ``D - 2 * diff`` without overflow or rounding.
    """
    if a_words.shape[1] != b_words.shape[1]:
        raise ValueError(
            f"word-count mismatch: {a_words.shape[1]} vs {b_words.shape[1]}"
        )
    return get_kernel("packed.bit_differences")(a_words, b_words)


def packed_dot_scores(
    queries: "PackedHypervectors", references: "PackedHypervectors"
) -> np.ndarray:
    """Integer dot similarity ``En(x)^T c_k`` computed entirely over packed words.

    Equals :func:`repro.hdc.hypervector.dot_similarity` on the corresponding
    dense bipolar matrices exactly: ``dot = D - 2 * differing_bits``.
    """
    differences = queries.bit_differences(references)
    return (queries.dimension - 2 * differences).astype(np.int64)


# ------------------------------------------------------------ flipped masks
def pack_flip_mask(positions: np.ndarray, dimension: int) -> np.ndarray:
    """Pack a set of bit *positions* into a one-row uint64 flip mask.

    The mask's set bits mark the positions a stochastic update flips in one
    packed model row (``words ^= mask`` applies the flip), which is also the
    sparse operand :func:`flip_score_delta` popcounts against.  Positions must
    be unique and lie in ``[0, dimension)`` — out-of-range bits would land in
    the padding of the last word and corrupt every later XOR+popcount.
    """
    positions = np.asarray(positions)
    if positions.size and (
        int(positions.min()) < 0 or int(positions.max()) >= dimension
    ):
        raise ValueError(f"positions must lie in [0, {dimension})")
    num_words = (dimension + _WORD_BITS - 1) // _WORD_BITS
    mask = np.zeros(num_words, dtype=np.uint64)
    word_indices = positions // _WORD_BITS
    bits = np.left_shift(
        np.uint64(1), (positions % _WORD_BITS).astype(np.uint64)
    )
    np.bitwise_or.at(mask, word_indices, bits)
    return mask


def flip_score_delta(
    sample_words: np.ndarray, model_words: np.ndarray, flip_mask: np.ndarray
) -> np.ndarray:
    """Per-sample dot-score change from flipping masked bits of one model row.

    ``model_words`` is the packed model row *after* the flip (``old ^ mask``)
    and ``flip_mask`` marks the flipped positions.  Returns the exact int64
    delta ``new_dot - old_dot`` for every row of ``sample_words``: each
    flipped position moves the dot product by ±2, agreeing with the new bit
    counts ``+2`` and disagreeing ``-2``, so with ``d`` masked disagreements
    ``delta = 2 * flipped - 4 * d``.

    The computation is sparse in the mask: only the mask's non-zero words are
    XOR'd and popcounted, so maintaining a score column under a stochastic
    bit-flip update costs ``O(samples * touched_words)`` instead of a rescan
    of the whole model bank.
    """
    if sample_words.shape[1] != flip_mask.shape[0] or (
        model_words.shape[0] != flip_mask.shape[0]
    ):
        raise ValueError(
            f"word-count mismatch: samples {sample_words.shape[1]}, "
            f"model {model_words.shape[0]}, mask {flip_mask.shape[0]}"
        )
    active = np.flatnonzero(flip_mask)
    if active.size == 0:
        return np.zeros(sample_words.shape[0], dtype=np.int64)
    mask = flip_mask[active]
    flipped = int(popcount(mask).sum())
    disagreements = popcount(
        (sample_words[:, active] ^ model_words[active]) & mask
    ).sum(axis=1, dtype=np.int64)
    return 2 * flipped - 4 * disagreements


# --------------------------------------------------------------- sign fusion
def sign_fuse_bits(
    accumulated: np.ndarray,
    tie_break: str = "positive",
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Fuse the encoder's ``sgn`` into packed-bit derivation.

    The sign of the pre-sign integer accumulation *is* the packed bit, so the
    int8 hypervector matrix never needs to exist.  Tie bits replicate
    :func:`repro.hdc.hypervector.sign_with_ties` (same RNG draws, same
    mapping), keeping ``pack_bits(sign_fuse_bits(raw))`` bit-identical to
    ``pack_bipolar(sign_with_ties(raw))``.
    """
    if tie_break not in ("random", "positive"):
        raise ValueError(f"tie_break must be 'random' or 'positive', got {tie_break!r}")
    bits = accumulated > 0
    zeros = accumulated == 0
    if np.any(zeros):
        if tie_break == "positive":
            bits |= zeros
        else:
            if rng is None:
                raise ValueError("tie_break='random' requires an rng")
            draws = rng.integers(0, 2, size=int(zeros.sum()), dtype=np.int8)
            bits[zeros] = draws == 1
    return bits


class PackedHypervectors:
    """A batch of bit-packed hypervectors.

    Attributes
    ----------
    words:
        ``(rows, ceil(D / 64))`` uint64 array holding the packed bits.
    dimension:
        The original hypervector dimension ``D`` (needed because the last
        word may be partially used).
    """

    def __init__(self, words: np.ndarray, dimension: int):
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError(f"words must be 2-D, got shape {words.shape}")
        expected_words = (dimension + _WORD_BITS - 1) // _WORD_BITS
        if words.shape[1] != expected_words:
            raise ValueError(
                f"words has {words.shape[1]} columns, expected {expected_words} "
                f"for dimension {dimension}"
            )
        self.words = words
        self.dimension = dimension

    def __len__(self) -> int:
        return self.words.shape[0]

    @property
    def storage_bytes(self) -> int:
        """Bytes needed to store this batch (what an accelerator would keep)."""
        return self.words.nbytes

    def hamming_distance(self, other: "PackedHypervectors") -> np.ndarray:
        """Pairwise normalised Hamming distances, shape ``(len(self), len(other))``.

        Computed as popcount(XOR) over packed words, exactly how a hardware
        implementation would evaluate Eq. 4.
        """
        if other.dimension != self.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )
        return self.bit_differences(other) / float(self.dimension)

    def bit_differences(self, other: "PackedHypervectors") -> np.ndarray:
        """Pairwise *raw* differing-bit counts, shape ``(len(self), len(other))``."""
        if other.dimension != self.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )
        return bit_differences_words(self.words, other.words)

    def dot_scores(self, other: "PackedHypervectors") -> np.ndarray:
        """Pairwise integer dot similarity ``D - 2 * bit_differences``."""
        return packed_dot_scores(self, other)


__all__ = [
    "BIPOLAR_DTYPE",
    "PackedHypervectors",
    "bit_differences_words",
    "flip_score_delta",
    "pack_bipolar",
    "pack_bits",
    "pack_flip_mask",
    "packed_dot_scores",
    "popcount",
    "sign_fuse_bits",
    "try_pack_bipolar",
    "unpack_bipolar",
]
