"""Unit tests for the packed kernels."""

import numpy as np
import pytest

from repro.hdc.hypervector import dot_similarity, random_hypervectors, sign_with_ties
from repro.kernels.dispatch import use_backend
from repro.kernels.packed import (
    bit_differences_words,
    pack_bipolar,
    packed_dot_scores,
    sign_fuse_bits,
    try_pack_bipolar,
)


class TestTryPackBipolar:
    def test_matches_pack_bipolar_on_bipolar_input(self):
        vectors = random_hypervectors(5, 130, seed=40)
        packed = try_pack_bipolar(vectors)
        np.testing.assert_array_equal(packed.words, pack_bipolar(vectors).words)
        assert packed.dimension == 130

    def test_returns_none_instead_of_raising(self):
        assert try_pack_bipolar(np.zeros((2, 8))) is None
        assert try_pack_bipolar(np.full((2, 8), 3)) is None
        with pytest.raises(ValueError):
            pack_bipolar(np.zeros((2, 8)))

    def test_accepts_float_bipolar(self):
        vectors = random_hypervectors(2, 64, seed=41).astype(np.float32)
        packed = try_pack_bipolar(vectors)
        np.testing.assert_array_equal(
            packed.words, pack_bipolar(vectors.astype(np.int8)).words
        )


class TestPackedDotScores:
    def test_matches_dense_dot_similarity(self):
        queries = random_hypervectors(16, 300, seed=0)
        references = random_hypervectors(5, 300, seed=1)
        packed_scores = packed_dot_scores(pack_bipolar(queries), pack_bipolar(references))
        np.testing.assert_array_equal(
            packed_scores, dot_similarity(queries, references)
        )

    def test_dot_scores_method(self):
        queries = random_hypervectors(4, 100, seed=2)
        packed = pack_bipolar(queries)
        np.testing.assert_array_equal(
            packed.dot_scores(packed), dot_similarity(queries, queries)
        )

    def test_word_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="word-count mismatch"):
            bit_differences_words(
                np.zeros((2, 2), dtype=np.uint64), np.zeros((2, 3), dtype=np.uint64)
            )


class TestThreadedBackend:
    def test_bit_differences_threaded_matches_numpy(self):
        a = random_hypervectors(33, 500, seed=3)
        b = random_hypervectors(7, 500, seed=4)
        packed_a, packed_b = pack_bipolar(a), pack_bipolar(b)
        expected = packed_a.bit_differences(packed_b)
        with use_backend("threaded"):
            np.testing.assert_array_equal(packed_a.bit_differences(packed_b), expected)


class TestSignFuseBits:
    def test_positive_tie_break_matches_sign_with_ties(self):
        raw = np.array([[3, 0, -2, 0, 5], [-1, -1, 0, 4, 0]], dtype=np.int32)
        bits = sign_fuse_bits(raw, tie_break="positive")
        dense = sign_with_ties(raw, tie_break="positive")
        np.testing.assert_array_equal(bits, dense > 0)

    def test_random_tie_break_consumes_identical_rng_stream(self):
        rng_dense = np.random.default_rng(77)
        rng_packed = np.random.default_rng(77)
        raw = np.random.default_rng(5).integers(-2, 3, size=(20, 64)).astype(np.int32)
        dense = sign_with_ties(raw, rng=rng_dense, tie_break="random")
        bits = sign_fuse_bits(raw, tie_break="random", rng=rng_packed)
        np.testing.assert_array_equal(bits, dense > 0)
        # Both paths must leave the generator in the same state.
        assert rng_dense.integers(0, 2**31) == rng_packed.integers(0, 2**31)

    def test_random_tie_break_requires_rng(self):
        with pytest.raises(ValueError, match="requires an rng"):
            sign_fuse_bits(np.zeros((1, 4), dtype=np.int32), tie_break="random")

    def test_invalid_tie_break(self):
        with pytest.raises(ValueError, match="tie_break"):
            sign_fuse_bits(np.ones((1, 4), dtype=np.int32), tie_break="coin")
