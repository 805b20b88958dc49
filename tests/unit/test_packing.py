"""Unit tests for the bit-packing kernels in repro.kernels.packed."""

import numpy as np
import pytest

from repro.hdc.hypervector import hamming_distance, random_hypervectors
from repro.kernels.packed import (
    PackedHypervectors,
    _popcount_table,
    pack_bipolar,
    pack_bits,
    popcount,
    unpack_bipolar,
)


class TestPackUnpack:
    def test_roundtrip_multiple_of_64(self):
        vectors = random_hypervectors(4, 256, seed=0)
        np.testing.assert_array_equal(unpack_bipolar(pack_bipolar(vectors)), vectors)

    def test_roundtrip_non_multiple_of_64(self):
        vectors = random_hypervectors(3, 100, seed=1)
        np.testing.assert_array_equal(unpack_bipolar(pack_bipolar(vectors)), vectors)

    def test_word_count(self):
        packed = pack_bipolar(random_hypervectors(2, 130, seed=2))
        assert packed.words.shape == (2, 3)
        assert packed.dimension == 130

    def test_rejects_non_bipolar(self):
        with pytest.raises(ValueError):
            pack_bipolar(np.zeros((2, 64)))

    def test_single_vector_promoted(self):
        packed = pack_bipolar(random_hypervectors(1, 64, seed=3)[0])
        assert len(packed) == 1


class TestPackedHamming:
    def test_matches_dense_hamming(self):
        queries = random_hypervectors(5, 333, seed=4)
        classes = random_hypervectors(3, 333, seed=5)
        dense = hamming_distance(queries, classes)
        packed = pack_bipolar(queries).hamming_distance(pack_bipolar(classes))
        np.testing.assert_allclose(packed, dense, atol=1e-12)

    def test_zero_distance_to_self(self):
        vectors = random_hypervectors(2, 128, seed=6)
        packed = pack_bipolar(vectors)
        distances = packed.hamming_distance(packed)
        assert distances[0, 0] == 0.0
        assert distances[1, 1] == 0.0

    def test_dimension_mismatch(self):
        a = pack_bipolar(random_hypervectors(1, 64, seed=7))
        b = pack_bipolar(random_hypervectors(1, 128, seed=8))
        with pytest.raises(ValueError):
            a.hamming_distance(b)

    def test_storage_bytes(self):
        packed = pack_bipolar(random_hypervectors(4, 256, seed=9))
        assert packed.storage_bytes == 4 * 4 * 8  # 4 rows x 4 words x 8 bytes


class TestBitDifferences:
    def test_counts_are_raw_bit_differences(self):
        queries = random_hypervectors(6, 200, seed=10)
        classes = random_hypervectors(4, 200, seed=11)
        counts = pack_bipolar(queries).bit_differences(pack_bipolar(classes))
        assert counts.dtype == np.int64
        expected = (queries[:, None, :] != classes[None, :, :]).sum(axis=2)
        np.testing.assert_array_equal(counts, expected)

    def test_blocked_path_matches_single_block(self):
        # Enough rows that the block loop takes more than one iteration even
        # with a tiny block budget forced via a large "other" side.
        queries = random_hypervectors(300, 256, seed=12)
        classes = random_hypervectors(50, 256, seed=13)
        packed_queries = pack_bipolar(queries)
        packed_classes = pack_bipolar(classes)
        counts = packed_queries.bit_differences(packed_classes)
        dense = hamming_distance(queries, classes) * 256
        np.testing.assert_allclose(counts, dense, atol=1e-9)

    def test_dimension_mismatch(self):
        a = pack_bipolar(random_hypervectors(1, 64, seed=14))
        b = pack_bipolar(random_hypervectors(1, 128, seed=15))
        with pytest.raises(ValueError):
            a.bit_differences(b)


class TestPopcountParity:
    def test_table_matches_native(self):
        words = pack_bipolar(random_hypervectors(8, 1000, seed=16)).words
        np.testing.assert_array_equal(
            np.asarray(popcount(words), dtype=np.uint32), _popcount_table(words)
        )


class TestPackBits:
    def test_matches_pack_bipolar(self):
        vectors = random_hypervectors(5, 333, seed=17)
        np.testing.assert_array_equal(
            pack_bits(vectors > 0, 333).words, pack_bipolar(vectors).words
        )

    def test_accepts_uint8_bits(self):
        bits = (random_hypervectors(3, 100, seed=18) > 0).astype(np.uint8)
        packed = pack_bits(bits)
        assert packed.dimension == 100
        np.testing.assert_array_equal(
            unpack_bipolar(packed), np.where(bits, 1, -1).astype(np.int8)
        )

    def test_any_nonzero_counts_as_set(self):
        # Values that a uint8 cast would truncate to zero must still set bits.
        bits = np.array([[256, 0.5, 2, 0, -1]], dtype=object).astype(np.float64)
        packed = pack_bits(bits)
        np.testing.assert_array_equal(
            unpack_bipolar(packed)[0], np.array([1, 1, 1, -1, 1], dtype=np.int8)
        )


class TestPackedConstruction:
    def test_bad_word_shape(self):
        with pytest.raises(ValueError):
            PackedHypervectors(words=np.zeros((2, 3), dtype=np.uint64), dimension=64)

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            PackedHypervectors(words=np.zeros(3, dtype=np.uint64), dimension=64)


class TestImportPaths:
    def test_deprecated_hdc_packing_module_is_gone(self):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.hdc.packing")

    def test_package_reexports_the_packed_kernels(self):
        import repro.kernels
        from repro.kernels import packed

        for name in packed.__all__:
            if name == "BIPOLAR_DTYPE":  # a dtype constant, not a kernel
                continue
            assert name in repro.kernels.__all__, name
            assert getattr(repro.kernels, name) is getattr(packed, name), name
