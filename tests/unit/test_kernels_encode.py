"""Unit tests for the fused encode kernels and their encoder integration."""

import multiprocessing

import numpy as np
import pytest

from repro.hdc.encoders import NGramEncoder, RecordEncoder
from repro.kernels import dispatch
from repro.kernels.encode import NGramAccumulator, RecordAccumulator, build_accumulator
from repro.kernels.packed import pack_bipolar


@pytest.fixture(scope="module")
def features():
    return np.random.default_rng(3).normal(size=(40, 12))


def reference_record_accumulate(encoder, levels):
    """The seed implementation: one gather + multiply per feature."""
    positions = encoder.position_memory.vectors.astype(np.int32)
    level_vectors = encoder.level_memory.vectors.astype(np.int32)
    accumulated = np.zeros((levels.shape[0], encoder.dimension), dtype=np.int32)
    for feature_index in range(levels.shape[1]):
        accumulated += positions[feature_index] * level_vectors[levels[:, feature_index]]
    return accumulated


def reference_ngram_accumulate(encoder, levels):
    """The seed implementation: a Python loop over binding windows."""
    level_vectors = encoder.level_memory.vectors.astype(np.int32)
    permuted = [np.roll(level_vectors, o, axis=1) for o in range(encoder.ngram)]
    accumulated = np.zeros((levels.shape[0], encoder.dimension), dtype=np.int32)
    for start in range(levels.shape[1] - encoder.ngram + 1):
        gram = permuted[0][levels[:, start]].copy()
        for offset in range(1, encoder.ngram):
            gram *= permuted[offset][levels[:, start + offset]]
        accumulated += gram
    return accumulated


#: Record-encoder shape of the pool tests: 12 features at D=256, with a
#: scratch budget of exactly eight width-1 rows.
POOL_FEATURES = 12
POOL_DIMENSION = 256
POOL_SCRATCH_BYTES = 8 * POOL_FEATURES * POOL_DIMENSION


class TestRecordAccumulator:
    def test_fused_lut_matches_seed_loop(self, features):
        encoder = RecordEncoder(dimension=256, num_levels=8, seed=0).fit(features)
        levels = encoder._quantizer.transform(features)
        np.testing.assert_array_equal(
            encoder._accumulate(levels), reference_record_accumulate(encoder, levels)
        )

    def test_factored_fallback_matches_fused(self, features):
        encoder = RecordEncoder(dimension=256, num_levels=8, seed=0).fit(features)
        levels = encoder._quantizer.transform(features)
        fused = RecordAccumulator(
            encoder.position_memory.vectors, encoder.level_memory.vectors
        )
        factored = RecordAccumulator(
            encoder.position_memory.vectors,
            encoder.level_memory.vectors,
            lut_budget_bytes=1,
        )
        assert fused.table_bytes > factored.table_bytes
        np.testing.assert_array_equal(fused(levels), factored(levels))

    @pytest.mark.parametrize("tie_break", ["positive", "random"])
    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize(
        "blocks", ["one row", "one block", "one block + 1 row", "several blocks"]
    )
    def test_pool_widths_are_bit_identical(
        self, features, kernel_pool, tie_break, width, blocks
    ):
        block = POOL_SCRATCH_BYTES // (width * POOL_FEATURES * POOL_DIMENSION)
        rows = {
            "one row": 1,
            "one block": block,
            "one block + 1 row": block + 1,
            "several blocks": 3 * block + 2,
        }[blocks]
        batch = features[:rows]

        def encode_at(pool_width):
            encoder = RecordEncoder(
                dimension=POOL_DIMENSION, num_levels=8, tie_break=tie_break, seed=1
            ).fit(features)
            dispatches = kernel_pool(pool_width, POOL_SCRATCH_BYTES)
            accumulated = encoder._accumulate(encoder._quantizer.transform(batch))
            encoded = encoder.encode(batch)
            packed = encoder.encode_packed(batch)
            return {
                "accumulated": accumulated,
                "encoded": encoded,
                "packed": packed.words,
                "rng_state": encoder._rng.bit_generator.state,
                "pool_dispatches": len(dispatches),
            }

        direct = encode_at(1)
        pooled = encode_at(width)
        assert direct["pool_dispatches"] == 0  # width 1 never starts a pool
        reference = RecordEncoder(dimension=POOL_DIMENSION, num_levels=8, seed=1)
        reference.fit(features)
        np.testing.assert_array_equal(
            direct["accumulated"],
            reference_record_accumulate(reference, reference._quantizer.transform(batch)),
        )
        for output in ("accumulated", "encoded", "packed"):
            np.testing.assert_array_equal(pooled[output], direct[output])
        # The tie-break RNG is drawn only by the calling thread, after
        # accumulation, so the stream is where it would be at width 1.
        assert pooled["rng_state"] == direct["rng_state"]
        # One block runs directly; every larger batch maps over the pool
        # (three kernel calls above: accumulate, encode, encode_packed).
        assert pooled["pool_dispatches"] == (0 if rows <= block else 3)


class TestForkSafety:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_forked_child_encodes_after_the_parent_used_the_pool(
        self, features, kernel_pool
    ):
        encoder = RecordEncoder(
            dimension=POOL_DIMENSION, num_levels=8, tie_break="positive", seed=2
        ).fit(features)
        levels = encoder._quantizer.transform(features)
        dispatches = kernel_pool(2, POOL_SCRATCH_BYTES)
        expected = encoder._accumulate(levels)
        assert dispatches and dispatch._POOL is not None  # the pool is live

        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)

        def child():
            # Still a faked 2-CPU mask: the child takes the pool path too.
            sender.send(encoder._accumulate(levels))

        process = context.Process(target=child)
        process.start()
        try:
            assert receiver.poll(30), "forked child hung on the inherited pool"
            result = receiver.recv()
        finally:
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join(timeout=10)
        assert not process.is_alive()
        np.testing.assert_array_equal(result, expected)


class TestNGramRegression:
    """Satellite: the vectorised rolled-window kernel is pinned to the seed loop."""

    @pytest.mark.parametrize("ngram", [1, 2, 3, 5])
    def test_vectorised_matches_seed_loop(self, features, ngram):
        encoder = NGramEncoder(dimension=200, num_levels=8, ngram=ngram, seed=2)
        encoder.fit(features)
        levels = encoder._quantizer.transform(features)
        np.testing.assert_array_equal(
            encoder._accumulate(levels), reference_ngram_accumulate(encoder, levels)
        )

    def test_encode_identical_to_seed_composition(self, features):
        """Full encode (accumulate + sign, random ties) is reproducible from
        the reference accumulation and an identically seeded RNG."""
        from repro.hdc.hypervector import sign_with_ties

        encoder = NGramEncoder(dimension=200, num_levels=8, ngram=3, seed=4)
        encoder.fit(features)
        levels = encoder._quantizer.transform(features)
        reference_rng = np.random.default_rng(99)
        encoder._rng = np.random.default_rng(99)  # align tie-break streams
        expected = sign_with_ties(
            reference_ngram_accumulate(encoder, levels),
            rng=reference_rng,
            tie_break="random",
        )
        np.testing.assert_array_equal(encoder.encode(features), expected)

    def test_window_blocks_do_not_change_result(self, features, monkeypatch):
        """Force a tiny scratch budget so multiple window blocks are exercised."""
        import repro.kernels.encode as encode_module

        encoder = NGramEncoder(dimension=64, num_levels=8, ngram=3, seed=5)
        encoder.fit(features)
        levels = encoder._quantizer.transform(features)
        expected = encoder._accumulate(levels)
        monkeypatch.setattr(encode_module, "_SCRATCH_BYTES", 1)
        blocked = NGramAccumulator(encoder.level_memory.vectors, encoder.ngram)
        np.testing.assert_array_equal(blocked(levels), expected)

    def test_too_few_features_raises(self):
        accumulator = NGramAccumulator(
            np.ones((4, 32), dtype=np.int8), ngram=5
        )
        with pytest.raises(ValueError, match="exceeds the number of features"):
            accumulator(np.zeros((2, 3), dtype=np.int64))


class TestEncoderIntegration:
    def test_build_accumulator_dispatches_on_type(self, features):
        record = RecordEncoder(dimension=64, num_levels=4, seed=0).fit(features)
        ngram = NGramEncoder(dimension=64, num_levels=4, ngram=2, seed=0).fit(features)
        assert isinstance(build_accumulator(record), RecordAccumulator)
        assert isinstance(build_accumulator(ngram), NGramAccumulator)
        assert build_accumulator(object()) is None

    def test_accumulator_rebuilt_after_refit(self, features):
        encoder = RecordEncoder(dimension=64, num_levels=4, seed=0).fit(features)
        first = encoder._get_accumulator()
        assert encoder._get_accumulator() is first  # cached between calls
        encoder.fit(features)
        assert encoder._get_accumulator() is not first

    def test_accumulator_rebuilt_on_budget_change(self, features):
        encoder = RecordEncoder(dimension=64, num_levels=4, seed=0).fit(features)
        fused = encoder._get_accumulator()
        encoder.lut_budget_bytes = 1
        factored = encoder._get_accumulator()
        assert factored is not fused
        assert fused._flat_lut is not None
        assert factored._flat_lut is None

    @pytest.mark.parametrize("tie_break", ["positive", "random"])
    def test_encode_packed_bit_identical_to_dense_encode(self, features, tie_break):
        dense_encoder = RecordEncoder(
            dimension=200, num_levels=4, tie_break=tie_break, seed=8
        ).fit(features)
        packed_encoder = RecordEncoder(
            dimension=200, num_levels=4, tie_break=tie_break, seed=8
        ).fit(features)
        expected = pack_bipolar(dense_encoder.encode(features))
        packed = packed_encoder.encode_packed(features)
        np.testing.assert_array_equal(packed.words, expected.words)
        assert packed.dimension == expected.dimension

    def test_accumulate_public_surface(self, features):
        encoder = RecordEncoder(dimension=64, num_levels=4, seed=0).fit(features)
        raw = encoder.accumulate(features)
        assert raw.shape == (features.shape[0], 64)
        assert raw.dtype == np.int32
