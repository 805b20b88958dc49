"""Packed-kernel predictions must match dense predictions bit-for-bit.

The whole point of the kernel-layer refactor is that the packed XOR+popcount
path is a *re-implementation*, not an approximation: for every classifier the
packed ``predict``/``top_k`` must equal the dense results exactly — including
the ensemble's max-over-sub-models rule (packed against its flat model
bank), classifiers whose bespoke scoring forces the dense fallback (the
non-binary cosine centroids), and the raw-feature nearest-centroid reference
that rides the linear kernel.
"""

import numpy as np
import pytest

from repro.classifiers.adapthd import AdaptHDC
from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.nearest_centroid import NearestCentroidClassifier
from repro.classifiers.nonbinary import NonBinaryHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.core.configs import DEFAULT_CONFIG
from repro.core.lehdc import LeHDCClassifier
from repro.hdc.encoders import RecordEncoder
from repro.kernels import dispatch
from repro.kernels.packed import pack_bipolar
from repro.serve.engine import PackedInferenceEngine

FAST_LEHDC = DEFAULT_CONFIG.with_overrides(
    epochs=3, batch_size=32, validation_fraction=0.0
)

CLASSIFIER_FACTORIES = {
    "baseline": lambda: BaselineHDC(seed=0),
    "adapthd": lambda: AdaptHDC(iterations=5, seed=0),
    "lehdc": lambda: LeHDCClassifier(config=FAST_LEHDC, seed=0),
    "multimodel": lambda: MultiModelHDC(models_per_class=4, iterations=2, seed=0),
    "nonbinary": lambda: NonBinaryHDC(seed=0),
}


@pytest.fixture(scope="module", params=sorted(CLASSIFIER_FACTORIES))
def fitted(request, small_problem):
    """One fitted (classifier, encoded splits) bundle per strategy."""
    encoder = RecordEncoder(dimension=512, num_levels=16, tie_break="positive", seed=1)
    encoder.fit(small_problem["train_features"])
    train_encoded = encoder.encode(small_problem["train_features"])
    test_encoded = encoder.encode(small_problem["test_features"])
    classifier = CLASSIFIER_FACTORIES[request.param]()
    classifier.fit(train_encoded, small_problem["train_labels"])
    return {
        "name": request.param,
        "encoder": encoder,
        "classifier": classifier,
        "test_encoded": test_encoded,
        "test_features": small_problem["test_features"],
    }


class TestClassifierPackedParity:
    def test_packed_predict_matches_dense(self, fitted):
        classifier = fitted["classifier"]
        dense = classifier.predict(fitted["test_encoded"])
        if classifier.supports_packed_scoring():
            packed = classifier.predict_packed(pack_bipolar(fitted["test_encoded"]))
            np.testing.assert_array_equal(packed, dense)
        else:
            # Bespoke scoring with no packed twin (non-binary cosine): the
            # packed path must refuse rather than silently produce different
            # predictions.
            with pytest.raises(ValueError, match="decision_scores"):
                classifier.predict_packed(pack_bipolar(fitted["test_encoded"]))

    def test_packed_scores_match_dense_exactly(self, fitted):
        classifier = fitted["classifier"]
        if not classifier.supports_packed_scoring():
            pytest.skip("dense-only scoring rule")
        dense = classifier.decision_scores(fitted["test_encoded"])
        packed = classifier.decision_scores_packed(
            pack_bipolar(fitted["test_encoded"])
        )
        np.testing.assert_array_equal(packed, dense)

    def test_queries_encoded_over_the_pool_score_bit_identically(
        self, fitted, kernel_pool
    ):
        classifier = fitted["classifier"]
        if not classifier.supports_packed_scoring():
            pytest.skip("dense-only scoring rule")
        encoder = fitted["encoder"]
        features = fitted["test_features"]
        # Four width-1 rows per block, so the query batch spans many blocks.
        scratch_bytes = 4 * features.shape[1] * encoder.dimension
        dispatches = kernel_pool(1, scratch_bytes)
        direct = classifier.decision_scores_packed(encoder.encode_packed(features))
        assert not dispatches
        dispatches = kernel_pool(2, scratch_bytes)
        pooled = classifier.decision_scores_packed(encoder.encode_packed(features))
        assert dispatches
        np.testing.assert_array_equal(pooled, direct)
        np.testing.assert_array_equal(
            direct, classifier.decision_scores(fitted["test_encoded"])
        )


class TestPipelinePackedParity:
    def test_pipeline_packed_vs_dense_predict_and_top_k(self, fitted):
        encoder = fitted["encoder"]
        pipeline_packed = HDCPipeline(encoder, fitted["classifier"], prefer_packed=True)
        pipeline_dense = HDCPipeline(encoder, fitted["classifier"], prefer_packed=False)
        pipeline_packed._fitted = True
        pipeline_dense._fitted = True
        features = fitted["test_features"]

        np.testing.assert_array_equal(
            pipeline_packed.predict(features), pipeline_dense.predict(features)
        )
        packed_labels, packed_scores = pipeline_packed.top_k(features, k=3)
        dense_labels, dense_scores = pipeline_dense.top_k(features, k=3)
        np.testing.assert_array_equal(packed_labels, dense_labels)
        np.testing.assert_array_equal(packed_scores, dense_scores)
        packed_batch = pipeline_packed.predict_batch(features)
        dense_batch = pipeline_dense.predict_batch(features)
        np.testing.assert_array_equal(packed_batch[0], dense_batch[0])
        np.testing.assert_array_equal(packed_batch[1], dense_batch[1])


class TestEnginePackedParity:
    def test_engine_matches_pipeline_bit_for_bit(self, fitted):
        pipeline = HDCPipeline(fitted["encoder"], fitted["classifier"])
        pipeline._fitted = True
        engine = PackedInferenceEngine(pipeline, name=fitted["name"])
        features = fitted["test_features"]
        np.testing.assert_array_equal(
            engine.predict(features), pipeline.predict(features)
        )
        engine_labels, _ = engine.top_k(features, k=3)
        pipeline_labels, _ = pipeline.top_k(features, k=3)
        np.testing.assert_array_equal(engine_labels, pipeline_labels)
        expected_mode = (
            "packed" if fitted["classifier"].supports_packed_scoring() else "dense"
        )
        assert engine.mode == expected_mode


class TestNearestCentroidParity:
    """The raw-feature reference classifier rides the linear kernel."""

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_kernel_matmul_matches_direct_computation(self, small_problem, metric):
        classifier = NearestCentroidClassifier(metric=metric)
        classifier.fit(small_problem["train_features"], small_problem["train_labels"])
        features = small_problem["test_features"]
        predictions = classifier.predict(features)
        dispatch.reset_kernel_profile()
        with dispatch.profile_kernels():
            profiled = classifier.predict(features)
        np.testing.assert_array_equal(predictions, profiled)
        assert dispatch.kernel_profile_snapshot()["linear.matmul"]["calls"] >= 1
        # Reference: direct float64 computation against the centroids.
        if metric == "euclidean":
            distances = ((features[:, None, :] - classifier.centroids_[None]) ** 2).sum(
                axis=2
            )
            np.testing.assert_array_equal(predictions, np.argmin(distances, axis=1))
