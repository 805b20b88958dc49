"""Unit tests for the linear kernels and the float dtype policy in training."""

import numpy as np
import pytest

from repro.core.bnn_model import BNNTrainer, SingleLayerBNN
from repro.core.configs import DEFAULT_CONFIG
from repro.kernels.dispatch import get_kernel, use_float_dtype
from repro.kernels.linear import as_float, matmul, sign_bipolar
from repro.nn.losses import cross_entropy_from_logits, one_hot, softmax


class TestAsFloat:
    def test_integer_input_casts_to_policy(self):
        assert as_float(np.ones(3, dtype=np.int8)).dtype == np.float32

    def test_float_input_preserved(self):
        for dtype in (np.float32, np.float64):
            array = np.ones(3, dtype=dtype)
            result = as_float(array)
            assert result.dtype == dtype
            assert result is array  # no copy either

    def test_policy_override(self):
        with use_float_dtype(np.float64):
            assert as_float(np.ones(3, dtype=np.int8)).dtype == np.float64


class TestSignBipolar:
    def test_values_and_zero_mapping(self):
        values = np.array([-0.5, 0.0, 2.0], dtype=np.float32)
        np.testing.assert_array_equal(sign_bipolar(values), [-1.0, 1.0, 1.0])

    def test_dtype_follows_input(self):
        assert sign_bipolar(np.zeros(2, dtype=np.float64)).dtype == np.float64
        assert sign_bipolar(np.zeros(2, dtype=np.float32)).dtype == np.float32


class TestMatmul:
    def test_matches_operator(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 4)).astype(np.float32)
        b = rng.normal(size=(4, 3)).astype(np.float32)
        np.testing.assert_array_equal(matmul(a, b), a @ b)

    def test_registered_kernel_matches_operator(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(64, 16))
        b = rng.normal(size=(16, 8))
        np.testing.assert_array_equal(get_kernel("linear.matmul")(a, b), a @ b)


class TestLossDtypes:
    def test_softmax_preserves_float32(self):
        assert softmax(np.zeros((2, 3), dtype=np.float32)).dtype == np.float32

    def test_one_hot_default_policy_dtype(self):
        assert one_hot(np.array([0, 1]), 2).dtype == np.float32

    def test_cross_entropy_gradient_follows_logits(self):
        logits = np.random.default_rng(2).normal(size=(4, 3)).astype(np.float32)
        loss, grad = cross_entropy_from_logits(logits, np.array([0, 1, 2, 0]))
        assert isinstance(loss, float)
        assert grad.dtype == np.float32


class TestNoSilentUpcastsDuringTraining:
    """Satellite: a full training step stays in the policy dtype end to end."""

    @pytest.mark.parametrize("policy", [np.float32, np.float64])
    def test_training_step_stays_in_policy_dtype(self, policy):
        with use_float_dtype(policy):
            rng = np.random.default_rng(3)
            hypervectors = (
                rng.integers(0, 2, size=(48, 128)).astype(np.int8) * 2 - 1
            )
            labels = rng.integers(0, 4, size=48)
            model = SingleLayerBNN(
                dimension=128, num_classes=4, dropout_rate=0.3, seed=0
            )
            config = DEFAULT_CONFIG.with_overrides(
                epochs=1, batch_size=16, validation_fraction=0.0
            )
            trainer = BNNTrainer(model, config, seed=0)

            # Parameters are initialised in the policy dtype.
            assert model.linear.weight.value.dtype == policy

            # Every intermediate of one forward/backward stays in policy dtype.
            inputs = as_float(hypervectors)
            assert inputs.dtype == policy
            logits = model.forward(inputs)
            assert logits.dtype == policy
            loss, grad_logits = cross_entropy_from_logits(logits, labels)
            assert grad_logits.dtype == policy
            model.zero_grad()
            grad_inputs = model.backward(grad_logits)
            assert grad_inputs.dtype == policy
            assert model.linear.weight.grad.dtype == policy

            # A full optimiser epoch leaves weights and Adam state in policy dtype.
            trainer.train(hypervectors, labels)
            assert model.linear.weight.value.dtype == policy
            for moment_store in (
                trainer.optimizer._first_moment,
                trainer.optimizer._second_moment,
            ):
                for moment in moment_store.values():
                    assert moment.dtype == policy

    def test_float64_hypervectors_are_not_downcast(self):
        """Pre-cast float64 inputs keep their precision (no silent down-cast)."""
        inputs = np.ones((4, 16), dtype=np.float64)
        model = SingleLayerBNN(dimension=16, num_classes=2, dropout_rate=0.0, seed=0)
        # float64 inputs against float32 weights promote to float64 — the
        # caller's precision is never reduced behind their back.
        assert model.forward(inputs).dtype == np.float64
