"""Tests for dense layers, the MLP, and the loss — including numerical
gradient checks, the ground truth for all backward passes."""

import numpy as np
import pytest

from nn_oracles import masked_sigmoid, oracle_bce
from repro.nn.layers import MLP, Dense, ReLU
from repro.nn.loss import bce_with_logits, sigmoid


class TestDense:
    def test_forward_shape(self):
        d = Dense(3, 5)
        out = d.forward(np.zeros((7, 3), dtype=np.float32))
        assert out.shape == (7, 5)

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            Dense(2, 2).backward(np.zeros((1, 2)))

    def test_gradient_check_weights(self):
        rng = np.random.default_rng(0)
        d = Dense(4, 3, seed=1)
        x = rng.normal(size=(5, 4)).astype(np.float32)

        def loss_fn():
            return float((d.forward(x) ** 2).sum())

        base = d.forward(x)
        d.backward(2 * base)  # dL/dy for L = sum(y^2)
        eps = 1e-4
        for idx in [(0, 0), (2, 1), (3, 2)]:
            orig = d.W[idx]
            d.W[idx] = orig + eps
            up = loss_fn()
            d.W[idx] = orig - eps
            down = loss_fn()
            d.W[idx] = orig
            numeric = (up - down) / (2 * eps)
            assert d.dW[0][idx] == pytest.approx(numeric, rel=1e-2)

    def test_gradient_check_input(self):
        rng = np.random.default_rng(0)
        d = Dense(3, 2, seed=2)
        x = rng.normal(size=(4, 3))
        y = d.forward(x)
        gin = d.backward(np.ones_like(y))
        eps = 1e-6
        for i, j in [(0, 0), (3, 2)]:
            xp = x.copy()
            xp[i, j] += eps
            # y is a workspace view: probe without overwriting it
            numeric = (d.forward(xp, training=False).sum() - y.sum()) / eps
            assert gin[i, j] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 2)

    def test_n_params(self):
        assert Dense(3, 5).n_params == 3 * 5 + 5


class TestActivations:
    def test_relu_masks_negatives(self):
        r = ReLU()
        out = r.forward(np.array([-1.0, 2.0]))
        assert out.tolist() == [0.0, 2.0]
        grad = r.backward(np.array([1.0, 1.0]))
        assert grad.tolist() == [0.0, 1.0]


class TestMLP:
    def test_output_shape(self):
        mlp = MLP(6, (8, 4))
        out = mlp.forward(np.zeros((10, 6)))
        assert out.shape == (10,)

    def test_full_gradient_check(self):
        rng = np.random.default_rng(3)
        mlp = MLP(4, (5,), seed=0)
        x = rng.normal(size=(6, 4))
        labels = rng.integers(0, 2, 6).astype(np.float64)

        def total_loss():
            (loss,), _, _ = bce_with_logits(mlp.forward(x), labels)
            return loss

        _, _, grad_logit = bce_with_logits(mlp.forward(x), labels)
        mlp.backward(grad_logit)
        eps = 1e-5
        for layer in mlp.dense_layers():
            idx = (0, 0)
            orig = layer.W[idx]
            layer.W[idx] = orig + eps
            up = total_loss()
            layer.W[idx] = orig - eps
            down = total_loss()
            layer.W[idx] = orig
            numeric = (up - down) / (2 * eps)
            # float32 weights bound the attainable agreement.
            assert layer.dW[0][idx] == pytest.approx(numeric, rel=5e-3, abs=1e-7)

    def test_state_roundtrip(self):
        a = MLP(3, (4,), seed=0)
        b = MLP(3, (4,), seed=99)
        b.set_state(a.get_state())
        x = np.ones((2, 3))
        assert np.array_equal(a.forward(x), b.forward(x))

    def test_state_shape_mismatch(self):
        a = MLP(3, (4,))
        b = MLP(3, (5,))
        with pytest.raises(ValueError):
            b.set_state(a.get_state())


class TestBCE:
    def test_gradient_is_p_minus_y_over_n(self):
        logits = np.array([0.5, -1.0])
        labels = np.array([1.0, 0.0])
        _, p, grad = bce_with_logits(logits, labels)
        assert np.allclose(grad, (p - labels) / 2)

    def test_stable_at_extreme_logits(self):
        (loss,), p, grad = bce_with_logits(
            np.array([1000.0, -1000.0]), np.array([1.0, 0.0])
        )
        assert np.isfinite(loss)
        assert loss < 1e-6

    def test_sigmoid_consistency(self):
        x = np.linspace(-10, 10, 50)
        _, p, _ = bce_with_logits(x, np.zeros(50))
        assert np.allclose(p, sigmoid(x))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bce_with_logits(np.array([]), np.array([]))
        with pytest.raises(ValueError, match="empty"):
            bce_with_logits(np.zeros(3), np.zeros(3), [0, 2, 2, 3])

    def test_slices_are_their_own_minibatches(self):
        """Each slice's loss and gradient are bit-equal to the slice's
        own one-minibatch loss (its mean, divided by its own size)."""
        rng = np.random.default_rng(4)
        logits = rng.normal(scale=4.0, size=101)
        labels = (rng.random(101) < 0.3).astype(np.float32)
        bounds = [0, 1, 40, 41, 101]
        losses, p, grad = bce_with_logits(logits, labels, bounds)
        assert np.array_equal(p, masked_sigmoid(logits))
        for w, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            want_loss, want_grad = oracle_bce(logits[lo:hi], labels[lo:hi])
            assert losses[w] == want_loss
            assert np.array_equal(grad[lo:hi], want_grad)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestSigmoid:
    """``loss.sigmoid`` is branch-free and bitwise the two-branch form."""

    SPECIAL = [0.0, -0.0, 1.0, -1.0, 1000.0, -1000.0, np.inf, -np.inf,
               np.nan, -np.nan, 5e-324, -5e-324, 709.8, -745.2]

    def test_bitwise_equal_on_special_values(self):
        x = np.array(self.SPECIAL)
        assert np.array_equal(_bits(sigmoid(x)), _bits(masked_sigmoid(x)))

    def test_bitwise_equal_on_random_logits(self):
        rng = np.random.default_rng(9)
        for scale in (1e-3, 1.0, 30.0, 800.0):
            x = rng.normal(scale=scale, size=20_000)
            assert np.array_equal(_bits(sigmoid(x)), _bits(masked_sigmoid(x)))

    def test_stable_extremes(self):
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]
