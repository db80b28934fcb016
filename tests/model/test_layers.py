"""Tests for the from-scratch dense layers, including numeric gradient checks."""

import numpy as np
import pytest

from repro.model.layers import MLP, Linear, ReLU, Sigmoid


def numeric_gradient(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        old = flat_x[i]
        flat_x[i] = old + eps
        up = f()
        flat_x[i] = old - eps
        down = f()
        flat_x[i] = old
        flat_g[i] = (up - down) / (2 * eps)
    return grad


class TestLinear:
    def test_forward_shape_and_value(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.standard_normal((4, 3))
        y = layer.forward(x)
        assert y.shape == (4, 2)
        assert np.allclose(y, x @ layer.W + layer.b)

    def test_rejects_bad_input_width(self, rng):
        layer = Linear(3, 2, rng=rng)
        with pytest.raises(ValueError, match="batch, 3"):
            layer.forward(rng.standard_normal((4, 5)))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 2)

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError, match="before forward"):
            Linear(3, 2, rng=rng).backward(np.ones((1, 2)))

    def test_weight_gradient_numeric(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.standard_normal((5, 3))

        def loss():
            return float(layer.forward(x).sum())

        expected_dw = numeric_gradient(loss, layer.W)
        layer.zero_grad()
        layer.forward(x)
        layer.backward(np.ones((5, 2)))
        assert np.allclose(layer.dW, expected_dw, atol=1e-5)

    def test_bias_gradient_numeric(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.standard_normal((5, 3))

        def loss():
            return float(layer.forward(x).sum())

        expected_db = numeric_gradient(loss, layer.b)
        layer.zero_grad()
        layer.forward(x)
        layer.backward(np.ones((5, 2)))
        assert np.allclose(layer.db, expected_db, atol=1e-5)

    def test_input_gradient_numeric(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.standard_normal((4, 3))

        def loss():
            return float(layer.forward(x).sum())

        expected_dx = numeric_gradient(loss, x)
        layer.forward(x)
        dx = layer.backward(np.ones((4, 2)))
        assert np.allclose(dx, expected_dx, atol=1e-5)

    def test_gradients_accumulate_until_zeroed(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.standard_normal((2, 3))
        layer.forward(x)
        layer.backward(np.ones((2, 2)))
        first = layer.dW.copy()
        layer.forward(x)
        layer.backward(np.ones((2, 2)))
        assert np.allclose(layer.dW, 2 * first)
        layer.zero_grad()
        assert np.all(layer.dW == 0.0)

    def test_parameters_exposed_as_pairs(self, rng):
        layer = Linear(3, 2, rng=rng)
        params = layer.parameters()
        assert len(params) == 2
        assert params[0][0] is layer.W and params[0][1] is layer.dW

    def test_flop_accounting(self):
        layer = Linear(10, 20)
        assert layer.forward_flops(8) == 2 * 8 * 10 * 20
        assert layer.backward_flops(8) == 4 * 8 * 10 * 20


class TestActivations:
    def test_relu_forward(self):
        relu = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        assert relu.forward(x).tolist() == [[0.0, 0.0, 2.0]]

    def test_relu_backward_masks(self):
        relu = ReLU()
        x = np.array([[-1.0, 0.5]])
        relu.forward(x)
        assert relu.backward(np.array([[3.0, 3.0]])).tolist() == [[0.0, 3.0]]

    def test_relu_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.ones((1, 1)))

    def test_sigmoid_range_and_symmetry(self):
        sig = Sigmoid()
        y = sig.forward(np.array([[-50.0, 0.0, 50.0]]))
        assert 0.0 <= y.min() and y.max() <= 1.0
        assert y[0, 1] == pytest.approx(0.5)

    def test_sigmoid_stable_for_extreme_inputs(self):
        sig = Sigmoid()
        y = sig.forward(np.array([[-1e4, 1e4]]))
        assert np.isfinite(y).all()

    def test_sigmoid_gradient_numeric(self, rng):
        sig = Sigmoid()
        x = rng.standard_normal((2, 3))

        def loss():
            return float(sig.forward(x).sum())

        expected = numeric_gradient(loss, x)
        sig.forward(x)
        dx = sig.backward(np.ones((2, 3)))
        assert np.allclose(dx, expected, atol=1e-5)


class TestMLP:
    def test_layer_structure(self, rng):
        mlp = MLP((8, 4, 2), rng=rng)
        kinds = [type(layer).__name__ for layer in mlp.layers]
        assert kinds == ["Linear", "ReLU", "Linear"]

    def test_final_layer_is_linear(self, rng):
        """No activation after the last layer - it feeds interaction/logits."""
        mlp = MLP((4, 2), rng=rng)
        x = rng.standard_normal((3, 4)) - 10.0  # strongly negative inputs
        y = mlp.forward(x)
        assert (y < 0).any()  # a trailing ReLU would have clamped these

    def test_rejects_too_few_sizes(self):
        with pytest.raises(ValueError, match="at least"):
            MLP((4,))

    def test_forward_shapes(self, rng):
        mlp = MLP((8, 16, 4), rng=rng)
        assert mlp.forward(rng.standard_normal((5, 8))).shape == (5, 4)
        assert mlp.in_features == 8 and mlp.out_features == 4

    def test_full_gradient_check(self, rng):
        mlp = MLP((3, 4, 2), rng=rng)
        x = rng.standard_normal((3, 3))

        def loss():
            return float((mlp.forward(x) ** 2).sum())

        for param, grad in mlp.parameters():
            expected = numeric_gradient(loss, param)
            mlp.zero_grad()
            out = mlp.forward(x)
            mlp.backward(2 * out)
            assert np.allclose(grad, expected, atol=1e-4)

    def test_input_gradient_check(self, rng):
        mlp = MLP((3, 5, 2), rng=rng)
        x = rng.standard_normal((2, 3))

        def loss():
            return float(mlp.forward(x).sum())

        expected = numeric_gradient(loss, x)
        mlp.forward(x)
        dx = mlp.backward(np.ones((2, 2)))
        assert np.allclose(dx, expected, atol=1e-5)

    def test_no_input_gradient_leaves_parameter_gradients_byte_equal(self, rng):
        x = rng.standard_normal((6, 5)).astype(np.float32)
        dout = rng.standard_normal((6, 3)).astype(np.float32)
        full, data_fed = (MLP((5, 4, 3), rng=np.random.default_rng(2),
                              dtype=np.float32) for _ in range(2))
        full.forward(x)
        data_fed.forward(x)
        assert full.backward(dout).shape == x.shape
        assert data_fed.backward(dout, input_grad=False) is None
        for (_, g_full), (_, g_data) in zip(full.parameters(), data_fed.parameters()):
            assert g_full.tobytes() == g_data.tobytes()

    def test_flops_sum_over_linears(self):
        mlp = MLP((8, 4, 2))
        assert mlp.forward_flops(10) == 2 * 10 * (8 * 4 + 4 * 2)
        assert mlp.backward_flops(10) == 2 * mlp.forward_flops(10)

    def test_parameter_bytes(self):
        mlp = MLP((8, 4, 2))
        count = (8 * 4 + 4) + (4 * 2 + 2)
        assert mlp.parameter_bytes(itemsize=4) == 4 * count

    def test_rm1_bottom_mlp_geometry(self, rng):
        """The paper's RM1 bottom MLP: 256 -> 128 -> 64."""
        mlp = MLP((256, 128, 64), rng=rng)
        assert mlp.forward(rng.standard_normal((2, 256))).shape == (2, 64)
