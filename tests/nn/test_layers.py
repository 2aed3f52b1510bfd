"""Tests for repro.nn.layers: forward shapes and numeric gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn


def numeric_grad_input(layer: nn.Module, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of sum(layer(x)) w.r.t. x."""
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        plus = float(np.sum(layer.forward(x)))
        flat_x[i] = orig - eps
        minus = float(np.sum(layer.forward(x)))
        flat_x[i] = orig
        flat_g[i] = (plus - minus) / (2 * eps)
    return grad


def analytic_grad_input(layer: nn.Module, x: np.ndarray) -> np.ndarray:
    out = layer.forward(x)
    return layer.backward(np.ones_like(out))


def numeric_grad_params(layer: nn.Module, x: np.ndarray, eps: float = 1e-5) -> dict[str, np.ndarray]:
    # parameter values are read-only: each probe assigns a perturbed copy
    grads = {}
    for param in layer.parameters():
        value = param.data
        g = np.zeros_like(value)
        flat_g = g.reshape(-1)
        for i in range(value.size):
            step = np.zeros(value.size)
            step[i] = eps
            step = step.reshape(value.shape)
            param.data = value + step
            plus = float(np.sum(layer.forward(x)))
            param.data = value - step
            minus = float(np.sum(layer.forward(x)))
            flat_g[i] = (plus - minus) / (2 * eps)
        param.data = value
        grads[param.name] = g
    return grads


class TestParameter:
    def test_zero_grad(self):
        p = nn.Parameter(np.ones((2, 2)))
        p.grad += 3.0
        p.zero_grad()
        assert np.allclose(p.grad, 0.0)

    def test_metadata_defaults(self):
        p = nn.Parameter(np.ones(3), name="w")
        assert p.trainable and p.lr_scale == 1.0 and p.size == 3

    def test_gradient_is_allocated_on_first_read(self):
        p = nn.Parameter(np.ones((3, 2)))
        assert p._grad is None
        grad = p.grad
        assert grad.shape == (3, 2) and grad.dtype == np.float64
        assert grad.flags.c_contiguous and not grad.any()
        assert p.grad is grad  # one buffer, accumulated in place
        p.grad += 2.0
        p.grad *= 0.5
        assert p.grad is grad and np.array_equal(grad, np.ones((3, 2)))

    def test_zero_grad_on_an_untouched_model_allocates_nothing(self, rng):
        model = nn.Sequential([
            ("conv", nn.Conv2d(2, 3, 3, padding=1, rng=rng)),
            ("head", nn.Conv2d(3, 2, 1, rng=rng)),
        ])
        model.zero_grad()
        assert all(param._grad is None for param in model.parameters())

    def test_zero_grad_clears_an_allocated_buffer_in_place(self):
        p = nn.Parameter(np.ones(4))
        p.grad += 1.0
        grad = p.grad
        p.zero_grad()
        assert p.grad is grad and not grad.any()


class TestConv2d:
    def test_forward_shape(self, rng):
        layer = nn.Conv2d(3, 8, kernel_size=3, stride=1, padding=1, rng=rng)
        out = layer.forward(rng.normal(size=(2, 3, 6, 6)))
        assert out.shape == (2, 8, 6, 6)

    def test_forward_shape_stride2(self, rng):
        layer = nn.Conv2d(3, 4, kernel_size=3, stride=2, padding=1, rng=rng)
        out = layer.forward(rng.normal(size=(1, 3, 8, 8)))
        assert out.shape == (1, 4, 4, 4)

    def test_rejects_wrong_channels(self, rng):
        layer = nn.Conv2d(3, 4, kernel_size=3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(1, 2, 8, 8)))

    def test_input_gradient_matches_numeric(self, rng):
        layer = nn.Conv2d(2, 3, kernel_size=3, stride=1, padding=1, rng=rng)
        x = rng.normal(size=(1, 2, 4, 4))
        assert np.allclose(analytic_grad_input(layer, x), numeric_grad_input(layer, x), atol=1e-5)

    def test_param_gradients_match_numeric(self, rng):
        layer = nn.Conv2d(2, 2, kernel_size=3, stride=2, padding=1, rng=rng)
        x = rng.normal(size=(2, 2, 5, 5))
        out = layer.forward(x)
        layer.backward(np.ones_like(out))
        numeric = numeric_grad_params(layer, x)
        for param in layer.parameters():
            assert np.allclose(param.grad, numeric[param.name], atol=1e-5)

    def test_state_dict_roundtrip(self, rng):
        a = nn.Conv2d(2, 3, kernel_size=3, padding=1, rng=rng)
        b = nn.Conv2d(2, 3, kernel_size=3, padding=1, rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        x = rng.normal(size=(2, 2, 4, 4))
        assert np.allclose(a.forward(x), b.forward(x))

    def test_matches_manual_convolution(self):
        # 1x1 input channel, known kernel -> verify against a hand computation
        layer = nn.Conv2d(1, 1, kernel_size=2, stride=1, padding=0, bias=False)
        layer.weight.data = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = layer.forward(x)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == pytest.approx(1 + 4 + 9 + 16)


class TestActivationLayers:
    @pytest.mark.parametrize(
        "layer",
        [nn.LeakyReLU(0.1), nn.Identity()],
        ids=["leaky_relu", "identity"],
    )
    def test_gradient_matches_numeric(self, layer, rng):
        x = rng.normal(size=(3, 5)) + 0.05  # avoid the kink at exactly 0
        assert np.allclose(analytic_grad_input(layer, x), numeric_grad_input(layer, x), atol=1e-5)

    def test_leaky_relu_negative_slope(self):
        out = nn.LeakyReLU(0.2).forward(np.array([[-10.0]]))
        assert out[0, 0] == pytest.approx(-2.0)


class TestPooling:
    def test_maxpool_forward(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = nn.MaxPool2d(2).forward(x)
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        layer = nn.MaxPool2d(2)
        out = layer.forward(x)
        dx = layer.backward(np.ones_like(out))
        assert dx.sum() == pytest.approx(4.0)
        assert dx[0, 0, 1, 1] == pytest.approx(1.0)
        assert dx[0, 0, 0, 0] == pytest.approx(0.0)


class TestModuleUtilities:
    def test_set_lr_scale(self, rng):
        layer = nn.Conv2d(3, 2, 1, rng=rng)
        layer.set_lr_scale(0.25)
        assert all(p.lr_scale == 0.25 for p in layer.parameters())

    def test_num_parameters(self, rng):
        layer = nn.Conv2d(3, 2, 1, rng=rng)
        assert layer.num_parameters() == 3 * 2 + 2

    def test_load_state_dict_mismatch_raises(self, rng):
        a = nn.Conv2d(3, 2, 1, rng=rng)
        with pytest.raises(KeyError):
            a.load_state_dict({"bogus": np.zeros(1)})

    def test_children_discovers_modules_in_containers(self, rng):
        """train()/eval() must reach modules stored in list/tuple attributes."""

        class Branchy(nn.Module):
            def __init__(self):
                super().__init__()
                self.direct = nn.LeakyReLU()
                self.blocks = [nn.LeakyReLU(), nn.Identity()]
                self.pair = (nn.MaxPool2d(2),)

        model = Branchy()
        kids = list(model.children())
        assert len(kids) == 4
        model.eval()
        assert not model.direct.training
        assert all(not child.training for child in model.blocks)
        assert not model.pair[0].training
        model.train()
        assert model.blocks[0].training and model.pair[0].training
