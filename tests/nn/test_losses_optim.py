"""Tests for the SGD optimizer, and SGD training a small network end to end."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn


def bce_with_logits(logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy of logits, and its gradient."""
    loss = np.mean(np.logaddexp(0.0, logits) - target * logits)
    return float(loss), (nn.sigmoid(logits) - target) / logits.size


class TestSGD:
    def test_basic_step_reduces_quadratic(self):
        p = nn.Parameter(np.array([4.0]))
        opt = nn.SGD([p], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            p.grad += 2 * p.data  # d/dp of p^2
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_momentum_accelerates(self):
        def run(momentum):
            p = nn.Parameter(np.array([10.0]))
            opt = nn.SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                p.grad += 2 * p.data
                opt.step()
            return abs(p.data[0])

        assert run(0.9) < run(0.0)

    def test_frozen_parameter_not_updated(self):
        p = nn.Parameter(np.array([1.0]))
        p.trainable = False
        opt = nn.SGD([p], lr=0.5)
        p.grad += 1.0
        opt.step()
        assert p.data[0] == pytest.approx(1.0)

    def test_lr_scale_scales_update(self):
        p_full = nn.Parameter(np.array([1.0]))
        p_half = nn.Parameter(np.array([1.0]))
        p_half.lr_scale = 0.5
        opt = nn.SGD([p_full, p_half], lr=0.1)
        p_full.grad += 1.0
        p_half.grad += 1.0
        opt.step()
        assert (1.0 - p_half.data[0]) == pytest.approx(0.5 * (1.0 - p_full.data[0]))

    def test_weight_decay_shrinks_weights(self):
        p = nn.Parameter(np.array([1.0]))
        opt = nn.SGD([p], lr=0.1, weight_decay=0.1)
        opt.step()  # zero gradient, only decay
        assert p.data[0] < 1.0

    def test_gradient_clipping(self):
        p = nn.Parameter(np.zeros(4))
        opt = nn.SGD([p], lr=1.0, max_grad_norm=1.0)
        p.grad += 100.0
        opt.step()
        assert np.linalg.norm(p.data) == pytest.approx(1.0, rel=1e-6)

    def test_invalid_hyperparameters(self):
        p = nn.Parameter(np.zeros(1))
        with pytest.raises(ValueError):
            nn.SGD([p], lr=-1.0)
        with pytest.raises(ValueError):
            nn.SGD([p], lr=0.1, momentum=1.5)


class TestSequentialTraining:
    def test_sequential_learns_xor_like_mapping(self, rng):
        """End-to-end sanity: a small MLP fits a non-linear function."""
        x = rng.uniform(-1, 1, size=(256, 2))
        y = (np.sign(x[:, 0] * x[:, 1]) > 0).astype(float).reshape(-1, 1)

        # 1x1 convs over (N, 2, 1, 1) volumes: a two-hidden-layer MLP
        model = nn.Sequential([
            ("fc1", nn.Conv2d(2, 16, 1, rng=rng)),
            ("act1", nn.LeakyReLU(0.0)),
            ("fc2", nn.Conv2d(16, 16, 1, rng=np.random.default_rng(7))),
            ("act2", nn.LeakyReLU(0.0)),
            ("out", nn.Conv2d(16, 1, 1, rng=np.random.default_rng(8))),
        ])
        opt = nn.SGD(model.parameters(), lr=0.5, momentum=0.9)
        inputs = x.reshape(-1, 2, 1, 1)

        first_loss = None
        for step in range(300):
            opt.zero_grad()
            logits = model.forward(inputs).reshape(-1, 1)
            loss, grad = bce_with_logits(logits, y)
            if first_loss is None:
                first_loss = loss
            model.backward(grad.reshape(-1, 1, 1, 1))
            opt.step()

        pred = (nn.sigmoid(model.forward(inputs).reshape(-1, 1)) > 0.5).astype(float)
        accuracy = float((pred == y).mean())
        assert loss < first_loss
        assert accuracy > 0.9
