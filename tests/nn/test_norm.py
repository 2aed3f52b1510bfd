"""Tests for BatchNorm / BatchRenorm layers.

The training math is checked on ``(N, C, 1, 1)`` volumes, where each
sample is one flat feature vector.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn


def features(rng, n: int, c: int, loc: float = 0.0, scale: float = 1.0) -> np.ndarray:
    """``n`` feature vectors of ``c`` channels as an ``(n, c, 1, 1)`` volume."""
    return rng.normal(loc=loc, scale=scale, size=(n, c, 1, 1))


def flat(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], -1)


class TestBatchNormMath:
    def test_train_output_is_normalised(self, rng):
        layer = nn.BatchNorm2d(4)
        out = flat(layer.forward(features(rng, 64, 4, loc=5.0, scale=3.0)))
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_move_towards_batch_stats(self, rng):
        layer = nn.BatchNorm2d(2, momentum=0.5)
        x = features(rng, 128, 2, loc=10.0)
        for _ in range(20):
            layer.forward(x)
        assert np.allclose(layer.running_mean, flat(x).mean(axis=0), atol=0.1)

    def test_eval_uses_running_stats(self, rng):
        layer = nn.BatchNorm2d(3, momentum=1.0)
        x = features(rng, 256, 3, loc=2.0)
        layer.forward(x)
        layer.eval()
        out = flat(layer.forward(x))
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-2)

    def test_gradient_matches_numeric(self, rng):
        layer = nn.BatchNorm2d(3)
        x = features(rng, 8, 3)
        # numeric check of d(sum f(x)) / dx with fresh running stats each call
        def fresh_forward(inp):
            probe = nn.BatchNorm2d(3)
            probe.gamma.data = layer.gamma.data.copy()
            probe.beta.data = layer.beta.data.copy()
            return probe.forward(inp)

        out = layer.forward(x)
        analytic = layer.backward(np.ones_like(out))
        eps = 1e-5
        numeric = np.zeros_like(x)
        for index in np.ndindex(x.shape):
            xp, xm = x.copy(), x.copy()
            xp[index] += eps
            xm[index] -= eps
            numeric[index] = (np.sum(fresh_forward(xp)) - np.sum(fresh_forward(xm))) / (2 * eps)
        assert np.allclose(analytic, numeric, atol=1e-5)

    def test_rejects_wrong_shape(self, rng):
        layer = nn.BatchNorm2d(3)
        with pytest.raises(ValueError):
            layer.forward(features(rng, 4, 5))
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(4, 3)))


class TestBatchNorm2d:
    def test_normalises_per_channel(self, rng):
        layer = nn.BatchNorm2d(3)
        x = rng.normal(loc=4.0, scale=2.0, size=(8, 3, 5, 5))
        out = layer.forward(x)
        assert out.shape == x.shape
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)

    def test_backward_shape(self, rng):
        layer = nn.BatchNorm2d(3)
        x = rng.normal(size=(4, 3, 5, 5))
        out = layer.forward(x)
        assert layer.backward(np.ones_like(out)).shape == x.shape


class TestBatchRenorm:
    def test_matches_batchnorm_when_stats_agree(self, rng):
        """With running stats equal to batch stats, BRN reduces to BN (r=1, d=0)."""
        x = features(rng, 512, 4)
        bn = nn.BatchNorm2d(4)
        brn = nn.BatchRenorm2d(4)
        brn.running_mean = flat(x).mean(axis=0)
        brn.running_var = flat(x).var(axis=0)
        out_bn = bn.forward(x)
        out_brn = brn.forward(x)
        assert np.allclose(out_bn, out_brn, atol=1e-6)

    def test_correction_bounded(self, rng):
        """r and d are clipped, so output cannot explode for tiny batches."""
        layer = nn.BatchRenorm2d(4)
        layer.running_mean = np.zeros(4)
        layer.running_var = np.ones(4)
        x = features(rng, 2, 4, loc=100.0, scale=50.0)
        out = layer.forward(x)
        assert np.all(np.isfinite(out))
        # d is clipped at 5, r at 3 so normalised output is bounded
        assert np.all(np.abs(out) <= 3.0 * 10 + 5.0 + 1.0)

    def test_small_batch_more_stable_than_bn(self, rng):
        """BRN with warm running stats gives outputs closer to the population
        normalisation than BN does for a tiny mini-batch."""
        population = flat(features(rng, 4096, 4, loc=3.0, scale=2.0))
        pop_mean, pop_std = population.mean(axis=0), population.std(axis=0)

        bn = nn.BatchNorm2d(4)
        brn = nn.BatchRenorm2d(4)
        for layer in (bn, brn):
            layer.running_mean = pop_mean.copy()
            layer.running_var = (pop_std**2).copy()

        batch = features(rng, 4, 4, loc=3.0, scale=2.0)
        expected = (flat(batch) - pop_mean) / pop_std
        err_bn = np.abs(flat(bn.forward(batch)) - expected).mean()
        err_brn = np.abs(flat(brn.forward(batch)) - expected).mean()
        assert err_brn <= err_bn + 1e-9

    def test_2d_shapes(self, rng):
        layer = nn.BatchRenorm2d(2)
        x = rng.normal(size=(4, 2, 6, 6))
        out = layer.forward(x)
        assert out.shape == x.shape
        assert layer.backward(np.ones_like(out)).shape == x.shape

    def test_backward_finite(self, rng):
        layer = nn.BatchRenorm2d(3)
        x = features(rng, 4, 3)
        out = layer.forward(x)
        grad = layer.backward(rng.normal(size=out.shape))
        assert np.all(np.isfinite(grad))


class TestNormParamControl:
    def test_frozen_affine_params_keep_running_stats_updating(self, rng):
        """The paper freezes front-layer weights but lets norm moments adapt."""
        layer = nn.BatchNorm2d(3)
        layer.freeze()
        before = layer.running_mean.copy()
        layer.forward(rng.normal(loc=5.0, size=(8, 3, 4, 4)))
        assert not np.allclose(layer.running_mean, before)
        assert all(not p.trainable for p in layer.parameters())

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            nn.BatchNorm2d(0)
        with pytest.raises(ValueError):
            nn.BatchNorm2d(3, momentum=0.0)
