"""Tests for repro.nn.functional."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F


class TestConvOutputSize:
    def test_basic(self):
        assert F.conv_output_size(8, 3, 1, 1) == 8
        assert F.conv_output_size(8, 3, 2, 1) == 4
        assert F.conv_output_size(8, 2, 2, 0) == 4

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)


class TestIm2Col:
    def test_shape(self):
        x = np.arange(2 * 3 * 6 * 6, dtype=np.float64).reshape(2, 3, 6, 6)
        cols = F.im2col(x, 3, 3, 1, 1)
        assert cols.shape == (2 * 6 * 6, 3 * 3 * 3)

    def test_empty_batch(self):
        cols = F.im2col(np.zeros((0, 3, 8, 8)), 3, 3, stride=1, padding=1)
        assert cols.shape == (0, 27)

    def test_identity_kernel_recovers_input(self):
        x = np.random.default_rng(0).normal(size=(2, 4, 5, 5))
        cols = F.im2col(x, 1, 1, 1, 0)
        assert np.allclose(cols.reshape(2, 5, 5, 4).transpose(0, 3, 1, 2), x)

    def test_col2im_inverse_for_stride_equal_kernel(self):
        # with non-overlapping windows, col2im is an exact inverse
        x = np.random.default_rng(1).normal(size=(3, 2, 8, 8))
        cols = F.im2col(x, 2, 2, 2, 0)
        back = F.col2im(cols, x.shape, 2, 2, 2, 0)
        assert np.allclose(back, x)

    def test_col2im_sums_overlaps(self):
        x = np.ones((1, 1, 3, 3))
        cols = F.im2col(x, 3, 3, 1, 1)
        back = F.col2im(cols, x.shape, 3, 3, 1, 1)
        # centre pixel participates in all 9 windows
        assert back[0, 0, 1, 1] == pytest.approx(9.0)


class TestActivations:
    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-50, 50, 101)
        s = F.sigmoid(x)
        assert np.all(s >= 0) and np.all(s <= 1)
        assert np.allclose(s + F.sigmoid(-x), 1.0)

    def test_sigmoid_extreme_values_no_overflow(self):
        assert F.sigmoid(np.array([1e4]))[0] == pytest.approx(1.0)
        assert F.sigmoid(np.array([-1e4]))[0] == pytest.approx(0.0)

    def test_softmax_sums_to_one(self):
        x = np.random.default_rng(2).normal(size=(5, 7)) * 30
        p = F.softmax(x, axis=1)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    size=st.integers(4, 9),
    kernel=st.integers(1, 3),
    stride=st.integers(1, 2),
    padding=st.integers(0, 1),
)
def test_im2col_col2im_adjoint(n, c, size, kernel, stride, padding):
    """col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>."""
    if size + 2 * padding < kernel:
        return
    rng = np.random.default_rng(42)
    x = rng.normal(size=(n, c, size, size))
    cols = F.im2col(x, kernel, kernel, stride, padding)
    y = rng.normal(size=cols.shape)
    lhs = float(np.sum(cols * y))
    rhs = float(np.sum(x * F.col2im(y, x.shape, kernel, kernel, stride, padding)))
    assert lhs == pytest.approx(rhs, rel=1e-9)
