"""Bit-exactness of the layers' fast paths, in training and eval mode.

Each fast path is compared with a reference copy of the straightforward
code it replaced, byte for byte.  For ``im2col`` the memory order of the
columns matters as much as their values: BLAS rounds a product with a
row-major operand differently from one with a column-major operand, so
the products with a weight matrix are compared too.  In eval mode
``MaxPool2d``, ``LeakyReLU`` and the normalisation layers take cheaper
kernels than in training mode and keep no backward state; they are held
to the training-mode expressions.  In training mode ``col2im``,
``MaxPool2d``, ``LeakyReLU`` and the normalisation layers are held to
reference copies of the expressions they replaced: outputs, running
statistics, parameter gradients and input gradients.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F


def reference_im2col(x, kernel_h, kernel_w, stride, padding):
    """``np.pad`` plus the k² slice loop, for every kernel shape."""
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kernel_h) // stride + 1
    out_w = (w + 2 * padding - kernel_w) // stride + 1
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            cols[:, :, ky, kx, :, :] = x[:, :, ky:y_max:stride, kx:x_max:stride]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)


def reference_col2im(cols, input_shape, kernel_h, kernel_w, stride, padding):
    """The k² slice loop adding into a zeroed NCHW buffer."""
    n, c, h, w = input_shape
    out_h = (h + 2 * padding - kernel_h) // stride + 1
    out_w = (w + 2 * padding - kernel_w) // stride + 1
    cols = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            padded[:, :, ky:y_max:stride, kx:x_max:stride] += cols[:, :, ky, kx, :, :]
    return padded[:, :, padding : padding + h, padding : padding + w]


def reference_maxpool(x, k, s):
    """Max pooling over ``reference_im2col`` windows: (output, argmax)."""
    n, c, h, w = x.shape
    cols = reference_im2col(x.reshape(n * c, 1, h, w), k, k, s, 0)
    argmax = cols.argmax(axis=1)
    out = cols[np.arange(cols.shape[0]), argmax]
    return out.reshape(n, c, (h - k) // s + 1, (w - k) // s + 1), argmax


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    """Same shape and the same bytes (so -0.0 differs from 0.0)."""
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


def layouts(rng, n, c, h, w):
    """The same values as NCHW memory, as an NHWC view, and as strided views."""
    nchw = rng.normal(size=(n, c, h, w))
    yield "nchw", nchw
    yield "nhwc_view", np.ascontiguousarray(nchw.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    # a channel slice of a wider NHWC tensor: no reshape of it is contiguous
    wide = rng.normal(size=(n, h, w, c + 3))
    yield "nhwc_channel_slice", wide[..., 1 : c + 1].transpose(0, 3, 1, 2)
    # every other pixel of a larger image
    big = rng.normal(size=(n, c, 2 * h, 2 * w))
    yield "spatial_stride", big[:, :, ::2, ::2]


IM2COL_CASES = list(itertools.product((1, 2, 3), (1, 2), (0, 1, 2)))


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize(("kernel", "stride", "padding"), IM2COL_CASES)
def test_im2col_matches_reference_bytes_and_memory_order(batch, kernel, stride, padding):
    rng = np.random.default_rng(100 * kernel + 10 * stride + padding + batch)
    channels = 4
    weight = rng.normal(size=(5, channels * kernel * kernel))
    for name, x in layouts(rng, batch, channels, 7, 6):
        expected = reference_im2col(x, kernel, kernel, stride, padding)
        cols = F.im2col(x, kernel, kernel, stride, padding)
        assert_bitwise(cols, expected)
        assert (cols.flags.c_contiguous, cols.flags.f_contiguous) == (
            expected.flags.c_contiguous,
            expected.flags.f_contiguous,
        ), name
        assert_bitwise(cols @ weight.T, expected @ weight.T)


def test_1x1_columns_of_an_nhwc_batch_are_a_view():
    x = np.random.default_rng(0).normal(size=(3, 5, 4, 8)).transpose(0, 3, 1, 2)
    cols = F.im2col(x, 1, 1, 1, 0)
    assert np.shares_memory(cols, x)
    assert_bitwise(cols, reference_im2col(x, 1, 1, 1, 0))


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize(("kernel", "stride", "padding"), IM2COL_CASES)
def test_col2im_matches_reference_bytes(batch, kernel, stride, padding):
    """Column-major and row-major columns, with -0.0 among them: the sum
    into zeros gives +0.0 where every contribution is a zero."""
    rng = np.random.default_rng(100 * kernel + 10 * stride + padding + batch)
    shape = (batch, 4, 7, 6)
    for name, x in layouts(rng, *shape):
        cols = F.im2col(x, kernel, kernel, stride, padding)
        signed = cols.copy(order="K")
        signed[rng.random(cols.shape) < 0.3] = -0.0
        for columns in (cols, signed, np.ascontiguousarray(signed)):
            expected = reference_col2im(columns, shape, kernel, kernel, stride, padding)
            actual = F.col2im(columns, shape, kernel, kernel, stride, padding)
            assert_bitwise(actual, expected)


@pytest.mark.parametrize("batch", [1, 4])
def test_conv2d_forward_and_backward_match_the_reference_columns(batch):
    """The layers the student runs, in its activation layout, end to end."""
    rng = np.random.default_rng(batch)
    for kernel, padding in ((3, 1), (1, 0)):
        conv = nn.Conv2d(6, 5, kernel, padding=padding, rng=np.random.default_rng(1))
        x = np.ascontiguousarray(rng.normal(size=(batch, 8, 8, 6))).transpose(0, 3, 1, 2)
        cols = reference_im2col(x, kernel, kernel, 1, padding)
        w_flat = conv.weight.data.reshape(5, -1)
        expected = (cols @ w_flat.T + conv.bias.data).reshape(batch, 8, 8, 5)
        out = conv.forward(x)
        assert_bitwise(out, expected.transpose(0, 3, 1, 2))
        grad = rng.normal(size=out.shape)
        dx = conv.backward(grad)
        grad_flat = grad.transpose(0, 2, 3, 1).reshape(-1, 5)
        assert_bitwise(conv.weight.grad, (grad_flat.T @ cols).reshape(conv.weight.data.shape))
        assert_bitwise(conv.bias.grad, grad_flat.sum(axis=0))
        expected_dx = reference_col2im(grad_flat @ w_flat, x.shape, kernel, kernel, 1, padding)
        assert_bitwise(dx, expected_dx)


POOL_CASES = [
    # (kernel, stride, height, width): tiling, non-dividing, overlapping
    (2, 2, 8, 8),
    (2, 2, 8, 6),
    (3, 3, 9, 6),
    (2, 2, 7, 7),
    (2, 2, 7, 8),
    (3, 2, 9, 9),
    (2, 1, 5, 6),
]


#: (value set, training mode); the eval cases' ids end in "-eval"
POOL_MODES = [
    pytest.param(values, training, id=values if training else f"{values}-eval")
    for values in ("normal", "ties", "signed_zeros", "nan")
    for training in (True, False)
]


@pytest.mark.parametrize(("kernel", "stride", "height", "width"), POOL_CASES)
@pytest.mark.parametrize(("values", "training"), POOL_MODES)
def test_maxpool_matches_reference(kernel, stride, height, width, values, training):
    rng = np.random.default_rng(kernel * 100 + height * 10 + width)
    shape = (2, 3, height, width)
    if values == "normal":
        data = rng.normal(size=shape)
    elif values == "ties":
        # few distinct values: most windows hold their maximum twice
        data = rng.integers(0, 3, size=shape).astype(np.float64)
    elif values == "signed_zeros":
        # -0.0 and 0.0 compare equal; the first one in the window must win
        data = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    else:
        # NaN and -NaN in a few windows, at every window position
        data = rng.normal(size=shape)
        data[rng.random(shape) < 0.1] = np.nan
        data[rng.random(shape) < 0.05] = -np.nan
    nhwc_view = np.ascontiguousarray(data.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    for x in (data, nhwc_view):
        pool = nn.MaxPool2d(kernel, stride)
        expected, expected_argmax = reference_maxpool(x, kernel, stride)
        if not training:
            pool.eval()
            assert_bitwise(pool.forward(x), expected)
            assert pool.forward(x).flags.c_contiguous
            continue
        out = pool.forward(x)
        assert_bitwise(out, expected)
        grad = signed_values(rng, out.shape)  # ±0, ±inf and NaN among them
        grad_cols = np.zeros((expected_argmax.size, kernel * kernel))
        grad_cols[np.arange(expected_argmax.size), expected_argmax] = grad.reshape(-1)
        n, c, h, w = x.shape
        with np.errstate(invalid="ignore"):  # inf - inf where windows overlap
            dx = pool.backward(grad)
            expected_dx = reference_col2im(grad_cols, (n * c, 1, h, w), kernel, kernel, stride, 0)
        assert_bitwise(dx, expected_dx.reshape(n, c, h, w))


def signed_values(rng, shape):
    """Normal values with ±0, ±inf, NaN and -NaN mixed in."""
    x = rng.normal(size=shape)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    mask = rng.random(shape) < 0.3
    x[mask] = rng.choice(specials, size=int(mask.sum()))
    return x


@pytest.mark.parametrize("slope", [0.0, 0.1, 0.5, 1.0])
def test_leaky_relu_eval_matches_the_masked_select(slope):
    rng = np.random.default_rng(int(slope * 10))
    x = signed_values(rng, (2, 5, 6, 7))
    layer = nn.LeakyReLU(slope)
    with np.errstate(invalid="ignore"):  # 0 * inf
        expected = np.where(x > 0, x, slope * x)
        assert_bitwise(layer.forward(x), expected)
        layer.eval()
        for view in (x, np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)):
            assert_bitwise(layer.forward(view), expected)


@pytest.mark.parametrize("slope", [0.0, 0.1, 0.5, 1.0])
def test_leaky_relu_training_matches_the_masked_select(slope):
    rng = np.random.default_rng(int(slope * 10) + 1)
    x = signed_values(rng, (2, 5, 6, 7))
    grad = signed_values(rng, x.shape)
    for view in (x, np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)):
        layer = nn.LeakyReLU(slope)
        with np.errstate(invalid="ignore"):  # 0 * inf
            assert_bitwise(layer.forward(view), np.where(x > 0, x, slope * x))
            assert_bitwise(layer.backward(grad), np.where(x > 0, grad, slope * grad))


@pytest.mark.parametrize("slope", [-0.1, 1.5, np.nan])
def test_leaky_relu_rejects_slopes_outside_the_unit_interval(slope):
    with pytest.raises(ValueError):
        nn.LeakyReLU(slope)


@pytest.mark.parametrize("layer_type", [nn.BatchNorm2d, nn.BatchRenorm2d])
def test_norm_eval_matches_the_running_statistics_expression(layer_type):
    rng = np.random.default_rng(7)
    shape = (3, 4, 5, 6)
    layer = layer_type(4)
    layer.gamma.data = rng.normal(size=4)
    layer.beta.data = rng.normal(size=4)
    for _ in range(3):
        layer.forward(rng.normal(2.0, 3.0, size=shape))
    layer.eval()
    x = signed_values(rng, shape)
    inputs = (x, np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2))
    flat = x.transpose(0, 2, 3, 1).reshape(-1, 4)
    x_hat = (flat - layer.running_mean) / np.sqrt(layer.running_var + layer.eps)
    expected = layer.gamma.data * x_hat + layer.beta.data
    expected = expected.reshape(3, 5, 6, 4).transpose(0, 3, 1, 2)
    for view in inputs:
        out = layer.forward(view)
        assert_bitwise(out, expected)
        assert out.strides == expected.strides


def reference_norm_forward(layer, flat):
    """The training forward's expressions: (output, running mean, running
    var, backward cache) from ``flat`` and ``layer``'s current state."""
    gamma, eps, m = layer.gamma.data, layer.eps, layer.momentum
    mean = flat.mean(axis=0)
    var = flat.var(axis=0)
    std = np.sqrt(var + eps)
    if isinstance(layer, nn.BatchNorm2d):
        x_hat = (flat - mean) / std
        cache = (x_hat, std, None)
    else:
        running_std = np.sqrt(layer.running_var + eps)
        r = np.clip(std / running_std, 1.0 / layer.r_max, layer.r_max)
        d = np.clip((mean - layer.running_mean) / running_std, -layer.d_max, layer.d_max)
        x_hat = (flat - mean) / std * r + d
        cache = ((flat - mean) / std, std, r)
    running_mean = (1 - m) * layer.running_mean + m * mean
    running_var = (1 - m) * layer.running_var + m * var
    return gamma * x_hat + layer.beta.data, running_mean, running_var, cache


def reference_norm_backward(gamma, grad_flat, cache):
    """The training backward's expressions: (γ gradient, β gradient, input
    gradient); ``r`` is None for BatchNorm."""
    x_hat_core, std, r = cache
    if r is None:
        x_hat, dx_hat = x_hat_core, grad_flat * gamma
    else:
        x_hat, dx_hat = x_hat_core * r, grad_flat * gamma * r
    dgamma = (grad_flat * x_hat).sum(axis=0)
    dbeta = grad_flat.sum(axis=0)
    if grad_flat.shape[0] == 1:
        return dgamma, dbeta, dx_hat / std
    dx = (dx_hat - dx_hat.mean(axis=0) - x_hat_core * (dx_hat * x_hat_core).mean(axis=0)) / std
    return dgamma, dbeta, dx


#: (channels, height, width) at the student's four norms, and one pixel
NORM_GEOMETRIES = [(16, 32, 32), (32, 16, 16), (48, 8, 8), (64, 8, 8), (5, 1, 1)]


@pytest.mark.parametrize("kind", ["bn", "brn", "brn_clipped"])
@pytest.mark.parametrize("batch", [1, 2, 12, 16])
@pytest.mark.parametrize("geometry", NORM_GEOMETRIES, ids=str)
def test_norm_training_matches_the_reference_expressions(kind, batch, geometry):
    """Output, running statistics, γ/β gradients and input gradient of a
    training step, from NCHW memory and from channels-last views."""
    c, h, w = geometry
    rng = np.random.default_rng(batch * 1000 + c)
    for name, x in layouts(rng, batch, c, h, w):
        layer = nn.BatchNorm2d(c) if kind == "bn" else nn.BatchRenorm2d(c)
        layer.gamma.data = rng.normal(size=c)
        layer.beta.data = rng.normal(size=c)
        if kind == "brn_clipped":
            # r and d at both ends of their clip ranges
            even = np.arange(c) % 2 == 0
            layer.running_mean = np.where(even, 20.0, -200.0)
            layer.running_var = np.where(even, 1e-4, 100.0)
        else:
            layer.running_mean = rng.normal(0.0, 0.1, size=c)
            layer.running_var = rng.uniform(0.5, 2.0, size=c)
        gamma_grad, beta_grad = rng.normal(size=c), rng.normal(size=c)
        layer.gamma.grad, layer.beta.grad = gamma_grad.copy(), beta_grad.copy()

        flat = x.transpose(0, 2, 3, 1).reshape(-1, c)
        out, running_mean, running_var, cache = reference_norm_forward(layer, flat)
        assert_bitwise(layer.forward(x), out.reshape(batch, h, w, c).transpose(0, 3, 1, 2))
        assert_bitwise(layer.running_mean, running_mean)
        assert_bitwise(layer.running_var, running_var)
        if kind == "brn_clipped" and c > 1 and flat.shape[0] > 1:
            r = cache[2]
            assert r.max() == layer.r_max and r.min() == 1.0 / layer.r_max

        grad = rng.normal(size=(batch, c, h, w))
        if name != "nchw":
            grad = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        grad_flat = grad.transpose(0, 2, 3, 1).reshape(-1, c)
        dgamma, dbeta, dx = reference_norm_backward(layer.gamma.data, grad_flat, cache)
        actual_dx = layer.backward(grad)
        assert_bitwise(layer.gamma.grad, gamma_grad + dgamma)
        assert_bitwise(layer.beta.grad, beta_grad + dbeta)
        assert_bitwise(actual_dx, dx.reshape(batch, h, w, c).transpose(0, 3, 1, 2))


STALE_CACHE_CASES = [
    pytest.param(lambda: nn.Conv2d(3, 4, 3, padding=1), (2, 3, 6, 6), id="conv"),
    pytest.param(lambda: nn.BatchNorm2d(3), (2, 3, 6, 6), id="batchnorm"),
    pytest.param(lambda: nn.BatchRenorm2d(3), (2, 3, 6, 6), id="batchrenorm"),
    pytest.param(lambda: nn.LeakyReLU(0.1), (2, 3, 6, 6), id="leaky_relu"),
    pytest.param(lambda: nn.MaxPool2d(2), (2, 3, 6, 6), id="maxpool"),
    pytest.param(lambda: nn.MaxPool2d(3, 2), (2, 3, 7, 7), id="maxpool_overlapping"),
]


@pytest.mark.parametrize(("make_layer", "shape"), STALE_CACHE_CASES)
def test_backward_after_an_eval_forward_raises(make_layer, shape):
    """An eval forward drops the training forward's cache instead of
    leaving it for a backward pass that would use stale activations."""
    layer = make_layer()
    rng = np.random.default_rng(0)
    out = layer.forward(rng.normal(size=shape))
    layer.eval()
    layer.forward(rng.normal(size=shape))
    with pytest.raises(RuntimeError):
        layer.backward(np.ones_like(out))
