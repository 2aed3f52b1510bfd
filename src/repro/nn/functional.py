"""Stateless numerical helpers shared across the NN substrate.

All functions accept and return plain ``numpy.ndarray`` values; nothing in
this module keeps state, which makes the helpers safe to reuse from both the
forward and backward passes of the layer modules.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "im2col",
    "col2im",
    "conv_output_size",
    "sigmoid",
    "softmax",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    if size + 2 * padding < kernel:
        raise ValueError(
            f"input size {size} with padding {padding} is smaller than kernel {kernel}"
        )
    return (size + 2 * padding - kernel) // stride + 1


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> np.ndarray:
    """Unfold an NCHW batch into a matrix of receptive-field columns.

    Returns an array of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``
    so a convolution becomes a single matrix multiplication with the reshaped
    weight tensor.

    The memory order of the result is part of the contract: BLAS rounds a
    product differently for row- and column-major operands.  One image
    gives a column-major matrix (the transpose of contiguous CHW columns),
    a batch a row-major one.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    if kernel_h == kernel_w == stride == 1 and padding == 0:
        # a 1x1 kernel needs no unfolding: the columns are the pixels.  A
        # batch that is NHWC in memory, as Conv2d outputs are, is a view.
        if n == 1:
            return np.ascontiguousarray(x.reshape(c, h * w)).T
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1).reshape(-1, c))

    if padding > 0:
        # one zeroed buffer and a slice copy: half the cost of np.pad
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding : padding + h, padding : padding + w] = x
        x = padded

    # every receptive field as a read-only view, copied once: in (c, ky,
    # kx) x (oy, ox) order for one image, so the columns are its
    # transpose, and straight into the row-major columns for a batch
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kernel_h, kernel_w, out_h, out_w),
        strides=(sn, sc, sh, sw, stride * sh, stride * sw),
        writeable=False,
    )
    if n == 1:
        return np.array(windows[0], order="C").reshape(-1, out_h * out_w).T
    columns = np.array(windows.transpose(0, 4, 5, 1, 2, 3), order="C")
    return columns.reshape(n * out_h * out_w, c * kernel_h * kernel_w)


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`; overlapping contributions are summed.

    The sums run in a zeroed channels-last buffer, so each of the k²
    strided adds moves runs of channels; every pixel still receives its
    contributions in (ky, kx) order, starting from +0.0.  The result is
    an NCHW-shaped view of that buffer.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    cols = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            padded[:, ky:y_max:stride, kx:x_max:stride, :] += cols[..., ky, kx]
    return padded[:, padding : padding + h, padding : padding + w, :].transpose(0, 3, 1, 2)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    exp_x = np.exp(x[~pos])
    out[~pos] = exp_x / (1.0 + exp_x)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` with max-shift stabilisation."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


