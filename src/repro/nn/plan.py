"""A compiled eval-mode forward pass of a conv/norm/activation/pool model.

:class:`EvalPlan` turns a :class:`~repro.nn.sequential.Sequential` of
stages ``Conv2d [norm] [LeakyReLU] [MaxPool2d]`` (``Identity`` layers
are skipped) into a few NumPy calls per stage, for one image at a time:

* each normalisation layer's eval affine is folded into the conv before
  it: ``scale = gamma / sqrt(var + eps)``, ``W' = W * scale`` and
  ``b' = (b - mean) * scale + beta``;
* where a ``k x k`` max-pool follows ``LeakyReLU``, the activation runs
  after the pool, on ``1/k**2`` of the values. Its slope lies in [0, 1],
  so it is non-decreasing (in floating point too) and commutes with a
  maximum;
* activations stay channels-last ``(H, W, C)``: a 3x3 im2col is one
  ``as_strided`` view copied by a reshape, a 1x1 conv a plain product,
  and a pool a reshape and pairwise maxima.

Folding moves the last bits of the output, so the plan is not exact:
``tests/detection/test_eval_plan.py`` bounds its distance from the
layer-by-layer path. Training and every layer-by-layer forward are
untouched.

A plan records weak references to the arrays it was compiled from: the
parameter values and the normalisation statistics. Every writer
replaces those arrays instead of writing into them (they are stored
read-only), so :meth:`EvalPlan.is_current` is an identity check, and a
plan keeps no replaced weights alive.
"""

from __future__ import annotations

import functools
import weakref
from typing import NamedTuple

import numpy as np

from repro.nn.layers import Conv2d, Identity, LeakyReLU, MaxPool2d, Module
from repro.nn.norm import BatchNorm2d, BatchRenorm2d
from repro.nn.sequential import Sequential

__all__ = ["EvalPlan"]


class _Stage(NamedTuple):
    """One folded conv, then an optional max-pool, then an optional activation."""

    weight: np.ndarray  # (k * k * in_channels, out_channels), rows in (ky, kx, c) order
    bias: np.ndarray
    kernel: int
    stride: int
    padding: int
    pool: int | None
    act: LeakyReLU | None


class EvalPlan:
    """The eval-mode forward of ``model``, compiled from its current weights.

    Raises ``ValueError`` if the model is not a sequence of
    ``Conv2d [BatchNorm2d|BatchRenorm2d] [LeakyReLU] [MaxPool2d]``
    stages with tiling pools.
    """

    def __init__(self, model: Sequential) -> None:
        self._sources: list[tuple[object, str, weakref.ref]] = []
        self._stages: list[_Stage] = []
        layers = [
            (name, layer) for name, layer in model.named_layers()
            if not isinstance(layer, Identity)
        ]
        i = 0
        while i < len(layers):
            name, conv = layers[i]
            if not isinstance(conv, Conv2d):
                raise ValueError(f"layer {name!r} does not start a conv stage")
            i += 1
            norm = pool = act = None
            if i < len(layers) and isinstance(layers[i][1], (BatchNorm2d, BatchRenorm2d)):
                norm = layers[i][1]
                i += 1
            if i < len(layers) and isinstance(layers[i][1], LeakyReLU):
                act = layers[i][1]
                i += 1
            if i < len(layers) and isinstance(layers[i][1], MaxPool2d):
                pool = layers[i][1]
                if pool.kernel_size != pool.stride:
                    raise ValueError(f"pool after {name!r} does not tile its input")
                i += 1
            self._stages.append(self._fold(conv, norm, act, pool))

    def _track(self, owner: object, attr: str) -> np.ndarray:
        array = getattr(owner, attr)
        self._sources.append((owner, attr, weakref.ref(array)))
        return array

    def _fold(
        self,
        conv: Conv2d,
        norm: Module | None,
        act: LeakyReLU | None,
        pool: MaxPool2d | None,
    ) -> _Stage:
        weight = self._track(conv.weight, "data")
        if conv.bias is not None:
            bias = self._track(conv.bias, "data")
        else:
            bias = np.zeros(conv.out_channels)
        if norm is not None:
            mean = self._track(norm, "running_mean")
            var = self._track(norm, "running_var")
            gamma = self._track(norm.gamma, "data")
            beta = self._track(norm.beta, "data")
            scale = gamma / np.sqrt(var + norm.eps)
            weight = weight * scale[:, None, None, None]
            bias = (bias - mean) * scale + beta
        k = conv.kernel_size
        return _Stage(
            weight=np.array(
                weight.transpose(2, 3, 1, 0).reshape(k * k * conv.in_channels, -1), order="C"
            ),
            bias=np.array(bias),
            kernel=k,
            stride=conv.stride,
            padding=conv.padding,
            pool=None if pool is None else pool.kernel_size,
            act=act,
        )

    def is_current(self) -> bool:
        """Whether every array the plan was compiled from is still in place."""
        return all(getattr(owner, attr) is ref() for owner, attr, ref in self._sources)

    def run(self, image: np.ndarray) -> np.ndarray:
        """Output map ``(C, H, W)`` of one ``(C, H, W)`` input."""
        x = image.transpose(1, 2, 0)
        for stage in self._stages:
            x = _conv(x, stage)
            if stage.pool is not None:
                x = _max_pool(x, stage.pool)
            if stage.act is not None:
                x = stage.act.forward(x)  # eval mode: elementwise, keeps no mask
        return x.transpose(2, 0, 1)


def _conv(x: np.ndarray, stage: _Stage) -> np.ndarray:
    """Channels-last convolution of one ``(H, W, C)`` input."""
    h, w, c = x.shape
    k, s, p = stage.kernel, stage.stride, stage.padding
    if p:
        padded = np.zeros((h + 2 * p, w + 2 * p, c))
        padded[p : p + h, p : p + w] = x
        x = padded
    oh = (x.shape[0] - k) // s + 1
    ow = (x.shape[1] - k) // s + 1
    if k == s == 1:
        cols = x.reshape(-1, c)
    else:
        sh, sw, sc = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x, shape=(oh, ow, k, k, c), strides=(s * sh, s * sw, sh, sw, sc),
            writeable=False,
        )
        cols = windows.reshape(oh * ow, k * k * c)
    out = cols @ stage.weight
    out += stage.bias
    return out.reshape(oh, ow, -1)


def _max_pool(x: np.ndarray, k: int) -> np.ndarray:
    """``k x k`` max-pool with stride ``k`` of one ``(H, W, C)`` input.

    A reshape and ``k - 1`` maxima over rows, then over columns: four
    times faster than ``max(axis=(1, 3))`` over the 5-D reshape.
    """
    h, w, c = x.shape
    oh, ow = h // k, w // k
    rows = x[: oh * k, : ow * k].reshape(oh, k, ow * k * c)
    rows = functools.reduce(np.maximum, (rows[:, i] for i in range(k)))
    cols = rows.reshape(oh, ow, k * c)
    return functools.reduce(np.maximum, (cols[:, :, j * c : (j + 1) * c] for j in range(k)))
