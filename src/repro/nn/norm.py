"""Batch Normalization and Batch Renormalization layers.

The paper replaces BatchNorm with Batch Renormalization (Ioffe, 2017) in the
adapted student model because BRN "has been shown to be an effective way of
controlling internal covariate shift, hence making learning with fine-grained
batches faster and more robust" (Sec. III-B).  Both are provided so the
ablation benchmark can compare them under tiny mini-batches.

A second paper-relevant detail: during adaptive training the front layers are
frozen "while making the batch normalization (BN) moments adapt freely to the
input image statistics across all batches".  The normalisation layers
therefore keep updating their running statistics whenever they are run in
training mode, independently of whether their affine parameters are frozen.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Module, Parameter, ReadOnlyArray
from repro.nn import initializers as init

__all__ = ["BatchNorm2d", "BatchRenorm2d"]


class _BatchNormBase(Module):
    """Shared machinery for BN/BRN over NCHW inputs.

    The running statistics are stored read-only, like parameter values:
    an update assigns new arrays.
    """

    _training_state = ("_cache",)
    running_mean = ReadOnlyArray()
    running_var = ReadOnlyArray()

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.1,
        eps: float = 1e-5,
        name: str = "bn",
    ) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must be in (0, 1]")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.constant((num_features,), 1.0), name=f"{name}.gamma")
        self.beta = Parameter(init.zeros((num_features,)), name=f"{name}.beta")
        self.running_mean = np.zeros(num_features, dtype=np.float64)
        self.running_var = np.ones(num_features, dtype=np.float64)
        self.num_batches_tracked = 0
        self._cache: dict[str, np.ndarray] | None = None

    # -- shape helpers ---------------------------------------------------
    def _flatten(self, x: np.ndarray) -> np.ndarray:
        """Reshape input so that features sit on axis 1 and samples on axis 0."""
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"expected NCHW input with {self.num_features} channels, got {x.shape}"
            )
        return x.transpose(0, 2, 3, 1).reshape(-1, self.num_features)

    def _unflatten(self, flat: np.ndarray, original_shape: tuple[int, ...]) -> np.ndarray:
        n, c, h, w = original_shape
        return flat.reshape(n, h, w, c).transpose(0, 3, 1, 2)

    def _update_running(self, mean: np.ndarray, var: np.ndarray) -> None:
        m = self.momentum
        self.running_mean = (1 - m) * self.running_mean + m * mean
        self.running_var = (1 - m) * self.running_var + m * var
        self.num_batches_tracked += 1

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    # -- normalisation-specific hooks ------------------------------------
    def _train_forward(self, flat: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _train_backward(self, grad_flat: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- Module interface --------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        original_shape = x.shape
        flat = self._flatten(x)
        if self.training:
            if not len(flat):
                # the batch statistics of no samples are NaN
                raise ValueError("a training-mode forward needs at least one sample")
            out = self._train_forward(flat)
        else:
            # gamma * x_hat + beta of the running statistics, in place on
            # one buffer: the same products and sums, so the same bits
            out = flat - self.running_mean
            out /= np.sqrt(self.running_var + self.eps)
            out *= self.gamma.data
            out += self.beta.data
        return self._unflatten(out, original_shape)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward")
        original_shape = grad.shape
        dx = self._train_backward(self._flatten(grad))
        return self._unflatten(dx, original_shape)


def _centre(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch mean and variance of ``flat``: (mean, var, centred, scratch).

    ``flat.var(axis=0)`` is ``((flat - mean) ** 2).sum(axis=0) / n`` with
    ``flat.mean(axis=0)`` as the mean, so the centred values it builds
    are computed once and kept, with a scratch buffer of the same shape.
    """
    mean = flat.mean(axis=0)
    centred = flat - mean
    scratch = np.multiply(centred, centred)
    var = scratch.sum(axis=0) / len(flat)
    return mean, var, centred, scratch


def _input_grad(dx_hat: np.ndarray, x_hat: np.ndarray, std: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
    """``(dx_hat - mean(dx_hat) - x_hat * mean(dx_hat * x_hat)) / std``,
    overwriting ``dx_hat`` and ``scratch``; ``dx_hat / std`` for one row."""
    if len(dx_hat) > 1:
        mean_dx_hat = dx_hat.mean(axis=0)
        mean_product = np.multiply(dx_hat, x_hat, out=scratch).mean(axis=0)
        dx_hat -= mean_dx_hat
        dx_hat -= np.multiply(x_hat, mean_product, out=scratch)
    dx_hat /= std
    return dx_hat


class _BatchNormMixin:
    """Classic batch normalisation forward/backward (training mode).

    Both passes compute the same expressions as the textbook form, in
    the same order, on two full-size buffers instead of one per operation.
    """

    def _train_forward(self, flat: np.ndarray) -> np.ndarray:
        mean, var, x_hat, out = _centre(flat)
        std = np.sqrt(var + self.eps)
        x_hat /= std
        self._cache = {"x_hat": x_hat, "std": std}
        self._update_running(mean, var)
        # gamma * x_hat + beta
        np.multiply(x_hat, self.gamma.data, out=out)
        out += self.beta.data
        return out

    def _train_backward(self, grad_flat: np.ndarray) -> np.ndarray:
        x_hat = self._cache["x_hat"]
        scratch = np.multiply(grad_flat, x_hat)
        self.gamma.grad += scratch.sum(axis=0)
        self.beta.grad += grad_flat.sum(axis=0)
        dx_hat = np.multiply(grad_flat, self.gamma.data)
        return _input_grad(dx_hat, x_hat, self._cache["std"], scratch)


class _BatchRenormMixin:
    """Batch Renormalization (Ioffe 2017) forward/backward (training mode).

    Training-mode activations are corrected towards the running statistics via
    ``r`` and ``d``::

        x_hat = (x - mu_batch) / sigma_batch * r + d
        r = clip(sigma_batch / sigma_running, 1/r_max, r_max)
        d = clip((mu_batch - mu_running) / sigma_running, -d_max, d_max)

    ``r`` and ``d`` are treated as constants in the backward pass, exactly as
    in the original formulation (gradients are not propagated through the
    running statistics).  As in BatchNorm, both passes work in place on
    two full-size buffers.
    """

    r_max = 3.0
    d_max = 5.0

    def _train_forward(self, flat: np.ndarray) -> np.ndarray:
        mean, var, x_hat_core, out = _centre(flat)
        std = np.sqrt(var + self.eps)
        running_std = np.sqrt(self.running_var + self.eps)

        r = np.clip(std / running_std, 1.0 / self.r_max, self.r_max)
        d = np.clip((mean - self.running_mean) / running_std, -self.d_max, self.d_max)

        x_hat_core /= std
        self._cache = {"std": std, "r": r, "x_hat_core": x_hat_core}
        self._update_running(mean, var)
        # gamma * (x_hat_core * r + d) + beta
        np.multiply(x_hat_core, r, out=out)
        out += d
        out *= self.gamma.data
        out += self.beta.data
        return out

    def _train_backward(self, grad_flat: np.ndarray) -> np.ndarray:
        r = self._cache["r"]
        x_hat_core = self._cache["x_hat_core"]
        # d is an additive constant; it vanishes in grads of x
        scratch = np.multiply(x_hat_core, r)
        scratch *= grad_flat
        self.gamma.grad += scratch.sum(axis=0)
        self.beta.grad += grad_flat.sum(axis=0)

        dx_hat = np.multiply(grad_flat, self.gamma.data)
        dx_hat *= r
        return _input_grad(dx_hat, x_hat_core, self._cache["std"], scratch)


class BatchNorm2d(_BatchNormMixin, _BatchNormBase):
    """BatchNorm over NCHW activation volumes."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5,
                 name: str = "bn2d") -> None:
        super().__init__(num_features, momentum, eps, name=name)


class BatchRenorm2d(_BatchRenormMixin, _BatchNormBase):
    """Batch Renormalization over NCHW activation volumes."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5,
                 name: str = "brn2d") -> None:
        super().__init__(num_features, momentum, eps, name=name)
