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


class _BatchNormMixin:
    """Classic batch normalisation forward/backward (training mode)."""

    def _train_forward(self, flat: np.ndarray) -> np.ndarray:
        mean = flat.mean(axis=0)
        var = flat.var(axis=0)
        std = np.sqrt(var + self.eps)
        x_hat = (flat - mean) / std
        self._cache = {"x_hat": x_hat, "std": std}
        self._update_running(mean, var)
        return self.gamma.data * x_hat + self.beta.data

    def _train_backward(self, grad_flat: np.ndarray) -> np.ndarray:
        x_hat = self._cache["x_hat"]
        std = self._cache["std"]
        n = grad_flat.shape[0]
        self.gamma.grad += (grad_flat * x_hat).sum(axis=0)
        self.beta.grad += grad_flat.sum(axis=0)
        dx_hat = grad_flat * self.gamma.data
        return (
            dx_hat - dx_hat.mean(axis=0) - x_hat * (dx_hat * x_hat).mean(axis=0)
        ) / std if n > 1 else dx_hat / std


class _BatchRenormMixin:
    """Batch Renormalization (Ioffe 2017) forward/backward (training mode).

    Training-mode activations are corrected towards the running statistics via
    ``r`` and ``d``::

        x_hat = (x - mu_batch) / sigma_batch * r + d
        r = clip(sigma_batch / sigma_running, 1/r_max, r_max)
        d = clip((mu_batch - mu_running) / sigma_running, -d_max, d_max)

    ``r`` and ``d`` are treated as constants in the backward pass, exactly as
    in the original formulation (gradients are not propagated through the
    running statistics).
    """

    r_max = 3.0
    d_max = 5.0

    def _train_forward(self, flat: np.ndarray) -> np.ndarray:
        mean = flat.mean(axis=0)
        var = flat.var(axis=0)
        std = np.sqrt(var + self.eps)
        running_std = np.sqrt(self.running_var + self.eps)

        r = np.clip(std / running_std, 1.0 / self.r_max, self.r_max)
        d = np.clip((mean - self.running_mean) / running_std, -self.d_max, self.d_max)

        x_hat = (flat - mean) / std * r + d
        self._cache = {"std": std, "r": r, "x_hat_core": (flat - mean) / std}
        self._update_running(mean, var)
        return self.gamma.data * x_hat + self.beta.data

    def _train_backward(self, grad_flat: np.ndarray) -> np.ndarray:
        std = self._cache["std"]
        r = self._cache["r"]
        x_hat_core = self._cache["x_hat_core"]
        n = grad_flat.shape[0]
        x_hat = x_hat_core * r  # d is an additive constant; it vanishes in grads of x

        self.gamma.grad += (grad_flat * x_hat).sum(axis=0)
        self.beta.grad += grad_flat.sum(axis=0)

        dx_hat = grad_flat * self.gamma.data * r
        if n > 1:
            return (
                dx_hat
                - dx_hat.mean(axis=0)
                - x_hat_core * (dx_hat * x_hat_core).mean(axis=0)
            ) / std
        return dx_hat / std


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
