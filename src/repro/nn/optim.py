"""Mini-batch SGD with momentum, weight decay and per-parameter LR scaling.

The Shoggoth training-control rules (paper Sec. III-B) map onto this
optimizer directly:

* "decrease the learning rate of all layers before the replay layer" —
  ``Parameter.lr_scale`` multiplied into the step;
* "freeze the weights by adjusting the learning rate to 0 after first batch" —
  ``Parameter.trainable = False`` (or ``lr_scale = 0``) skips the update
  while BN/BRN running statistics keep adapting.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Parameter

__all__ = ["SGD"]


class SGD:
    """Stochastic gradient descent over one list of parameters."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        max_grad_norm: float | None = None,
    ) -> None:
        if lr < 0:
            raise ValueError("learning rate must be non-negative")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight decay must be non-negative")
        self.parameters = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        self._velocities: dict[int, np.ndarray] = {}

    # -- optimisation ------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def grad_norm(self) -> float:
        """Global L2 norm over every trainable parameter gradient."""
        total = 0.0
        for param in self.parameters:
            if param.trainable:
                total += float(np.sum(param.grad**2))
        return float(np.sqrt(total))

    def _clip_gradients(self) -> None:
        if self.max_grad_norm is None:
            return
        norm = self.grad_norm()
        if norm > self.max_grad_norm and norm > 0:
            scale = self.max_grad_norm / norm
            for param in self.parameters:
                if param.trainable:
                    param.grad *= scale

    def step(self) -> None:
        """Apply one SGD update using the currently accumulated gradients."""
        self._clip_gradients()
        for param in self.parameters:
            if not param.trainable or param.lr_scale == 0.0:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            lr = self.lr * param.lr_scale
            if self.momentum:
                vel = self._velocities.get(id(param))
                if vel is None:
                    vel = np.zeros_like(param.data)
                vel = self.momentum * vel - lr * grad
                self._velocities[id(param)] = vel
                param.data = param.data + vel
            else:
                param.data = param.data - lr * grad
