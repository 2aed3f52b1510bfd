"""Weight initialisation schemes for the NN substrate."""

from __future__ import annotations

import numpy as np

__all__ = ["he_normal", "zeros", "constant"]


def he_normal(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """Kaiming/He normal initialisation suited to rectifier (LeakyReLU) networks."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros initialisation (biases, norm shifts)."""
    return np.zeros(shape, dtype=np.float64)


def constant(shape: tuple[int, ...], value: float) -> np.ndarray:
    """Constant initialisation (e.g. norm scales at 1.0)."""
    return np.full(shape, float(value), dtype=np.float64)
