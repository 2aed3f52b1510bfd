"""Layer modules with explicit forward/backward passes.

Each :class:`Module` caches whatever it needs from the forward pass and
consumes it in :meth:`Module.backward`.  Gradients are accumulated into
``Parameter.grad`` and applied by an optimizer from :mod:`repro.nn.optim`.
In eval mode the layers the student runs per frame (``Conv2d``,
``LeakyReLU``, ``MaxPool2d`` and the normalisation layers) keep no
backward state (``eval()`` drops what a training forward left) and take
the cheapest kernel that gives the same bits.

The design intentionally mirrors a small subset of the PyTorch module API
(``parameters()``, ``train()``/``eval()``, named modules) so that the
Shoggoth adaptive-training code reads like the system described in the paper.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn import functional as F
from repro.nn import initializers as init

__all__ = [
    "Parameter",
    "Module",
    "Conv2d",
    "LeakyReLU",
    "MaxPool2d",
    "Identity",
]


class ReadOnlyArray:
    """An attribute that stores a read-only float64 view of what is assigned.

    A writer replaces the array instead of writing into it, so a
    compiled eval plan (see :mod:`repro.nn.plan`) can tell by identity
    that it went stale. The array the caller assigned stays writeable.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self._slot = f"_{name}"

    def __get__(self, obj: object, owner: type | None = None) -> np.ndarray:
        return self if obj is None else getattr(obj, self._slot)

    def __set__(self, obj: object, value: np.ndarray) -> None:
        view = np.asarray(value, dtype=np.float64).view()
        view.flags.writeable = False
        setattr(obj, self._slot, view)


class Parameter:
    """A trainable tensor: value, accumulated gradient and metadata.

    ``lr_scale`` implements the paper's "decrease the learning rate of all
    layers before the replay layer" rule without having to rebuild optimizer
    state: the optimizer multiplies its learning rate by this factor.
    Setting ``trainable = False`` freezes the parameter entirely.

    The gradient buffer is allocated as zeros on its first read, so a
    copy of a model that never trains holds none.

    ``data`` is a :class:`ReadOnlyArray`: a writer assigns a new array.
    """

    data = ReadOnlyArray()

    def __init__(self, data: np.ndarray, name: str = "param") -> None:
        self.data = data
        self._grad: np.ndarray | None = None
        self.name = name
        self.trainable = True
        self.lr_scale = 1.0

    @property
    def grad(self) -> np.ndarray:
        """The accumulated gradient (zeros until a backward pass adds to it)."""
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for all layers and containers."""

    #: attributes holding what a training-mode forward keeps for the
    #: backward pass; :meth:`eval` sets them to None
    _training_state: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.training = True

    # -- interface -------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        """All parameters owned by this module (and children, for containers)."""
        return []

    # -- conveniences ----------------------------------------------------
    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def train(self) -> "Module":
        self.training = True
        for child in self.children():
            child.train()
        return self

    def eval(self) -> "Module":
        """Switch to eval mode and release the backward pass's state.

        A backward pass after ``eval()`` raises, as it does after an
        eval-mode forward.
        """
        self.training = False
        for attr in self._training_state:
            setattr(self, attr, None)
        for child in self.children():
            child.eval()
        return self

    def copy(self) -> "Module":
        """A copy that shares this module's weights and statistics.

        They are read-only (a writer on either side assigns a new array),
        so nothing is drawn or copied. Like a newly built module, the copy
        is in training mode and holds no backward state, and its
        parameters are new objects: trainable, at learning-rate scale 1.0,
        with no gradient. A container copies its layers
        (:meth:`Sequential.copy <repro.nn.Sequential.copy>`).
        """
        dup = object.__new__(type(self))
        for attr, value in self.__dict__.items():
            if isinstance(value, Parameter):
                value = Parameter(value.data, name=value.name)
            dup.__dict__[attr] = value
        dup.training = True
        for attr in self._training_state:
            setattr(dup, attr, None)
        return dup

    def children(self) -> Iterator["Module"]:
        """Direct sub-modules, including ones stored in list/tuple attributes."""
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar weights in the module."""
        return sum(p.size for p in self.parameters())

    def freeze(self) -> "Module":
        """Mark every parameter as non-trainable."""
        for param in self.parameters():
            param.trainable = False
        return self

    def set_lr_scale(self, scale: float) -> "Module":
        """Scale the learning rate of every parameter in this module."""
        if scale < 0:
            raise ValueError("lr scale must be non-negative")
        for param in self.parameters():
            param.lr_scale = float(scale)
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter value.

        Keys combine the parameter's position in :meth:`parameters` order with
        its name, so models that reuse default layer names still round-trip.
        """
        return {
            f"{index}:{param.name}": param.data.copy()
            for index, param in enumerate(self.parameters())
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values produced by :meth:`state_dict`."""
        params = {
            f"{index}:{param.name}": param
            for index, param in enumerate(self.parameters())
        }
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in params.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {param.data.shape} vs {state[name].shape}"
                )
            param.data = np.asarray(state[name], dtype=np.float64).copy()


class Conv2d(Module):
    """2-D convolution over NCHW inputs implemented with im2col."""

    _training_state = ("_cache_cols", "_cache_shape")

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        name: str = "conv",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("invalid convolution geometry")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            init.he_normal(
                (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng
            ),
            name=f"{name}.weight",
        )
        self.bias = (
            Parameter(init.zeros((out_channels,)), name=f"{name}.bias") if bias else None
        )
        self._cache_cols: np.ndarray | None = None
        self._cache_shape: tuple[int, int, int, int] | None = None

    def output_shape(self, h: int, w: int) -> tuple[int, int]:
        """Spatial output size for an ``h x w`` input."""
        out_h = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return out_h, out_w

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected NCHW input with {self.in_channels} channels, got {x.shape}"
            )
        n, _, h, w = x.shape
        out_h, out_w = self.output_shape(h, w)
        cols = F.im2col(x, self.kernel_size, self.kernel_size, self.stride, self.padding)
        if self.training:
            self._cache_cols, self._cache_shape = cols, x.shape
        w_flat = self.weight.data.reshape(self.out_channels, -1)
        out = cols @ w_flat.T
        if self.bias is not None:
            out += self.bias.data
        return out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(
        self, grad: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        """Accumulate the weight and bias gradients; return the input's.

        ``input_grad=False`` skips the input gradient (a product and a
        ``col2im``) and returns None: a model's first layer, whose
        input gradient nobody reads.
        """
        if self._cache_cols is None or self._cache_shape is None:
            raise RuntimeError("backward called before a training-mode forward")
        grad_flat = grad.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)

        self.weight.grad += (grad_flat.T @ self._cache_cols).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad_flat.sum(axis=0)
        if not input_grad:
            return None

        w_flat = self.weight.data.reshape(self.out_channels, -1)
        grad_cols = grad_flat @ w_flat
        return F.col2im(
            grad_cols,
            self._cache_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params


class LeakyReLU(Module):
    """Leaky rectifier with a negative slope in [0, 1]."""

    _training_state = ("_mask",)

    def __init__(self, negative_slope: float = 0.1) -> None:
        super().__init__()
        if not 0.0 <= negative_slope <= 1.0:
            raise ValueError("negative_slope must be in [0, 1]")
        self.negative_slope = negative_slope
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        s = self.negative_slope
        if self.training:
            self._mask = x > 0
        if s == 0.0:
            # 0 * inf is NaN, so the max below would turn +inf into NaN
            return np.where(x > 0, x, s * x)
        # for 0 < s <= 1, s*x <= x when x >= 0 and s*x >= x when x <= 0,
        # and np.maximum returns x itself for a NaN x: the same bits as
        # the masked select, ±0 included
        out = np.multiply(x, s)
        return np.maximum(x, out, out=out)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """``where(x > 0, grad, s * grad)`` as one product, ``grad * factor``.

        The factor is ``(x > 0) * (1 - s) + s``: ``s`` where the mask is
        off, and where it is on ``(1 - s) + s``, which rounds to exactly
        1.0 for every s in [0, 1]. Multiplying by 1.0 or s gives the
        select's bits (IEEE products commute), ±0, ±inf and NaN included.
        """
        if self._mask is None:
            raise RuntimeError("backward called before a training-mode forward")
        s = self.negative_slope
        factor = np.multiply(self._mask, 1.0 - s)
        factor += s
        return np.multiply(grad, factor, out=factor)


def _maximum_keeps_the_second_on_ties() -> bool:
    """Whether ``np.maximum(a, b)`` returns ``b`` where ``a == b``.

    For NaN-free operands it then equals ``where(a > b, a, b)`` bit for
    bit, ±0 included: x86's ``maxpd`` behaves so, ARM's ``fmax``
    prefers +0. Checked on both zero orders, at a length with a SIMD
    body and a scalar tail.
    """
    plus, minus = np.zeros(35), np.full(35, -0.0)
    return bool(np.signbit(np.maximum(plus, minus)).all()
                and not np.signbit(np.maximum(minus, plus)).any())


_MAXIMUM_KEEPS_SECOND = _maximum_keeps_the_second_on_ties()


class MaxPool2d(Module):
    """Max pooling over non-overlapping (or strided) windows of NCHW inputs.

    Windows that tile the input take a tournament over the k² strided
    window slices (:meth:`_tournament`); overlapping or partial windows,
    and input that holds a NaN, take ``argmax`` over one column per
    window.
    """

    _training_state = ("_cache",)

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._cache: tuple[np.ndarray, tuple[int, ...] | None, tuple[int, ...]] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_h = F.conv_output_size(h, k, s, 0)
        out_w = F.conv_output_size(w, k, s, 0)
        tiles = k == s and h % k == 0 and w % k == 0
        # NaN windows take the argmax path; initial= allows an empty batch
        if tiles and not np.isnan(x.max(initial=-np.inf)):
            out, index = self._tournament(x)
            if self.training:
                self._cache = (index, None, x.shape)
                return out
            return np.ascontiguousarray(out)
        if tiles:
            # non-overlapping windows that tile the input: the same rows
            # and window order as im2col, from a reshape and one copy
            cols = (
                x.reshape(n, c, out_h, k, out_w, k)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(-1, k * k)
            )
        else:
            cols = F.im2col(x.reshape(n * c, 1, h, w), k, k, s, 0)
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        if self.training:
            self._cache = (argmax, cols.shape, x.shape)
        return out.reshape(n, c, out_h, out_w)

    def _tournament(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Max over the k² strided slices of tiling windows, and in
        training mode the window position it came from.

        A slice replaces the running maximum only where it is strictly
        greater, so for NaN-free input the first maximum in window order
        wins, as with ``argmax``: ties and ±0 give the same bits, and
        the position is ``argmax``'s. The maximum keeps the input's
        memory order.
        """
        k = self.kernel_size
        out = x[:, :, ::k, ::k].copy(order="K")
        index = greater = None
        if self.training:
            index = np.zeros_like(out, dtype=np.min_scalar_type(k * k - 1))
            greater = np.empty_like(out, dtype=bool)
        for j in range(1, k * k):
            window = x[:, :, j // k :: k, j % k :: k]
            if index is not None:
                np.greater(window, out, out=greater)
                # positions only grow, so the last greater slice wins
                np.maximum(index, greater * index.dtype.type(j), out=index)
            if _MAXIMUM_KEEPS_SECOND:
                np.maximum(window, out, out=out)
            else:
                out = np.where(window > out, window, out)
        return out, index

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward")
        index, cols_shape, x_shape = self._cache
        if cols_shape is None:  # the tournament's window positions
            return self._tournament_backward(grad, index, x_shape)
        n, c, h, w = x_shape
        k, s = self.kernel_size, self.stride
        grad_cols = np.zeros(cols_shape, dtype=np.float64)
        grad_cols[np.arange(grad_cols.shape[0]), index] = grad.reshape(-1)
        dx = F.col2im(grad_cols, (n * c, 1, h, w), k, k, s, 0)
        return dx.reshape(n, c, h, w)

    def _tournament_backward(
        self, grad: np.ndarray, index: np.ndarray, x_shape: tuple[int, ...]
    ) -> np.ndarray:
        """Each window position gets the gradient where it won, else +0.0.

        The windows tile the input, so every input pixel is written once,
        from ``grad + 0.0``: the sum into zeros of ``col2im``, which
        turns -0.0 into +0.0. The select is a bitwise AND with an
        all-ones or all-zeros mask, exact for every value. The result is
        an NCHW-shaped view of channels-last memory.
        """
        n, c, h, w = x_shape
        k = self.kernel_size
        bits = np.add(grad, 0.0, dtype=np.float64).view(np.int64)
        dx = np.empty((n, h, w, c)).transpose(0, 3, 1, 2)
        mask = np.empty_like(bits)
        for j in range(k * k):
            # True -> -1, all bits set; False -> 0
            np.negative(np.equal(index, j).view(np.int8), out=mask)
            np.bitwise_and(bits, mask, out=dx[:, :, j // k :: k, j % k :: k].view(np.int64))
        return dx


class Identity(Module):
    """Pass-through layer; useful as a named cut point in Sequential models."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad
