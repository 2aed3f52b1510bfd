"""Sequential container with a cut-point API for latent replay.

The Shoggoth adaptive-training design (paper Sec. III-B, Fig. 3) stores
*activation volumes at a specific layer* ("Replay Layer") instead of raw
images, concatenates them with freshly computed activations of the current
batch at that layer, and continues the forward pass from there.  To support
this the container can:

* run the forward pass only up to a named layer (:meth:`forward_until`),
* run the forward pass from a named layer onwards (:meth:`forward_from`),
* run the backward pass only down to that layer (:meth:`backward_until`),

so the training loop can splice cached activations into the middle of the
network and optionally stop gradients at the replay layer.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.nn.layers import Conv2d, Module, Parameter

__all__ = ["Sequential"]


class Sequential(Module):
    """Ordered container of named layers executed one after the other."""

    def __init__(self, layers: Sequence[tuple[str, Module]] | None = None) -> None:
        super().__init__()
        self._names: list[str] = []
        self._layers: dict[str, Module] = {}
        for name, layer in layers or []:
            self.add(name, layer)

    # -- construction -----------------------------------------------------
    def add(self, name: str, layer: Module) -> "Sequential":
        """Append a named layer; names must be unique."""
        if name in self._layers:
            raise ValueError(f"duplicate layer name: {name!r}")
        if not isinstance(layer, Module):
            raise TypeError(f"layer {name!r} is not a Module")
        self._names.append(name)
        self._layers[name] = layer
        return self

    def copy(self) -> "Sequential":
        """A copy of every layer (see :meth:`Module.copy`), in the same order."""
        return Sequential([(name, layer.copy()) for name, layer in self.named_layers()])

    # -- introspection ------------------------------------------------------
    @property
    def layer_names(self) -> list[str]:
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __getitem__(self, name: str) -> Module:
        return self._layers[name]

    def __contains__(self, name: str) -> bool:
        return name in self._layers

    def children(self) -> Iterator[Module]:
        yield from (self._layers[name] for name in self._names)

    def named_layers(self) -> Iterator[tuple[str, Module]]:
        yield from ((name, self._layers[name]) for name in self._names)

    def index_of(self, name: str) -> int:
        """Position of a named layer in execution order."""
        try:
            return self._names.index(name)
        except ValueError:
            raise KeyError(f"no layer named {name!r}") from None

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for name in self._names:
            params.extend(self._layers[name].parameters())
        return params

    # -- split helpers ------------------------------------------------------
    def layers_before(self, cut: str) -> list[str]:
        """Names of layers strictly before ``cut`` (the "front" layers)."""
        return self._names[: self.index_of(cut)]

    # -- execution ----------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        for name in self._names:
            x = self._layers[name].forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray | None:
        """Backward through every layer; return the gradient w.r.t. the input.

        A first :class:`~repro.nn.layers.Conv2d` takes images, whose
        gradient nobody reads: it skips computing it, and None is
        returned.
        """
        return self._backward_through(self._names, grad)

    def forward_until(self, x: np.ndarray, cut: str) -> np.ndarray:
        """Run layers strictly before ``cut`` and return the activations."""
        stop = self.index_of(cut)
        for name in self._names[:stop]:
            x = self._layers[name].forward(x)
        return x

    def forward_from(self, x: np.ndarray, cut: str) -> np.ndarray:
        """Run layers from ``cut`` (inclusive) to the end."""
        start = self.index_of(cut)
        for name in self._names[start:]:
            x = self._layers[name].forward(x)
        return x

    def backward_from_end(self, grad: np.ndarray, cut: str) -> np.ndarray:
        """Backward through layers from the end down to ``cut`` (inclusive).

        Returns the gradient with respect to the activations entering ``cut``;
        front layers are untouched, which is how the extreme "front layers
        entirely frozen" case terminates the backward pass just before the
        replay layer (paper Sec. III-B).
        """
        start = self.index_of(cut)
        for name in reversed(self._names[start:]):
            grad = self._layers[name].backward(grad)
        return grad

    def backward_front(self, grad: np.ndarray, cut: str) -> np.ndarray | None:
        """Continue the backward pass through the front layers (before ``cut``).

        Returns what :meth:`backward` returns.
        """
        return self._backward_through(self._names[: self.index_of(cut)], grad)

    def _backward_through(self, names: list[str], grad: np.ndarray) -> np.ndarray | None:
        """Backward through ``names`` (in execution order), last first."""
        for name in reversed(names[1:]):
            grad = self._layers[name].backward(grad)
        if not names:
            return grad
        first = self._layers[names[0]]
        if isinstance(first, Conv2d):
            return first.backward(grad, input_grad=False)
        return first.backward(grad)
