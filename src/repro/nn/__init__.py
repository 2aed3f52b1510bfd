"""Minimal-but-complete neural network substrate built on numpy.

This package replaces PyTorch for the purposes of the Shoggoth reproduction.
It provides the pieces the paper's adaptive-training design depends on:

* layer modules with explicit forward/backward passes (:mod:`repro.nn.layers`),
* Batch Normalization and Batch Renormalization (:mod:`repro.nn.norm`),
* mini-batch SGD with per-layer learning-rate scaling and freezing
  (:mod:`repro.nn.optim`),
* classification / regression losses used by the detection heads
  (:mod:`repro.nn.losses`),
* a :class:`~repro.nn.sequential.Sequential` container with a *cut point*
  API used to implement latent replay (feeding cached activations into the
  middle of the network),
* a compiled eval-mode forward pass with the norms folded into the convs
  (:mod:`repro.nn.plan`), which the deployed student runs per frame.

Everything operates on plain ``numpy.ndarray`` values in NCHW layout for
image-shaped tensors and ``(N, F)`` for flat features.
"""

from repro.nn.functional import (
    im2col,
    col2im,
    sigmoid,
    softmax,
    log_softmax,
    relu,
    one_hot,
)
from repro.nn.initializers import he_normal, xavier_uniform, zeros, constant
from repro.nn.layers import (
    Module,
    Parameter,
    Linear,
    Conv2d,
    ReLU,
    LeakyReLU,
    Sigmoid,
    Tanh,
    MaxPool2d,
    AvgPool2d,
    GlobalAvgPool2d,
    Flatten,
    Dropout,
    Identity,
)
from repro.nn.norm import BatchNorm1d, BatchNorm2d, BatchRenorm1d, BatchRenorm2d
from repro.nn.sequential import Sequential
from repro.nn.plan import EvalPlan
from repro.nn.losses import (
    Loss,
    MSELoss,
    BCEWithLogitsLoss,
    CrossEntropyLoss,
    SmoothL1Loss,
    FocalLoss,
)
from repro.nn.optim import SGD, ParamGroup

__all__ = [
    "im2col",
    "col2im",
    "sigmoid",
    "softmax",
    "log_softmax",
    "relu",
    "one_hot",
    "he_normal",
    "xavier_uniform",
    "zeros",
    "constant",
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Identity",
    "BatchNorm1d",
    "BatchNorm2d",
    "BatchRenorm1d",
    "BatchRenorm2d",
    "Sequential",
    "EvalPlan",
    "Loss",
    "MSELoss",
    "BCEWithLogitsLoss",
    "CrossEntropyLoss",
    "SmoothL1Loss",
    "FocalLoss",
    "SGD",
    "ParamGroup",
]
