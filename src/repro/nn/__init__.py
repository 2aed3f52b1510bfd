"""Minimal neural network substrate built on numpy: the edge student's layers.

This package replaces PyTorch for the purposes of the Shoggoth reproduction.
It provides the pieces the student detector and the paper's adaptive-training
design depend on:

* the student's layer modules (``Conv2d``, ``LeakyReLU``, ``MaxPool2d``)
  with explicit forward/backward passes (:mod:`repro.nn.layers`),
* Batch Normalization and Batch Renormalization (:mod:`repro.nn.norm`),
* mini-batch SGD with per-layer learning-rate scaling and freezing
  (:mod:`repro.nn.optim`),
* a :class:`~repro.nn.sequential.Sequential` container with a *cut point*
  API used to implement latent replay (feeding cached activations into the
  middle of the network),
* a compiled eval-mode forward pass with the norms folded into the convs
  (:mod:`repro.nn.plan`), which the deployed student runs per frame.

The detection loss is not here: it is
:meth:`repro.detection.student.StudentDetector.detection_loss`.
Everything operates on plain ``numpy.ndarray`` values in NCHW layout.
"""

from repro.nn.functional import im2col, col2im, sigmoid, softmax
from repro.nn.initializers import he_normal, zeros, constant
from repro.nn.layers import (
    Module,
    Parameter,
    Conv2d,
    LeakyReLU,
    MaxPool2d,
    Identity,
)
from repro.nn.norm import BatchNorm2d, BatchRenorm2d
from repro.nn.sequential import Sequential
from repro.nn.plan import EvalPlan
from repro.nn.optim import SGD

__all__ = [
    "im2col",
    "col2im",
    "sigmoid",
    "softmax",
    "he_normal",
    "zeros",
    "constant",
    "Module",
    "Parameter",
    "Conv2d",
    "LeakyReLU",
    "MaxPool2d",
    "Identity",
    "BatchNorm2d",
    "BatchRenorm2d",
    "Sequential",
    "EvalPlan",
    "SGD",
]
