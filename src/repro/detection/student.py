"""Lightweight student detector that runs on the edge device.

This is the stand-in for the paper's YOLOv4 with ResNet18 backbone: a small
single-shot grid detector whose capacity is deliberately limited so that it
performs well on the domains it was (pre-)trained on and degrades under data
drift — the failure mode Shoggoth's adaptive online learning repairs.

The network is a named :class:`~repro.nn.Sequential`, which matters for the
replay-memory ablation (paper Table II): the replay layer can be attached at
the input, at the ``conv5_4`` analog, or at the penultimate ``pool`` layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.detection.boxes import Detections
from repro.detection.grid import CELL_CHANNELS, GridCodec, GridTargets
from repro.nn.functional import sigmoid, softmax
from repro.nn.plan import EvalPlan
from repro.video.domains import NUM_CLASSES

__all__ = ["StudentConfig", "StudentDetector"]


@dataclass(frozen=True)
class StudentConfig:
    """Architecture and inference hyper-parameters of the student."""

    image_size: int = 32
    grid_size: int = 8
    base_channels: int = 16
    norm: str = "brn"  # "brn" (Batch Renormalization, paper default) or "bn"
    conf_threshold: float = 0.5
    nms_iou: float = 0.45
    obj_loss_weight: float = 1.0
    cls_loss_weight: float = 1.0
    box_loss_weight: float = 2.0
    positive_obj_weight: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.image_size <= 0 or self.grid_size <= 0 or self.base_channels <= 0:
            raise ValueError("sizes must be positive")
        if self.image_size % self.grid_size != 0:
            raise ValueError("image_size must be a multiple of grid_size")
        if self.norm not in ("brn", "bn"):
            raise ValueError("norm must be 'brn' or 'bn'")
        if not 0.0 < self.conf_threshold < 1.0:
            raise ValueError("conf_threshold must be in (0, 1)")


class StudentDetector:
    """Grid-cell single-shot detector built on the numpy NN substrate."""

    #: Layer names at which the replay memory can legally be attached.
    REPLAY_LAYER_CHOICES = ("input", "conv5_4", "pool")

    def __init__(self, config: StudentConfig | None = None) -> None:
        self.config = config or StudentConfig()
        self.codec = GridCodec(self.config.grid_size)
        self.model = self._build_model()
        self._plan: EvalPlan | None = None

    # -- architecture -------------------------------------------------------
    def _norm2d(self, channels: int, name: str) -> nn.Module:
        if self.config.norm == "brn":
            return nn.BatchRenorm2d(channels, name=name)
        return nn.BatchNorm2d(channels, name=name)

    def _build_model(self) -> nn.Sequential:
        cfg = self.config
        c = cfg.base_channels
        rng = np.random.default_rng(cfg.seed)

        def next_rng() -> np.random.Generator:
            return np.random.default_rng(rng.integers(0, 2**31 - 1))

        # 32x32 -> pool1 -> 16x16 -> pool2 -> 8x8 (= default grid size)
        layers: list[tuple[str, nn.Module]] = [
            ("conv1", nn.Conv2d(3, c, 3, stride=1, padding=1, name="conv1", rng=next_rng())),
            ("norm1", self._norm2d(c, "norm1")),
            ("act1", nn.LeakyReLU(0.1)),
            ("pool1", nn.MaxPool2d(2)),
            ("conv2", nn.Conv2d(c, 2 * c, 3, stride=1, padding=1, name="conv2", rng=next_rng())),
            ("norm2", self._norm2d(2 * c, "norm2")),
            ("act2", nn.LeakyReLU(0.1)),
            ("pool2", nn.MaxPool2d(2)),
            ("conv3", nn.Conv2d(2 * c, 3 * c, 3, stride=1, padding=1, name="conv3", rng=next_rng())),
            ("norm3", self._norm2d(3 * c, "norm3")),
            ("act3", nn.LeakyReLU(0.1)),
            ("conv5_4", nn.Conv2d(3 * c, 4 * c, 3, stride=1, padding=1, name="conv5_4", rng=next_rng())),
            ("norm4", self._norm2d(4 * c, "norm4")),
            ("act4", nn.LeakyReLU(0.1)),
            # "pool" is the penultimate cut point the paper uses for replay
            ("pool", nn.Identity()),
            ("head_conv", nn.Conv2d(4 * c, 3 * c, 1, name="head_conv", rng=next_rng())),
            ("head_act", nn.LeakyReLU(0.1)),
            ("head_out", nn.Conv2d(3 * c, CELL_CHANNELS, 1, name="head_out", rng=next_rng())),
        ]
        return nn.Sequential(layers)

    # -- bookkeeping -------------------------------------------------------
    @property
    def grid_size(self) -> int:
        return self.config.grid_size

    @property
    def image_size(self) -> int:
        return self.config.image_size

    def num_parameters(self) -> int:
        return self.model.num_parameters()

    def layer_macs(self) -> dict[str, int]:
        """Approximate multiply-accumulate count per layer for one image.

        Used by the training cost model to attribute compute to the portions
        of the network before and after the replay layer (paper Table II).
        """
        size = self.config.image_size
        macs: dict[str, int] = {}
        for name, layer in self.model.named_layers():
            if isinstance(layer, nn.Conv2d):
                out_h, out_w = layer.output_shape(size, size)
                macs[name] = (
                    out_h * out_w * layer.kernel_size**2 * layer.in_channels * layer.out_channels
                )
                size = out_h  # square feature maps throughout
            elif isinstance(layer, nn.MaxPool2d):
                size = size // layer.kernel_size
                macs[name] = 0
            else:
                macs[name] = 0
        return macs

    def compute_fraction_before(self, layer_name: str) -> float:
        """Fraction of per-image compute spent strictly before ``layer_name``.

        ``"input"`` is accepted and returns 0.0 (nothing precedes the input).
        """
        if layer_name == "input":
            return 0.0
        macs = self.layer_macs()
        if layer_name not in macs:
            raise KeyError(f"unknown layer {layer_name!r}")
        total = sum(macs.values())
        if total == 0:
            return 0.0
        before = 0
        for name in self.model.layer_names:
            if name == layer_name:
                break
            before += macs[name]
        return before / total

    def state_dict(self) -> dict[str, np.ndarray]:
        return self.model.state_dict()

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.model.load_state_dict(state)

    def clone(self) -> "StudentDetector":
        """Deep copy (same config, copied weights); used by the AMS baseline."""
        other = StudentDetector(self.config)
        other.load_state_dict(self.state_dict())
        # copy normalisation running statistics too
        for (_, src), (_, dst) in zip(self.model.named_layers(), other.model.named_layers()):
            if hasattr(src, "running_mean"):
                dst.running_mean = src.running_mean.copy()
                dst.running_var = src.running_var.copy()
                dst.num_batches_tracked = src.num_batches_tracked
        return other

    def save(self, path: str) -> None:
        """Persist weights (and norm statistics) to an ``.npz`` file."""
        arrays = {f"param::{k}": v for k, v in self.state_dict().items()}
        for name, layer in self.model.named_layers():
            if hasattr(layer, "running_mean"):
                arrays[f"stat::{name}::mean"] = layer.running_mean
                arrays[f"stat::{name}::var"] = layer.running_var
        np.savez(path, **arrays)

    def load(self, path: str) -> None:
        """Load weights saved by :meth:`save`."""
        data = np.load(path)
        state = {
            key[len("param::"):]: data[key] for key in data.files if key.startswith("param::")
        }
        self.load_state_dict(state)
        for name, layer in self.model.named_layers():
            mean_key, var_key = f"stat::{name}::mean", f"stat::{name}::var"
            if hasattr(layer, "running_mean") and mean_key in data.files:
                layer.running_mean = data[mean_key].copy()
                layer.running_var = data[var_key].copy()

    # -- inference -----------------------------------------------------------
    def _check_images(self, images: np.ndarray) -> None:
        expected = (3, self.config.image_size, self.config.image_size)
        if images.ndim != 4 or images.shape[1:] != expected:
            raise ValueError(f"expected images of shape (N, {expected}), got {images.shape}")

    def _eval_mode(self) -> None:
        """Switch to eval mode unless already there.

        ``train()``/``eval()`` always switch the whole model, so the root's
        flag speaks for every layer and the tree walk can be skipped.
        """
        if self.model.training:
            self.model.eval()

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Raw output maps ``(N, CELL_CHANNELS, S, S)``, layer by layer."""
        self._check_images(images)
        return self.model.forward(images)

    def infer(self, images: np.ndarray) -> np.ndarray:
        """Raw output maps ``(N, CELL_CHANNELS, S, S)`` of the deployed model.

        Switches to eval mode and runs the compiled eval plan
        (:class:`~repro.nn.plan.EvalPlan`) on one image at a time, so an
        image's maps do not depend on its batch. The plan is rebuilt
        when a weight or normalisation statistic has been replaced
        since it was compiled. It folds the norms into the convs, so
        its maps differ from :meth:`forward`'s in the last bits.
        """
        self._check_images(images)
        self._eval_mode()
        if len(images) == 0:
            s = self.grid_size
            return np.empty((0, CELL_CHANNELS, s, s))
        if self._plan is None or not self._plan.is_current():
            self._plan = EvalPlan(self.model)
        return np.stack([self._plan.run(image) for image in images])

    def detect(self, image: np.ndarray, conf_threshold: float | None = None) -> Detections:
        """Run inference on a single CHW image and decode detections."""
        threshold = conf_threshold if conf_threshold is not None else self.config.conf_threshold
        output = self.infer(image[None])[0]
        return self.codec.decode(output, conf_threshold=threshold, nms_iou=self.config.nms_iou)

    def detect_batch(
        self, images: np.ndarray, conf_threshold: float | None = None
    ) -> list[Detections]:
        """Batched inference convenience used by evaluation code.

        ``detect_batch(images)[i]`` equals ``detect(images[i])``.
        """
        threshold = conf_threshold if conf_threshold is not None else self.config.conf_threshold
        outputs = self.infer(images)
        return [
            self.codec.decode(out, conf_threshold=threshold, nms_iou=self.config.nms_iou)
            for out in outputs
        ]

    # -- training loss --------------------------------------------------------
    def detection_loss(
        self, outputs: np.ndarray, targets: list[GridTargets]
    ) -> tuple[float, np.ndarray]:
        """Detection loss and its gradient w.r.t. the raw output maps.

        The loss combines objectness BCE (positives up-weighted to counter the
        background imbalance), softmax cross-entropy on positive cells and a
        box regression term (MSE on the sigmoid-activated centre offsets,
        smooth-L1 on the log width/height).
        """
        cfg = self.config
        n, channels, s, _ = outputs.shape
        if channels != CELL_CHANNELS or len(targets) != n:
            raise ValueError("outputs/targets shape mismatch")

        obj_target, cls_target, box_target = self.codec.targets_to_arrays(targets)
        grad = np.zeros_like(outputs)

        # ---- objectness -------------------------------------------------
        obj_logits = outputs[:, 0]
        obj_prob = sigmoid(obj_logits)
        weights = np.where(obj_target > 0.5, cfg.positive_obj_weight, 1.0)
        eps = 1e-12
        obj_loss = float(
            np.mean(
                -weights
                * (
                    obj_target * np.log(obj_prob + eps)
                    + (1 - obj_target) * np.log(1 - obj_prob + eps)
                )
            )
        )
        grad[:, 0] = cfg.obj_loss_weight * weights * (obj_prob - obj_target) / obj_target.size

        positives = obj_target > 0.5
        num_pos = int(positives.sum())

        cls_loss = 0.0
        box_loss = 0.0
        if num_pos > 0:
            # ---- classification on positive cells ------------------------
            cls_logits = outputs[:, 1 : 1 + NUM_CLASSES]
            pos_idx = np.where(positives)
            pos_logits = cls_logits[pos_idx[0], :, pos_idx[1], pos_idx[2]]
            pos_classes = cls_target[pos_idx]
            probs = softmax(pos_logits, axis=1)
            cls_loss = float(
                -np.mean(np.log(probs[np.arange(num_pos), pos_classes] + eps))
            )
            cls_grad = probs.copy()
            cls_grad[np.arange(num_pos), pos_classes] -= 1.0
            cls_grad *= cfg.cls_loss_weight / num_pos
            grad[pos_idx[0], 1 : 1 + NUM_CLASSES, pos_idx[1], pos_idx[2]] = cls_grad

            # ---- box regression on positive cells ------------------------
            box_raw = outputs[:, 1 + NUM_CLASSES :]
            pos_box_raw = box_raw[pos_idx[0], :, pos_idx[1], pos_idx[2]]  # (P, 4)
            pos_box_target = box_target[pos_idx]  # (P, 4)

            # centre offsets: sigmoid(pred) vs target in [0, 1)
            offset_prob = sigmoid(pos_box_raw[:, :2])
            offset_err = offset_prob - pos_box_target[:, :2]
            offset_loss = float(np.mean(offset_err**2))
            offset_grad = 2.0 * offset_err * offset_prob * (1 - offset_prob) / offset_err.size

            # width/height: smooth L1 on log scale
            wh_diff = pos_box_raw[:, 2:] - pos_box_target[:, 2:]
            abs_diff = np.abs(wh_diff)
            wh_loss = float(np.mean(np.where(abs_diff < 1.0, 0.5 * wh_diff**2, abs_diff - 0.5)))
            wh_grad = np.where(abs_diff < 1.0, wh_diff, np.sign(wh_diff)) / wh_diff.size

            box_loss = offset_loss + wh_loss
            box_grad = np.concatenate([offset_grad, wh_grad], axis=1) * cfg.box_loss_weight
            grad[pos_idx[0], 1 + NUM_CLASSES :, pos_idx[1], pos_idx[2]] = box_grad

        total = (
            cfg.obj_loss_weight * obj_loss
            + cfg.cls_loss_weight * cls_loss
            + cfg.box_loss_weight * box_loss
        )
        return float(total), grad
