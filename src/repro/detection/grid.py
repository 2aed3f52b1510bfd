"""Grid-cell target codec for the single-shot student detector.

The student divides the image into an ``S x S`` grid (YOLO-style).  The cell
containing an object's centre is responsible for predicting it.  Each cell
predicts:

* 1 objectness logit,
* ``NUM_CLASSES`` class logits,
* 4 box values: centre offsets within the cell (sigmoid-activated) and
  width/height as log-scale factors of the cell size.

The codec converts between ground-truth box lists and the dense target
tensors used by the training loss, and decodes raw network output maps into
:class:`~repro.detection.boxes.Detections`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Sequence

import numpy as np

from repro.detection.boxes import Detection, Detections, nms_keep
from repro.nn.functional import sigmoid
from repro.video.domains import NUM_CLASSES
from repro.video.scene import GroundTruthBox

__all__ = ["GridTargets", "GridCodec"]

#: Channels per grid cell: objectness + classes + (dx, dy, log w, log h).
CELL_CHANNELS = 1 + NUM_CLASSES + 4


@dataclass(frozen=True)
class GridTargets:
    """Dense training targets for one image.

    Attributes
    ----------
    objectness:
        ``(S, S)`` array of 0/1 flags.
    class_ids:
        ``(S, S)`` integer array; only meaningful where objectness is 1.
    boxes:
        ``(S, S, 4)`` array of (dx, dy, log_w, log_h) regression targets.
    """

    objectness: np.ndarray
    class_ids: np.ndarray
    boxes: np.ndarray

    @property
    def num_positives(self) -> int:
        return int(self.objectness.sum())


class GridCodec:
    """Encode GT boxes to grid targets and decode output maps to detections."""

    def __init__(self, grid_size: int = 8) -> None:
        if grid_size <= 0:
            raise ValueError("grid_size must be positive")
        self.grid_size = grid_size

    # -- encoding -----------------------------------------------------------
    def encode(
        self, boxes: Sequence[GroundTruthBox] | Sequence[Detection] | Detections
    ) -> GridTargets:
        """Build dense targets from ground-truth boxes or pseudo-label detections."""
        s = self.grid_size
        objectness = np.zeros((s, s), dtype=np.float64)
        class_ids = np.zeros((s, s), dtype=np.int64)
        box_targets = np.zeros((s, s, 4), dtype=np.float64)

        for box in boxes:
            if not (0.0 <= box.cx <= 1.0 and 0.0 <= box.cy <= 1.0):
                continue  # centre outside the frame: not this grid's responsibility
            col = min(s - 1, int(box.cx * s))
            row = min(s - 1, int(box.cy * s))
            # if two objects land in the same cell, keep the larger one
            if objectness[row, col] and (
                box.w * box.h <= np.exp(box_targets[row, col, 2]) / s * np.exp(box_targets[row, col, 3]) / s
            ):
                continue
            objectness[row, col] = 1.0
            class_ids[row, col] = box.class_id
            dx = box.cx * s - col
            dy = box.cy * s - row
            box_targets[row, col] = (
                dx,
                dy,
                np.log(max(1e-6, box.w * s)),
                np.log(max(1e-6, box.h * s)),
            )
        return GridTargets(objectness, class_ids, box_targets)

    def encode_batch(
        self,
        boxes_per_image: Sequence[Sequence[GroundTruthBox] | Sequence[Detection] | Detections],
    ) -> list[GridTargets]:
        """Encode a batch of images' boxes."""
        return [self.encode(boxes) for boxes in boxes_per_image]

    # -- decoding -----------------------------------------------------------
    def decode(
        self,
        output_map: np.ndarray,
        conf_threshold: float = 0.5,
        nms_iou: float = 0.45,
        max_detections: int = 20,
    ) -> Detections:
        """Convert one raw output map ``(CELL_CHANNELS, S, S)`` into detections."""
        s = self.grid_size
        if output_map.shape != (CELL_CHANNELS, s, s):
            raise ValueError(
                f"expected output map of shape {(CELL_CHANNELS, s, s)}, got {output_map.shape}"
            )
        obj_prob = sigmoid(output_map[0])
        # every candidate cell at once, in the row-major order np.where
        # yields; elementwise ufuncs give each cell the bits a per-cell
        # scalar computation would, and the class-axis reductions of the
        # softmax add the same terms in the same order as over the grid
        rows, cols = np.where(obj_prob >= conf_threshold)
        class_logits = output_map[1 : 1 + NUM_CLASSES, rows, cols]
        shifted = class_logits - class_logits.max(axis=0, keepdims=True)
        class_prob = np.exp(shifted)
        class_prob /= class_prob.sum(axis=0, keepdims=True)
        class_ids = class_prob.argmax(axis=0)
        scores = obj_prob[rows, cols] * class_prob[class_ids, np.arange(rows.size)]
        cells = output_map[1 + NUM_CLASSES :, rows, cols]
        offsets = sigmoid(cells[:2])
        sizes = np.exp(np.clip(cells[2:], -6.0, 3.0)) / s

        # a handful of candidates a frame: filtering and NMS cost less in
        # Python, over one tolist() per column, than NumPy calls would.
        # The comparisons are written so that NaN fails them: a non-finite
        # class logit makes the softmax NaN, and a NaN box channel a NaN
        # centre or size, and such a candidate is dropped.  The size is
        # clipped, and the score is a product of two probabilities, so
        # neither can be infinite or above 1.
        floor = conf_threshold * 0.5
        candidates = [
            (class_id, cx, cy, w, h, score)
            for class_id, cx, cy, w, h, score in zip(
                class_ids.tolist(),
                ((cols + offsets[0]) / s).tolist(),
                ((rows + offsets[1]) / s).tolist(),
                sizes[0].tolist(),
                sizes[1].tolist(),
                scores.tolist(),
            )
            if score >= floor and w > 0 and h > 0 and isfinite(cx) and isfinite(cy)
        ]
        keep = nms_keep(candidates, nms_iou)[:max_detections]
        return Detections.from_rows([candidates[i] for i in keep])

    # -- raw target helpers used by the loss -------------------------------
    def targets_to_arrays(
        self, targets: list[GridTargets]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stack per-image targets into batch arrays (obj, classes, boxes)."""
        obj = np.stack([t.objectness for t in targets])
        cls = np.stack([t.class_ids for t in targets])
        boxes = np.stack([t.boxes for t in targets])
        return obj, cls, boxes
