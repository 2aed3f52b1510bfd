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
:class:`~repro.detection.boxes.Detection` lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.boxes import Detection, nms
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
    def encode(self, boxes: list[GroundTruthBox] | tuple[GroundTruthBox, ...]) -> GridTargets:
        """Build dense targets from a list of ground-truth (or pseudo-label) boxes."""
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
        self, boxes_per_image: list[list[GroundTruthBox]] | list[tuple[GroundTruthBox, ...]]
    ) -> list[GridTargets]:
        """Encode a batch of images' boxes."""
        return [self.encode(list(boxes)) for boxes in boxes_per_image]

    # -- decoding -----------------------------------------------------------
    def decode(
        self,
        output_map: np.ndarray,
        conf_threshold: float = 0.5,
        nms_iou: float = 0.45,
        max_detections: int = 20,
    ) -> list[Detection]:
        """Convert one raw output map ``(CELL_CHANNELS, S, S)`` into detections."""
        s = self.grid_size
        if output_map.shape != (CELL_CHANNELS, s, s):
            raise ValueError(
                f"expected output map of shape {(CELL_CHANNELS, s, s)}, got {output_map.shape}"
            )
        obj_prob = sigmoid(output_map[0])
        class_logits = output_map[1 : 1 + NUM_CLASSES]
        # softmax over the class axis
        shifted = class_logits - class_logits.max(axis=0, keepdims=True)
        class_prob = np.exp(shifted)
        class_prob /= class_prob.sum(axis=0, keepdims=True)
        box_raw = output_map[1 + NUM_CLASSES :]

        # every candidate cell at once, in the row-major order np.where
        # yields; elementwise ufuncs give each cell the bits a per-cell
        # scalar computation would
        rows, cols = np.where(obj_prob >= conf_threshold)
        cell_probs = class_prob[:, rows, cols]
        class_ids = cell_probs.argmax(axis=0)
        scores = obj_prob[rows, cols] * cell_probs[class_ids, np.arange(rows.size)]
        cells = box_raw[:, rows, cols]
        dxs = sigmoid(cells[0])
        dys = sigmoid(cells[1])
        ws = np.exp(np.clip(cells[2], -6.0, 3.0)) / s
        hs = np.exp(np.clip(cells[3], -6.0, 3.0)) / s

        detections: list[Detection] = []
        for row, col, class_id, score, dx, dy, w, h in zip(
            rows, cols, class_ids.tolist(), scores.tolist(), dxs.tolist(),
            dys.tolist(), ws.tolist(), hs.tolist(),
        ):
            if score < conf_threshold * 0.5 or w <= 0 or h <= 0:
                continue
            detections.append(
                Detection(
                    class_id=class_id,
                    cx=(col + dx) / s,
                    cy=(row + dy) / s,
                    w=w,
                    h=h,
                    score=min(1.0, score),
                )
            )
        detections = nms(detections, nms_iou)
        return detections[:max_detections]

    # -- raw target helpers used by the loss -------------------------------
    def targets_to_arrays(
        self, targets: list[GridTargets]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stack per-image targets into batch arrays (obj, classes, boxes)."""
        obj = np.stack([t.objectness for t in targets])
        cls = np.stack([t.class_ids for t in targets])
        boxes = np.stack([t.boxes for t in targets])
        return obj, cls, boxes
