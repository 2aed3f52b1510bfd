"""Bounding-box primitives: detections, IoU, NMS and greedy matching.

A frame's detections travel as one :class:`Detections`: class ids, boxes
and scores as arrays, checked once per frame.  :class:`Detection` is a
single box, for the callers that need one; iterating a ``Detections``
yields them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.video.domains import NUM_CLASSES
from repro.video.scene import GroundTruthBox

__all__ = [
    "Detection",
    "Detections",
    "as_detections",
    "xyxy",
    "pair_iou",
    "iou_matrix",
    "nms",
    "nms_keep",
    "greedy_matches",
    "match_greedy",
]


#: one box as Python numbers: ``(class_id, cx, cy, w, h, score)``
Row = tuple[int, float, float, float, float, float]


@dataclass(frozen=True)
class Detection:
    """A predicted box in normalised centre-size coordinates with a confidence."""

    class_id: int
    cx: float
    cy: float
    w: float
    h: float
    score: float

    def __post_init__(self) -> None:
        # each check passes only what it accepts, so NaN fails it
        if not 0 <= self.class_id < NUM_CLASSES:
            raise ValueError(f"class_id out of range: {self.class_id}")
        if not all(map(math.isfinite, (self.cx, self.cy, self.w, self.h))):
            raise ValueError("detection box must be finite")
        if not (self.w > 0 and self.h > 0):
            raise ValueError("detection width/height must be positive")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")

    def as_xyxy(self) -> tuple[float, float, float, float]:
        return (
            self.cx - self.w / 2,
            self.cy - self.h / 2,
            self.cx + self.w / 2,
            self.cy + self.h / 2,
        )


class Detections:
    """One frame's detections as arrays, checked once per frame.

    ``class_ids`` is int64 ``(n,)``, ``boxes`` float64 ``(n, 4)`` in
    normalised centre-size coordinates ``(cx, cy, w, h)``, and ``scores``
    float64 ``(n,)``.  The constructor copies the arrays, makes the
    copies read-only and checks every box as :class:`Detection` checks
    one.  ``len`` counts boxes; iterating, or indexing with an integer,
    yields :class:`Detection` records; any other index selects a
    ``Detections``.
    """

    __slots__ = ("class_ids", "boxes", "scores")

    def __init__(self, class_ids, boxes, scores) -> None:
        class_ids = np.array(class_ids, dtype=np.int64)
        boxes = np.array(boxes, dtype=np.float64)
        scores = np.array(scores, dtype=np.float64)
        if boxes.size == 0:
            boxes = boxes.reshape(0, 4)
        if (
            class_ids.ndim != 1
            or boxes.shape != (class_ids.size, 4)
            or scores.shape != class_ids.shape
        ):
            raise ValueError("class_ids, boxes and scores must describe the same boxes")
        if np.count_nonzero((class_ids < 0) | (class_ids >= NUM_CLASSES)):
            raise ValueError(f"class_id out of range: {class_ids.tolist()}")
        if np.count_nonzero(~np.isfinite(boxes)):
            raise ValueError("detection boxes must be finite")
        if np.count_nonzero(~(boxes[:, 2:] > 0.0)):
            raise ValueError("detection width/height must be positive")
        if np.count_nonzero(~((scores >= 0.0) & (scores <= 1.0))):
            raise ValueError(f"score must be in [0, 1], got {scores.tolist()}")
        self._set(class_ids, boxes, scores)

    def _set(self, class_ids: np.ndarray, boxes: np.ndarray, scores: np.ndarray) -> None:
        for array in (class_ids, boxes, scores):
            array.flags.writeable = False
        self.class_ids = class_ids
        self.boxes = boxes
        self.scores = scores

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> "Detections":
        """From ``(class_id, cx, cy, w, h, score)`` tuples, one per box."""
        rows = list(rows)
        if not rows:
            return _EMPTY
        return cls(
            [row[0] for row in rows],
            [row[1:5] for row in rows],
            [row[5] for row in rows],
        )

    def __len__(self) -> int:
        return self.scores.shape[0]

    def rows(self) -> list[Row]:
        """Every box as a ``(class_id, cx, cy, w, h, score)`` tuple of Python numbers."""
        return list(
            zip(self.class_ids.tolist(), *self.boxes.T.tolist(), self.scores.tolist())
        )

    def __iter__(self) -> Iterator[Detection]:
        for row in self.rows():
            yield Detection(*row)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return Detection(*self.rows()[index])
        scores = self.scores[index]
        if not scores.size:
            return _EMPTY
        # a subset of checked boxes needs no second check
        subset = object.__new__(Detections)
        subset._set(self.class_ids[index], self.boxes[index], scores)
        return subset

    def __eq__(self, other: object) -> bool:
        """Equal to a ``Detections`` or sequence of the same records, in order."""
        if isinstance(other, (Detections, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Detections({list(self)!r})"


#: shared by every frame with nothing detected: most of an untrained
#: student's frames, and many a teacher's
_EMPTY = Detections([], [], [])


def as_detections(detections: Detections | Iterable[Detection]) -> Detections:
    """``detections`` itself, or a list of :class:`Detection` as one ``Detections``."""
    if isinstance(detections, Detections):
        return detections
    return Detections.from_rows((d.class_id, d.cx, d.cy, d.w, d.h, d.score) for d in detections)


def xyxy(boxes: np.ndarray) -> np.ndarray:
    """Corners ``(x1, y1, x2, y2)`` of ``(n, 4)`` centre-size boxes, as ``as_xyxy()`` computes them."""
    cx, cy, w, h = boxes.T
    return np.stack((cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2), axis=1)


def _corners(boxes: Detections | Sequence[Detection] | Sequence[GroundTruthBox]) -> np.ndarray:
    if isinstance(boxes, Detections):
        return xyxy(boxes.boxes)
    return np.array([box.as_xyxy() for box in boxes])


def pair_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise IoU of corner boxes ``a[..., :]`` and ``b[..., :]``.

    The leading axes broadcast: two ``(p, 4)`` arrays give ``p`` pairs, an
    ``(n, 1, 4)`` and a ``(1, m, 4)`` array the ``(n, m)`` matrix.
    """
    x1 = np.maximum(a[..., 0], b[..., 0])
    y1 = np.maximum(a[..., 1], b[..., 1])
    x2 = np.minimum(a[..., 2], b[..., 2])
    y2 = np.minimum(a[..., 3], b[..., 3])
    inter = np.clip(x2 - x1, 0, None) * np.clip(y2 - y1, 0, None)

    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, 0.0)


def iou_matrix(
    detections: Detections | Sequence[Detection] | Sequence[GroundTruthBox],
    ground_truth: Sequence[GroundTruthBox] | Detections | Sequence[Detection],
) -> np.ndarray:
    """Pairwise IoU matrix with shape ``(len(detections), len(ground_truth))``."""
    if not len(detections) or not len(ground_truth):
        return np.zeros((len(detections), len(ground_truth)))
    return pair_iou(_corners(detections)[:, None], _corners(ground_truth)[None, :])


def nms_keep(rows: Sequence[Row], iou_threshold: float) -> list[int]:
    """Indices of the ``rows`` class-aware NMS keeps, by descending score.

    Classes go in ascending order and, within a class, boxes best first.
    The sorts are stable, so equal scores keep their input order.  The
    loop runs over Python floats: with a handful of boxes a frame, it
    costs less than NumPy calls on arrays that small.
    """
    by_class: dict[int, list[int]] = {}
    for index, row in enumerate(rows):
        by_class.setdefault(row[0], []).append(index)
    kept: list[int] = []
    for class_id in sorted(by_class):
        # corners and area once per box, then the scalar IoU of two
        # corner boxes: intersection over area_a + area_b - intersection,
        # 0 where the union is not positive.
        # ``b if b < a else a`` is what min(a, b) computes, and
        # ``b if b > a else a`` max(a, b), NaN and signed zeros included,
        # without the call
        boxes = []
        for index in sorted(by_class[class_id], key=lambda i: rows[i][5], reverse=True):
            _, cx, cy, w, h, _ = rows[index]
            x1, y1, x2, y2 = cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2
            boxes.append((index, x1, y1, x2, y2, max(0.0, x2 - x1) * max(0.0, y2 - y1)))
        while boxes:
            best, ax1, ay1, ax2, ay2, area_a = boxes[0]
            kept.append(best)
            survivors = []
            for box in boxes[1:]:
                _, bx1, by1, bx2, by2, area_b = box
                inter_w = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
                inter_h = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
                inter = (inter_w if inter_w > 0.0 else 0.0) * (inter_h if inter_h > 0.0 else 0.0)
                union = area_a + area_b - inter
                # the IoU is 0 for union <= 0, and iou_threshold > 0
                if union <= 0 or inter / union < iou_threshold:
                    survivors.append(box)
            boxes = survivors
    return sorted(kept, key=lambda i: rows[i][5], reverse=True)


def nms(
    detections: Detections | Sequence[Detection], iou_threshold: float = 0.45
) -> Detections:
    """Class-aware non-maximum suppression; keeps the highest-scoring boxes."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in (0, 1]")
    detections = as_detections(detections)
    keep = nms_keep(detections.rows(), iou_threshold)
    return detections[np.array(keep, dtype=np.intp)]


def greedy_matches(
    scores: Sequence[float],
    det_classes: Sequence[int],
    gt_classes: Sequence[int] | None,
    ious: Sequence[Sequence[float]],
    iou_threshold: float,
) -> list[tuple[int, int, float]]:
    """Greedy detection-to-GT matching over one frame's Python lists.

    Detections go in descending score order (ties in input order); each
    takes the unmatched GT box of its class (any class when
    ``gt_classes`` is None) it overlaps most, the first on ties, if that
    IoU is positive and at least ``iou_threshold``.  ``ious`` holds one
    row per detection.  Returns ``(detection_index, gt_index, iou)``
    tuples.
    """
    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    matched = [False] * (len(ious[0]) if ious else 0)
    matches: list[tuple[int, int, float]] = []
    for det_idx in order:
        det_class = det_classes[det_idx]
        best_gt, best_iou = -1, 0.0
        for gt_idx, iou in enumerate(ious[det_idx]):
            if matched[gt_idx]:
                continue
            if gt_classes is not None and gt_classes[gt_idx] != det_class:
                continue
            if iou > best_iou:
                best_gt, best_iou = gt_idx, iou
        if best_gt >= 0 and best_iou >= iou_threshold:
            matched[best_gt] = True
            matches.append((det_idx, best_gt, best_iou))
    return matches


def match_greedy(
    detections: Detections | Sequence[Detection],
    ground_truth: Sequence[GroundTruthBox],
    iou_threshold: float = 0.5,
    class_aware: bool = True,
) -> list[tuple[int, int, float]]:
    """Greedy detection-to-GT matching in descending score order.

    Returns a list of ``(detection_index, gt_index, iou)`` tuples; each ground
    truth box is matched at most once, which is the standard mAP protocol.
    """
    if not len(detections) or not len(ground_truth):
        return []
    detections = as_detections(detections)
    return greedy_matches(
        detections.scores.tolist(),
        detections.class_ids.tolist(),
        [gt.class_id for gt in ground_truth] if class_aware else None,
        iou_matrix(detections, ground_truth).tolist(),
        iou_threshold,
    )
