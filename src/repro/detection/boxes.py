"""Bounding-box primitives: detections, IoU, NMS and greedy matching."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.video.domains import NUM_CLASSES
from repro.video.scene import GroundTruthBox

__all__ = ["Detection", "iou_xyxy", "iou_matrix", "nms", "match_greedy"]


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
        if not 0 <= self.class_id < NUM_CLASSES:
            raise ValueError(f"class_id out of range: {self.class_id}")
        if self.w <= 0 or self.h <= 0:
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

    def to_ground_truth(self) -> GroundTruthBox:
        """Convert to a ground-truth box (used when pseudo-labels become targets)."""
        return GroundTruthBox(self.class_id, self.cx, self.cy, self.w, self.h)


def iou_xyxy(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    """Intersection-over-union of two corner-format boxes."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    inter_w = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    inter_h = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = inter_w * inter_h
    area_a = max(0.0, ax2 - ax1) * max(0.0, ay2 - ay1)
    area_b = max(0.0, bx2 - bx1) * max(0.0, by2 - by1)
    union = area_a + area_b - inter
    if union <= 0:
        return 0.0
    return inter / union


def iou_matrix(
    detections: list[Detection] | list[GroundTruthBox],
    ground_truth: list[GroundTruthBox] | list[Detection],
) -> np.ndarray:
    """Pairwise IoU matrix with shape ``(len(detections), len(ground_truth))``."""
    if not detections or not ground_truth:
        return np.zeros((len(detections), len(ground_truth)))
    det_xyxy = np.array([d.as_xyxy() for d in detections])
    gt_xyxy = np.array([g.as_xyxy() for g in ground_truth])

    x1 = np.maximum(det_xyxy[:, None, 0], gt_xyxy[None, :, 0])
    y1 = np.maximum(det_xyxy[:, None, 1], gt_xyxy[None, :, 1])
    x2 = np.minimum(det_xyxy[:, None, 2], gt_xyxy[None, :, 2])
    y2 = np.minimum(det_xyxy[:, None, 3], gt_xyxy[None, :, 3])
    inter = np.clip(x2 - x1, 0, None) * np.clip(y2 - y1, 0, None)

    area_det = (det_xyxy[:, 2] - det_xyxy[:, 0]) * (det_xyxy[:, 3] - det_xyxy[:, 1])
    area_gt = (gt_xyxy[:, 2] - gt_xyxy[:, 0]) * (gt_xyxy[:, 3] - gt_xyxy[:, 1])
    union = area_det[:, None] + area_gt[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(union > 0, inter / union, 0.0)
    return iou


def nms(detections: list[Detection], iou_threshold: float = 0.45) -> list[Detection]:
    """Class-aware non-maximum suppression; keeps the highest-scoring boxes."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in (0, 1]")
    kept: list[Detection] = []
    for class_id in sorted({d.class_id for d in detections}):
        candidates = sorted(
            (d for d in detections if d.class_id == class_id),
            key=lambda d: d.score,
            reverse=True,
        )
        # corners and area once per box; the loop below is iou_xyxy
        # inlined, with the same expressions in the same operand order
        boxes = []
        for d in candidates:
            x1, y1, x2, y2 = d.as_xyxy()
            boxes.append((d, x1, y1, x2, y2, max(0.0, x2 - x1) * max(0.0, y2 - y1)))
        while boxes:
            best, ax1, ay1, ax2, ay2, area_a = boxes[0]
            kept.append(best)
            survivors = []
            for box in boxes[1:]:
                _, bx1, by1, bx2, by2, area_b = box
                inter = max(0.0, min(ax2, bx2) - max(ax1, bx1)) * max(
                    0.0, min(ay2, by2) - max(ay1, by1)
                )
                union = area_a + area_b - inter
                # iou_xyxy is 0 for union <= 0, and iou_threshold > 0
                if union <= 0 or inter / union < iou_threshold:
                    survivors.append(box)
            boxes = survivors
    return sorted(kept, key=lambda d: d.score, reverse=True)


def match_greedy(
    detections: list[Detection],
    ground_truth: list[GroundTruthBox],
    iou_threshold: float = 0.5,
    class_aware: bool = True,
) -> list[tuple[int, int, float]]:
    """Greedy detection-to-GT matching in descending score order.

    Returns a list of ``(detection_index, gt_index, iou)`` tuples; each ground
    truth box is matched at most once, which is the standard mAP protocol.
    """
    if not detections or not ground_truth:
        return []
    order = sorted(range(len(detections)), key=lambda i: detections[i].score, reverse=True)
    ious = iou_matrix(detections, ground_truth)
    matched_gt: set[int] = set()
    matches: list[tuple[int, int, float]] = []
    for det_idx in order:
        best_gt, best_iou = -1, 0.0
        for gt_idx, gt in enumerate(ground_truth):
            if gt_idx in matched_gt:
                continue
            if class_aware and detections[det_idx].class_id != gt.class_id:
                continue
            if ious[det_idx, gt_idx] > best_iou:
                best_gt, best_iou = gt_idx, float(ious[det_idx, gt_idx])
        if best_gt >= 0 and best_iou >= iou_threshold:
            matched_gt.add(best_gt)
            matches.append((det_idx, best_gt, best_iou))
    return matches
