"""Detection evaluation metrics: AP / mAP@0.5, average IoU, windowed mAP.

The paper's evaluation reports mAP@0.5 (Table I, II), average IoU of
inference (Table III) and the cumulative distribution of per-frame mAP gain
over Edge-Only (Figure 5).  This module implements all three against the
synthetic ground truth.

Each frame is matched to its ground truth once, by :class:`FrameMatches`;
every metric, and every window of the windowed mAP, reads its records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.detection.boxes import (
    Detection,
    Detections,
    as_detections,
    greedy_matches,
    iou_matrix,
    pair_iou,
    xyxy,
)
from repro.video.domains import NUM_CLASSES
from repro.video.scene import GroundTruthBox

__all__ = [
    "MAPResult",
    "FrameMatches",
    "average_precision",
    "evaluate_map",
    "evaluate_average_iou",
    "windowed_map",
    "label_consistency_loss",
]

#: one frame's detections: a :class:`Detections` or a list of records
FrameDetections = Detections | Sequence[Detection]


@dataclass(frozen=True)
class MAPResult:
    """mAP evaluation summary."""

    map50: float
    per_class_ap: dict[int, float]
    num_ground_truth: int
    num_detections: int

    def __str__(self) -> str:  # pragma: no cover - convenience
        per_class = ", ".join(f"{k}: {v:.3f}" for k, v in sorted(self.per_class_ap.items()))
        return f"mAP@0.5={self.map50:.3f} ({per_class})"


def average_precision(
    scores: np.ndarray, is_true_positive: np.ndarray, num_ground_truth: int
) -> float:
    """Area under the precision-recall curve (all-point interpolation).

    ``scores`` and ``is_true_positive`` describe every detection of one class
    across the whole evaluation set; ``num_ground_truth`` is the number of GT
    boxes of that class.
    """
    if num_ground_truth <= 0:
        return 0.0
    if scores.size == 0:
        return 0.0
    order = np.argsort(-scores)
    tp = is_true_positive[order].astype(np.float64)
    fp = 1.0 - tp
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(fp)
    recall = cum_tp / num_ground_truth
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1e-12)

    # precision envelope (monotonically decreasing from the right)
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    # integrate over recall
    recall = np.concatenate([[0.0], recall, [recall[-1]]])
    precision = np.concatenate([[precision[0]], precision, [0.0]])
    return float(np.sum(np.diff(recall[:-1]) * precision[1:-1]))


@dataclass(frozen=True)
class _Records:
    """Per-detection and per-GT records of every frame, concatenated in frame order."""

    det_classes: np.ndarray
    det_scores: np.ndarray
    det_tp: np.ndarray
    #: frame f's detections are ``det_*[det_start[f]:det_start[f + 1]]``
    det_start: np.ndarray
    gt_classes: np.ndarray
    #: each GT box's best IoU with any detection of its frame (0 if none)
    gt_best_iou: np.ndarray
    gt_start: np.ndarray


class FrameMatches:
    """Each frame's detections matched to its ground truth once, for every metric.

    Matching runs on the first metric asked for and is kept for the
    others.  Per detection it records the class, the score and whether
    greedy matching at ``iou_threshold`` made it a true positive; per GT
    box, the class and the best IoU with any of the frame's detections.
    Records stay in frame order, then detection order, so one class's
    records over any run of frames are the ones the per-frame metrics
    would have collected, in the same order.
    """

    def __init__(
        self,
        detections_per_frame: Sequence[FrameDetections],
        ground_truth_per_frame: Sequence[Sequence[GroundTruthBox]],
        iou_threshold: float = 0.5,
    ) -> None:
        if len(detections_per_frame) != len(ground_truth_per_frame):
            raise ValueError("detections and ground truth must cover the same frames")
        self.detections_per_frame = detections_per_frame
        self.ground_truth_per_frame = ground_truth_per_frame
        self.iou_threshold = iou_threshold

    def __len__(self) -> int:
        return len(self.detections_per_frame)

    @cached_property
    def _records(self) -> _Records:
        frames = [as_detections(d) for d in self.detections_per_frame]
        truths = [list(gt) for gt in self.ground_truth_per_frame]
        det_counts = np.array([len(d) for d in frames], dtype=np.int64)
        gt_counts = np.array([len(gt) for gt in truths], dtype=np.int64)
        det_start = np.concatenate(([0], np.cumsum(det_counts)))
        gt_start = np.concatenate(([0], np.cumsum(gt_counts)))
        det_classes = np.concatenate([np.zeros(0, np.int64), *(d.class_ids for d in frames)])
        det_scores = np.concatenate([np.zeros(0), *(d.scores for d in frames)])
        det_boxes = np.concatenate([np.zeros((0, 4)), *(d.boxes for d in frames)])
        truth = [box for gt in truths for box in gt]
        gt_classes = np.array([box.class_id for box in truth], dtype=np.int64)
        gt_boxes = np.array([(box.cx, box.cy, box.w, box.h) for box in truth]).reshape(-1, 4)

        # every frame's IoU matrix, row-major, in one elementwise pass:
        # pair k of frame f is detection k // n_gt and GT box k % n_gt
        pairs = det_counts * gt_counts
        pair_frame = np.repeat(np.arange(len(frames)), pairs)
        within = np.arange(pair_frame.size) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        per_row = gt_counts[pair_frame]
        pair_det = det_start[pair_frame] + within // per_row
        pair_gt = gt_start[pair_frame] + within % per_row
        ious = pair_iou(xyxy(det_boxes)[pair_det], xyxy(gt_boxes)[pair_gt])
        # max is exact, so the order the pairs are visited in is free
        gt_best_iou = np.zeros(len(truth))
        np.maximum.at(gt_best_iou, pair_gt, ious)

        det_tp = [False] * len(det_classes)
        scores, classes = det_scores.tolist(), det_classes.tolist()
        truth_classes, iou_list = gt_classes.tolist(), ious.tolist()
        pair = 0
        for first, n_det, first_gt, n_gt in zip(
            det_start.tolist(), det_counts.tolist(), gt_start.tolist(), gt_counts.tolist()
        ):
            if not n_det or not n_gt:
                continue
            rows = [iou_list[pair + i * n_gt : pair + (i + 1) * n_gt] for i in range(n_det)]
            pair += n_det * n_gt
            last = first + n_det
            for det_idx, _, _ in greedy_matches(
                scores[first:last],
                classes[first:last],
                truth_classes[first_gt : first_gt + n_gt],
                rows,
                self.iou_threshold,
            ):
                det_tp[first + det_idx] = True
        return _Records(
            det_classes=det_classes,
            det_scores=det_scores,
            det_tp=np.array(det_tp, dtype=bool),
            det_start=det_start,
            gt_classes=gt_classes,
            gt_best_iou=gt_best_iou,
            gt_start=gt_start,
        )

    def map_result(self, start: int = 0, stop: int | None = None) -> MAPResult:
        """mAP over frames ``start:stop``; classes with no GT there are skipped."""
        records = self._records
        stop = len(self) if stop is None else stop
        first, last = records.det_start[start], records.det_start[stop]
        classes = records.det_classes[first:last]
        scores = records.det_scores[first:last]
        tps = records.det_tp[first:last]
        gt_counts = np.bincount(
            records.gt_classes[records.gt_start[start] : records.gt_start[stop]],
            minlength=NUM_CLASSES,
        ).tolist()

        per_class_ap: dict[int, float] = {}
        for class_id in range(NUM_CLASSES):
            if gt_counts[class_id] == 0:
                continue
            mine = classes == class_id
            per_class_ap[class_id] = average_precision(
                scores[mine], tps[mine], gt_counts[class_id]
            )
        map50 = float(np.mean(list(per_class_ap.values()))) if per_class_ap else 0.0
        return MAPResult(
            map50=map50,
            per_class_ap=per_class_ap,
            num_ground_truth=sum(gt_counts),
            num_detections=int(last - first),
        )

    def windowed_map(self, window: int) -> np.ndarray:
        """mAP@``iou_threshold`` over each run of ``window`` consecutive frames."""
        if window <= 0:
            raise ValueError("window must be positive")
        n = len(self)
        return np.asarray(
            [self.map_result(start, min(n, start + window)).map50 for start in range(0, n, window)]
        )

    def average_iou(self) -> float:
        """Mean over GT boxes of the best IoU with any detection of the frame."""
        records = self._records
        best, gt_start, det_start = records.gt_best_iou, records.gt_start, records.det_start
        total = 0.0
        count = 0
        for frame in range(len(self)):
            first, last = gt_start[frame], gt_start[frame + 1]
            if first == last:
                continue
            count += int(last - first)
            if det_start[frame] == det_start[frame + 1]:
                continue
            total += float(best[first:last].sum())
        if count == 0:
            return 0.0
        return total / count


def _matched(
    frames: Sequence[FrameDetections] | FrameMatches,
    ground_truth_per_frame: Sequence[Sequence[GroundTruthBox]] | None,
    iou_threshold: float | None,
) -> FrameMatches:
    """``frames`` if already matched, else the two per-frame lists matched."""
    if isinstance(frames, FrameMatches):
        if ground_truth_per_frame is not None:
            raise ValueError("FrameMatches already holds its ground truth")
        if iou_threshold is not None and iou_threshold != frames.iou_threshold:
            raise ValueError("FrameMatches was matched at another IoU threshold")
        return frames
    return FrameMatches(
        frames, ground_truth_per_frame, 0.5 if iou_threshold is None else iou_threshold
    )


def evaluate_map(
    detections_per_frame: Sequence[FrameDetections] | FrameMatches,
    ground_truth_per_frame: Sequence[Sequence[GroundTruthBox]] | None = None,
    iou_threshold: float = 0.5,
) -> MAPResult:
    """mAP@``iou_threshold`` over a set of frames.

    Classes with no ground truth in the evaluation set are skipped (not
    counted as zero), following the usual mAP protocol.  Pass a
    :class:`FrameMatches` alone to reuse its matching.
    """
    return _matched(detections_per_frame, ground_truth_per_frame, iou_threshold).map_result()


def evaluate_average_iou(
    detections_per_frame: Sequence[FrameDetections] | FrameMatches,
    ground_truth_per_frame: Sequence[Sequence[GroundTruthBox]] | None = None,
) -> float:
    """Average IoU between ground-truth boxes and their best matching detection.

    Unmatched ground-truth boxes contribute an IoU of 0, so the metric rewards
    both localisation quality and coverage (Table III's "Average IoU").
    """
    return _matched(detections_per_frame, ground_truth_per_frame, None).average_iou()


def windowed_map(
    detections_per_frame: Sequence[FrameDetections] | FrameMatches,
    ground_truth_per_frame: Sequence[Sequence[GroundTruthBox]] | None = None,
    window: int = 30,
    iou_threshold: float = 0.5,
) -> np.ndarray:
    """mAP computed over consecutive windows of frames.

    The paper's Figure 5 plots a CDF of per-frame mAP gain; a per-frame mAP is
    extremely noisy with a handful of objects, so we follow common practice
    and evaluate over short windows (default 30 frames = 1 s of video).
    """
    return _matched(detections_per_frame, ground_truth_per_frame, iou_threshold).windowed_map(
        window
    )


def _class_ids(labels: FrameDetections | Sequence[GroundTruthBox]) -> np.ndarray:
    if isinstance(labels, Detections):
        return labels.class_ids
    return np.array([box.class_id for box in labels])


def label_consistency_loss(
    labels_current: FrameDetections | Sequence[GroundTruthBox],
    labels_previous: FrameDetections | Sequence[GroundTruthBox],
    iou_threshold: float = 0.5,
) -> float:
    """Dissimilarity between two label sets; the paper's φ signal.

    Following Sec. III-C, φ_k treats the teacher labels of the previous frame
    as ground truth for the current frame's labels and measures the task loss
    between them.  We use a symmetric detection-style error: the fraction of
    boxes in either set that have no sufficiently-overlapping, same-class
    counterpart in the other.  0 means identical labels (stationary scene),
    1 means completely different labels (fast-changing scene).
    """
    if not len(labels_current) and not len(labels_previous):
        return 0.0
    if not len(labels_current) or not len(labels_previous):
        return 1.0

    ious = iou_matrix(labels_current, labels_previous)
    cur_classes = _class_ids(labels_current)
    prev_classes = _class_ids(labels_previous)
    same_class = cur_classes[:, None] == prev_classes[None, :]
    overlap = (ious >= iou_threshold) & same_class

    matched_cur = overlap.any(axis=1).sum()
    matched_prev = overlap.any(axis=0).sum()
    total = len(labels_current) + len(labels_previous)
    return float(1.0 - (matched_cur + matched_prev) / total)
