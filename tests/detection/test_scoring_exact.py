"""Bit-exactness of match-once scoring.

``FrameMatches`` matches each frame once and builds ``evaluate_map``,
``windowed_map`` and ``evaluate_average_iou`` from the same records.
Each is compared with a reference copy of the per-frame code it replaced,
which rebuilt each frame's IoU matrix and ran the greedy match for every
metric (and for every window): the same ``map50``, per-class APs,
windowed values and average IoU, to the bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection import (
    Detection,
    Detections,
    FrameMatches,
    GridCodec,
    TeacherConfig,
    TeacherDetector,
    average_precision,
    evaluate_average_iou,
    evaluate_map,
    windowed_map,
)
from repro.detection.grid import CELL_CHANNELS
from repro.video import DAY_SUNNY, NIGHT, GroundTruthBox
from repro.video.domains import NUM_CLASSES
from repro.video.stream import Frame


# -- reference copies of the per-frame scoring code ---------------------------
def reference_iou_matrix(detections, ground_truth):
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


def reference_match_greedy(detections, ground_truth, iou_threshold=0.5, class_aware=True):
    if not detections or not ground_truth:
        return []
    order = sorted(range(len(detections)), key=lambda i: detections[i].score, reverse=True)
    ious = reference_iou_matrix(detections, ground_truth)
    matched_gt = set()
    matches = []
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


def reference_evaluate_map(detections_per_frame, ground_truth_per_frame, iou_threshold=0.5):
    if len(detections_per_frame) != len(ground_truth_per_frame):
        raise ValueError("detections and ground truth must cover the same frames")
    records = {c: [] for c in range(NUM_CLASSES)}
    gt_counts = {c: 0 for c in range(NUM_CLASSES)}
    for detections, ground_truth in zip(detections_per_frame, ground_truth_per_frame):
        ground_truth = list(ground_truth)
        for gt in ground_truth:
            gt_counts[gt.class_id] += 1
        matches = reference_match_greedy(detections, ground_truth, iou_threshold=iou_threshold)
        matched_dets = {det_idx for det_idx, _, _ in matches}
        for det_idx, det in enumerate(detections):
            records[det.class_id].append((det.score, det_idx in matched_dets))

    per_class_ap = {}
    for class_id in range(NUM_CLASSES):
        if gt_counts[class_id] == 0:
            continue
        class_records = records[class_id]
        scores = np.array([score for score, _ in class_records])
        tps = np.array([tp for _, tp in class_records], dtype=bool)
        per_class_ap[class_id] = average_precision(scores, tps, gt_counts[class_id])
    map50 = float(np.mean(list(per_class_ap.values()))) if per_class_ap else 0.0
    return map50, per_class_ap, sum(gt_counts.values()), sum(len(d) for d in detections_per_frame)


def reference_average_iou(detections_per_frame, ground_truth_per_frame):
    total = 0.0
    count = 0
    for detections, ground_truth in zip(detections_per_frame, ground_truth_per_frame):
        ground_truth = list(ground_truth)
        if not ground_truth:
            continue
        count += len(ground_truth)
        if not detections:
            continue
        ious = reference_iou_matrix(detections, ground_truth)
        total += float(ious.max(axis=0).sum())
    if count == 0:
        return 0.0
    return total / count


def reference_windowed_map(detections_per_frame, ground_truth_per_frame, window=30):
    n = len(detections_per_frame)
    values = []
    for start in range(0, n, window):
        stop = min(n, start + window)
        values.append(
            reference_evaluate_map(
                detections_per_frame[start:stop], ground_truth_per_frame[start:stop]
            )[0]
        )
    return np.asarray(values)


# -- inputs ---------------------------------------------------------------------
def random_ground_truth(rng, count):
    return [
        GroundTruthBox(
            int(rng.integers(NUM_CLASSES)),
            float(rng.uniform(0.1, 0.9)),
            float(rng.uniform(0.1, 0.9)),
            float(rng.uniform(0.05, 0.3)),
            float(rng.uniform(0.05, 0.3)),
        )
        for _ in range(count)
    ]


def student_frames(rng, num_frames=90):
    """Decoded random output maps against random GT: every count from 0 to 20."""
    codec = GridCodec(8)
    detections, ground_truth = [], []
    for index in range(num_frames):
        output_map = rng.normal(0.0, 2.0, size=(CELL_CHANNELS, 8, 8))
        output_map[0] -= 1.0 if index % 3 else 4.0  # some frames with few candidates
        detections.append(codec.decode(output_map, 0.3, 0.45, 20))
        ground_truth.append(random_ground_truth(rng, index % 21))
    return detections, ground_truth


def teacher_frames(rng, num_frames=90):
    """Teacher labels (misses, confusions, false positives) of random scenes."""
    teacher = TeacherDetector(
        TeacherConfig(base_miss_rate=0.1, base_class_confusion=0.2, base_false_positive_rate=0.5)
    )
    detections, ground_truth = [], []
    for index in range(num_frames):
        boxes = tuple(random_ground_truth(rng, int(rng.integers(0, 12))))
        frame = Frame(
            index=index,
            timestamp=index / 30.0,
            image=np.zeros((3, 4, 4)),
            ground_truth=boxes,
            domain_name="night",
            motion=0.0,
        )
        detections.append(teacher.detect(frame, NIGHT if index % 2 else DAY_SUNNY))
        ground_truth.append(list(boxes))
    return detections, ground_truth


def edge_case_frames():
    """Frames that stress the match and the sums.

    Empty and GT-free frames, tied scores, tied IoUs, one box under two
    classes, and crowded frames whose best IoUs add up in many terms.
    """
    box = (0.5, 0.5, 0.25, 0.25)
    beside = (0.625, 0.5, 0.25, 0.25)
    left, right = (0.375, 0.5, 0.25, 0.25), (0.625, 0.5, 0.25, 0.25)
    rows = [
        [],  # nothing detected
        [(0, *box, 0.9), (1, *box, 0.9)],  # same box, two classes, tied
        [(0, *box, 0.8), (0, *box, 0.8), (0, *beside, 0.8)],  # ties within a class
        [(2, *box, 0.7)],  # no GT in this frame
        [(0, *box, 0.6), (1, *beside, 0.6), (1, *box, 0.5)],
        [],
        # overlaps left and right equally (IoU 1/3): the first GT box
        # wins, which leaves the lower-scored box on it unmatched
        [(1, *box, 0.9), (1, *left, 0.8)],
    ]
    ground_truth = [
        [GroundTruthBox(0, *box)],
        [GroundTruthBox(0, *box), GroundTruthBox(1, *box)],
        [GroundTruthBox(0, *box), GroundTruthBox(0, *beside)],
        [],
        [GroundTruthBox(1, *box), GroundTruthBox(0, *beside), GroundTruthBox(3, *box)],
        [],
        [GroundTruthBox(1, *left), GroundTruthBox(1, *right)],
    ]
    rng = np.random.default_rng(11)
    for count in (8, 13, 20):
        truth = random_ground_truth(rng, count)
        ground_truth.append(truth)
        rows.append(
            [
                (gt.class_id, gt.cx + rng.normal(0.0, 0.01), gt.cy, gt.w, gt.h * 1.1,
                 float(rng.uniform(0.3, 1.0)))
                for gt in truth
            ]
        )
    return [Detections.from_rows(frame) for frame in rows], ground_truth


def cases():
    rng = np.random.default_rng(5)
    student = student_frames(rng)
    teacher = teacher_frames(rng)
    edge = edge_case_frames()
    mixed = (
        student[0][:20] + edge[0] + teacher[0][:20],
        student[1][:20] + edge[1] + teacher[1][:20],
    )
    return {"student": student, "teacher": teacher, "edge": edge, "mixed": mixed}


CASES = cases()


# -- comparisons ----------------------------------------------------------------
def hexes(values):
    return [float(value).hex() for value in values]


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("iou_threshold", [0.3, 0.5, 0.75])
def test_map_matches_reference(name, iou_threshold):
    detections, ground_truth = CASES[name]
    records = [list(frame) for frame in detections]
    map50, per_class, num_gt, num_det = reference_evaluate_map(
        records, ground_truth, iou_threshold
    )
    for result in (
        evaluate_map(detections, ground_truth, iou_threshold),
        evaluate_map(records, ground_truth, iou_threshold),
        evaluate_map(FrameMatches(detections, ground_truth, iou_threshold), None, iou_threshold),
    ):
        assert result.map50.hex() == map50.hex()
        assert sorted(result.per_class_ap) == sorted(per_class)
        assert {c: ap.hex() for c, ap in result.per_class_ap.items()} == {
            c: ap.hex() for c, ap in per_class.items()
        }
        assert (result.num_ground_truth, result.num_detections) == (num_gt, num_det)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("window", [1, 4, 15, 1000])
def test_windowed_map_matches_reference(name, window):
    detections, ground_truth = CASES[name]
    expected = reference_windowed_map([list(f) for f in detections], ground_truth, window)
    shared = FrameMatches(detections, ground_truth)
    for values in (
        windowed_map(detections, ground_truth, window=window),
        windowed_map(shared, window=window),
    ):
        assert values.dtype == expected.dtype
        assert hexes(values) == hexes(expected)


@pytest.mark.parametrize("name", sorted(CASES))
def test_average_iou_matches_reference(name):
    detections, ground_truth = CASES[name]
    expected = reference_average_iou([list(f) for f in detections], ground_truth)
    assert evaluate_average_iou(detections, ground_truth).hex() == expected.hex()
    assert evaluate_average_iou(FrameMatches(detections, ground_truth)).hex() == expected.hex()


def test_one_match_serves_every_metric():
    """The three metrics of one FrameMatches agree with three separate matches."""
    detections, ground_truth = CASES["mixed"]
    shared = FrameMatches(detections, ground_truth)
    assert evaluate_map(shared) == evaluate_map(detections, ground_truth)
    assert hexes(windowed_map(shared, window=7)) == hexes(
        windowed_map(detections, ground_truth, window=7)
    )
    assert evaluate_average_iou(shared) == evaluate_average_iou(detections, ground_truth)


def test_frame_matches_keeps_its_ground_truth_and_threshold():
    detections, ground_truth = CASES["edge"]
    shared = FrameMatches(detections, ground_truth, iou_threshold=0.5)
    with pytest.raises(ValueError):
        evaluate_map(shared, ground_truth)
    with pytest.raises(ValueError):
        windowed_map(shared, window=2, iou_threshold=0.3)


def test_records_are_read_from_detections_unchanged():
    """A list of Detection records scores as its Detections does."""
    detections, ground_truth = CASES["teacher"]
    as_lists = [[Detection(*row) for row in frame.rows()] for frame in detections]
    assert evaluate_map(as_lists, ground_truth) == evaluate_map(detections, ground_truth)
