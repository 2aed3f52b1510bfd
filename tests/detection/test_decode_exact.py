"""Bit-exactness of the vectorised grid decoder and of NMS.

``GridCodec.decode`` computes every candidate cell's class, score and box
at once; ``nms`` computes each box's corners once.  Both are compared
with reference copies of the per-cell and per-pair code they replaced:
the same detections, in the same order, with the same float bits, held
in a ``Detections`` of int64 class ids and float64 boxes and scores.
"""

from __future__ import annotations

import operator

import numpy as np
import pytest

from repro.detection import Detection, Detections, GridCodec
from repro.detection.boxes import nms
from repro.detection.grid import CELL_CHANNELS
from repro.nn.functional import sigmoid
from repro.video.domains import NUM_CLASSES


def iou_xyxy(a, b):
    """Intersection-over-union of two corner-format boxes, in Python floats."""
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


def reference_nms(detections, iou_threshold=0.45):
    kept = []
    for class_id in sorted({d.class_id for d in detections}):
        candidates = sorted(
            (d for d in detections if d.class_id == class_id),
            key=lambda d: d.score,
            reverse=True,
        )
        while candidates:
            best = candidates.pop(0)
            kept.append(best)
            candidates = [
                d for d in candidates if iou_xyxy(best.as_xyxy(), d.as_xyxy()) < iou_threshold
            ]
    return sorted(kept, key=lambda d: d.score, reverse=True)


def reference_decode(output_map, s, conf_threshold=0.5, nms_iou=0.45, max_detections=20):
    """One scalar sigmoid/exp/clip per candidate cell."""
    obj_prob = sigmoid(output_map[0])
    class_logits = output_map[1 : 1 + NUM_CLASSES]
    shifted = class_logits - class_logits.max(axis=0, keepdims=True)
    class_prob = np.exp(shifted)
    class_prob /= class_prob.sum(axis=0, keepdims=True)
    box_raw = output_map[1 + NUM_CLASSES :]

    detections = []
    rows, cols = np.where(obj_prob >= conf_threshold)
    for row, col in zip(rows, cols):
        class_id = int(class_prob[:, row, col].argmax())
        score = float(obj_prob[row, col] * class_prob[class_id, row, col])
        if score < conf_threshold * 0.5:
            continue
        dx = float(sigmoid(np.array([box_raw[0, row, col]]))[0])
        dy = float(sigmoid(np.array([box_raw[1, row, col]]))[0])
        w = float(np.exp(np.clip(box_raw[2, row, col], -6.0, 3.0)) / s)
        h = float(np.exp(np.clip(box_raw[3, row, col], -6.0, 3.0)) / s)
        cx = (col + dx) / s
        cy = (row + dy) / s
        if w <= 0 or h <= 0:
            continue
        detections.append(
            Detection(class_id=class_id, cx=cx, cy=cy, w=w, h=h, score=min(1.0, score))
        )
    return reference_nms(detections, nms_iou)[:max_detections]


def fields(detection):
    """Every field: the class as an int, the floats as their exact bits."""
    return [operator.index(detection.class_id)] + [
        float(value).hex()
        for value in (detection.cx, detection.cy, detection.w, detection.h, detection.score)
    ]


def assert_same_detections(actual, expected):
    """``actual`` is a ``Detections`` holding the reference records' bits."""
    assert isinstance(actual, Detections)
    assert actual.class_ids.dtype == np.int64
    assert actual.boxes.dtype == actual.scores.dtype == np.float64
    assert [fields(d) for d in actual] == [fields(d) for d in expected]


def finite_cells_only(output_map):
    """The map with every cell whose decode is not finite made a non-candidate.

    A non-finite class logit makes the cell's softmax NaN, and a NaN box
    channel its centre or size; ``decode`` drops such candidates, which
    the reference keeps.
    """
    bad = ~np.isfinite(output_map[1 : 1 + NUM_CLASSES]).all(axis=0)
    bad |= np.isnan(output_map[1 + NUM_CLASSES :]).any(axis=0)
    cleaned = output_map.copy()
    cleaned[0][bad] = -np.inf
    return cleaned


def output_maps(rng, s):
    """Typical maps, dense/empty candidate sets, saturating and NaN cells."""
    for scale in (1.0, 3.0, 12.0):
        yield rng.normal(0.0, scale, size=(CELL_CHANNELS, s, s))
    dense = rng.normal(size=(CELL_CHANNELS, s, s))
    dense[0] = 6.0  # every cell is a candidate
    yield dense
    empty = rng.normal(size=(CELL_CHANNELS, s, s))
    empty[0] = -6.0
    yield empty
    saturated = rng.normal(0.0, 40.0, size=(CELL_CHANNELS, s, s))
    saturated[0] = np.abs(saturated[0])
    yield saturated
    with_nan = rng.normal(0.0, 2.0, size=(CELL_CHANNELS, s, s))
    with_nan[0, 0, :] = 5.0
    with_nan[1, 0, 1] = np.nan
    with_nan[-1, 0, 2] = np.nan
    yield with_nan


@pytest.mark.parametrize("grid_size", [4, 8])
@pytest.mark.parametrize("conf_threshold", [0.05, 0.5, 0.9])
def test_decode_matches_scalar_reference(grid_size, conf_threshold):
    codec = GridCodec(grid_size)
    rng = np.random.default_rng(grid_size * 10 + int(conf_threshold * 100))
    for output_map in output_maps(rng, grid_size):
        for nms_iou, max_detections in ((0.45, 20), (0.3, 5), (1.0, 64)):
            actual = codec.decode(output_map, conf_threshold, nms_iou, max_detections)
            expected = reference_decode(
                finite_cells_only(output_map), grid_size, conf_threshold, nms_iou, max_detections
            )
            assert_same_detections(actual, expected)


def random_detections(rng, count):
    """Clustered boxes so many pairs overlap, with repeated scores."""
    centres = rng.uniform(0.2, 0.8, size=(4, 2))
    detections = []
    for _ in range(count):
        cx, cy = centres[rng.integers(4)] + rng.normal(0.0, 0.03, size=2)
        detections.append(
            Detection(
                class_id=int(rng.integers(NUM_CLASSES)),
                cx=float(cx),
                cy=float(cy),
                w=float(rng.uniform(0.05, 0.3)),
                h=float(rng.uniform(0.05, 0.3)),
                score=float(rng.choice([0.5, 0.75, rng.uniform()])),
            )
        )
    return detections


def degenerate_detections():
    """Identical, edge-touching and zero-area boxes of two classes.

    Every coordinate is dyadic, so touching edges meet exactly, and a
    width of 1e-20 gives a box whose corners coincide in floats.
    """
    detections = []
    for class_id in (0, 1):
        detections += [
            Detection(class_id, 0.5, 0.5, 0.25, 0.25, 0.9),
            Detection(class_id, 0.5, 0.5, 0.25, 0.25, 0.9),  # identical
            Detection(class_id, 0.5, 0.5, 0.25, 0.25, 0.8),  # identical, lower score
            Detection(class_id, 0.75, 0.5, 0.25, 0.25, 0.7),  # touches it at x = 0.625
            Detection(class_id, 0.5, 0.25, 0.25, 0.25, 0.6),  # touches it at y = 0.375
            Detection(class_id, 0.25, 0.25, 1e-20, 1e-20, 0.5),  # zero area
            Detection(class_id, 0.25, 0.25, 1e-20, 1e-20, 0.5),  # the same zero-area box
            Detection(class_id, 0.5, 0.5, 1e-20, 0.25, 0.4),  # zero area, inside the first
        ]
    return detections


@pytest.mark.parametrize("iou_threshold", [0.1, 0.45, 0.9, 1.0])
def test_nms_matches_reference(iou_threshold):
    rng = np.random.default_rng(int(iou_threshold * 100))
    cases = [random_detections(rng, count) for count in (0, 1, 2, 10, 60)]
    degenerate = degenerate_detections()
    cases += [degenerate, degenerate[::-1], list(rng.permutation(degenerate))]
    for detections in cases:
        assert_same_detections(
            nms(detections, iou_threshold), reference_nms(detections, iou_threshold)
        )


def test_decode_drops_non_finite_candidates():
    """An infinite class logit or a NaN box channel yields no detection.

    An inf logit used to make the softmax NaN, which passed the score
    floor and was clamped to a phantom score of 1.0.
    """
    codec = GridCodec(4)
    output_map = np.full((CELL_CHANNELS, 4, 4), -8.0)
    output_map[1 + NUM_CLASSES :] = 0.0
    clean = (0, 0)
    output_map[0, 0, 0] = output_map[0, 1, 1] = output_map[0, 2, 2] = 8.0
    output_map[1, 0, 0] = 8.0  # a clean candidate of class 0
    output_map[2, 1, 1] = np.inf  # inf class logit
    output_map[1, 2, 2] = 8.0
    output_map[1 + NUM_CLASSES, 2, 2] = np.nan  # NaN centre offset
    output_map[0, 3, 3] = 8.0
    output_map[1, 3, 3] = 8.0
    output_map[-1, 3, 3] = np.nan  # NaN height
    with np.errstate(invalid="ignore"):  # inf - inf in the softmax shift
        detections = codec.decode(output_map, conf_threshold=0.5)
    assert len(detections) == 1
    assert (detections.class_ids.tolist(), detections.boxes[:, :2].tolist()) == (
        [0],
        [[(clean[1] + 0.5) / 4, (clean[0] + 0.5) / 4]],
    )
    assert np.isfinite(detections.boxes).all() and (detections.scores < 1.0).all()
