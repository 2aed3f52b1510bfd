"""Tests for box geometry, NMS, matching and evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection import (
    Detection,
    Detections,
    average_precision,
    evaluate_average_iou,
    evaluate_map,
    iou_matrix,
    label_consistency_loss,
    match_greedy,
    nms,
    windowed_map,
)
from repro.detection.boxes import pair_iou
from repro.video import GroundTruthBox


def det(class_id=0, cx=0.5, cy=0.5, w=0.2, h=0.2, score=0.9):
    return Detection(class_id=class_id, cx=cx, cy=cy, w=w, h=h, score=score)


def gt(class_id=0, cx=0.5, cy=0.5, w=0.2, h=0.2):
    return GroundTruthBox(class_id=class_id, cx=cx, cy=cy, w=w, h=h)


class TestValidation:
    @pytest.mark.parametrize(
        "field", [{"w": float("nan")}, {"h": float("nan")}, {"cx": float("nan")},
                  {"cy": float("inf")}, {"w": float("inf")}, {"w": 0.0},
                  {"score": float("nan")}, {"score": 1.5}, {"class_id": -1}],
    )
    def test_detection_rejects(self, field):
        with pytest.raises(ValueError):
            det(**field)
        values = {"class_id": 0, "cx": 0.5, "cy": 0.5, "w": 0.2, "h": 0.2, "score": 0.9}
        values.update(field)
        row = tuple(values[k] for k in ("class_id", "cx", "cy", "w", "h", "score"))
        with pytest.raises(ValueError):
            Detections.from_rows([(0, 0.5, 0.5, 0.2, 0.2, 0.9), row])

    def test_detections_round_trip(self):
        records = [det(), det(class_id=2, cx=0.3, score=0.4)]
        detections = Detections.from_rows(
            (d.class_id, d.cx, d.cy, d.w, d.h, d.score) for d in records
        )
        assert list(detections) == records and detections[1] == records[1]
        assert len(detections[detections.scores > 0.5]) == 1
        assert not detections.boxes.flags.writeable


def iou(a, b):
    """IoU of two corner boxes given as tuples."""
    return float(pair_iou(np.array(a, dtype=float), np.array(b, dtype=float)))


class TestIoU:
    def test_identical_boxes(self):
        assert iou((0, 0, 1, 1), (0, 0, 1, 1)) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        assert iou((0, 0, 0.4, 0.4), (0.6, 0.6, 1, 1)) == 0.0

    def test_half_overlap(self):
        assert iou((0, 0, 1, 1), (0.5, 0, 1.5, 1)) == pytest.approx(1 / 3)

    def test_degenerate_box(self):
        assert iou((0, 0, 0, 0), (0, 0, 1, 1)) == 0.0

    def test_iou_matrix_shape(self):
        m = iou_matrix([det(), det(cx=0.2)], [gt(), gt(cx=0.8), gt(cx=0.2)])
        assert m.shape == (2, 3)
        assert m[0, 0] > 0.9

    def test_iou_matrix_empty(self):
        assert iou_matrix([], [gt()]).shape == (0, 1)

    @settings(deadline=None, max_examples=30)
    @given(
        cx=st.floats(0.2, 0.8), cy=st.floats(0.2, 0.8),
        w=st.floats(0.05, 0.3), h=st.floats(0.05, 0.3),
    )
    def test_iou_symmetric_and_bounded(self, cx, cy, w, h):
        a = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        b = (0.3, 0.3, 0.7, 0.7)
        assert iou(a, b) == pytest.approx(iou(b, a))
        assert 0.0 <= iou(a, b) <= 1.0


class TestNMS:
    def test_suppresses_duplicates(self):
        detections = [det(score=0.9), det(score=0.8, cx=0.51), det(cx=0.9, score=0.7)]
        kept = nms(detections, iou_threshold=0.5)
        assert len(kept) == 2
        assert kept[0].score == 0.9

    def test_keeps_different_classes(self):
        detections = [det(class_id=0, score=0.9), det(class_id=1, score=0.8)]
        assert len(nms(detections)) == 2

    def test_empty(self):
        assert nms([]) == []

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            nms([det()], iou_threshold=0.0)


class TestMatching:
    def test_greedy_matches_best(self):
        detections = [det(score=0.9), det(cx=0.9, score=0.8)]
        ground_truth = [gt(), gt(cx=0.9)]
        matches = match_greedy(detections, ground_truth)
        assert len(matches) == 2

    def test_class_aware(self):
        matches = match_greedy([det(class_id=1)], [gt(class_id=0)])
        assert matches == []

    def test_each_gt_matched_once(self):
        detections = [det(score=0.9), det(score=0.8, cx=0.52)]
        matches = match_greedy(detections, [gt()])
        assert len(matches) == 1


class TestAveragePrecision:
    def test_perfect_detector(self):
        ap = average_precision(np.array([0.9, 0.8]), np.array([True, True]), 2)
        assert ap == pytest.approx(1.0)

    def test_all_false_positives(self):
        ap = average_precision(np.array([0.9, 0.8]), np.array([False, False]), 2)
        assert ap == 0.0

    def test_no_ground_truth(self):
        assert average_precision(np.array([0.9]), np.array([True]), 0) == 0.0

    def test_no_detections(self):
        assert average_precision(np.zeros(0), np.zeros(0, dtype=bool), 3) == 0.0

    def test_partial(self):
        ap = average_precision(np.array([0.9, 0.8]), np.array([True, False]), 2)
        assert 0.0 < ap < 1.0


class TestEvaluateMAP:
    def test_perfect_predictions(self):
        frames_gt = [[gt()], [gt(cx=0.3), gt(class_id=1, cx=0.7)]]
        frames_det = [[det(score=0.95)], [det(cx=0.3, score=0.9), det(class_id=1, cx=0.7, score=0.9)]]
        result = evaluate_map(frames_det, frames_gt)
        assert result.map50 == pytest.approx(1.0)
        assert result.num_ground_truth == 3

    def test_missing_detections_reduce_map(self):
        frames_gt = [[gt(), gt(cx=0.2)]]
        frames_det = [[det(score=0.9)]]
        assert 0.0 < evaluate_map(frames_det, frames_gt).map50 < 1.0

    def test_false_positives_reduce_map(self):
        frames_gt = [[gt()]]
        clean = evaluate_map([[det(score=0.9)]], frames_gt).map50
        noisy = evaluate_map(
            [[det(score=0.95, cx=0.9), det(score=0.9)]], frames_gt
        ).map50
        assert noisy < clean

    def test_skips_absent_classes(self):
        result = evaluate_map([[det(class_id=0, score=0.9)]], [[gt(class_id=0)]])
        assert set(result.per_class_ap) == {0}

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            evaluate_map([[]], [[], []])

    def test_wrong_class_detection_gets_zero(self):
        result = evaluate_map([[det(class_id=1, score=0.9)]], [[gt(class_id=0)]])
        assert result.map50 == 0.0


class TestAverageIoU:
    def test_perfect_localisation(self):
        assert evaluate_average_iou([[det()]], [[gt()]]) == pytest.approx(1.0, abs=1e-6)

    def test_missed_objects_count_as_zero(self):
        value = evaluate_average_iou([[det()]], [[gt(), gt(cx=0.1)]])
        assert 0.4 < value < 0.6

    def test_empty_frames(self):
        assert evaluate_average_iou([[]], [[]]) == 0.0

    def test_length_mismatch_raises(self):
        # the second frame's box was never detected; it must not be dropped
        with pytest.raises(ValueError, match="same frames"):
            evaluate_average_iou([[det()]], [[gt()], [gt()]])


class TestWindowedMAP:
    def test_window_count(self):
        frames_gt = [[gt()]] * 10
        frames_det = [[det(score=0.9)]] * 10
        values = windowed_map(frames_det, frames_gt, window=5)
        assert values.shape == (2,)
        assert np.allclose(values, 1.0)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            windowed_map([], [], window=0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="same frames"):
            windowed_map([[det()]], [[gt()], [gt()]], window=30)


class TestLabelConsistency:
    def test_identical_labels_zero(self):
        labels = [gt(), gt(cx=0.2, class_id=1)]
        assert label_consistency_loss(labels, labels) == 0.0

    def test_disjoint_labels_one(self):
        assert label_consistency_loss([gt(cx=0.1)], [gt(cx=0.9)]) == pytest.approx(1.0)

    def test_empty_both(self):
        assert label_consistency_loss([], []) == 0.0

    def test_one_empty(self):
        assert label_consistency_loss([gt()], []) == 1.0

    def test_partial_overlap(self):
        value = label_consistency_loss([gt(), gt(cx=0.9)], [gt()])
        assert 0.0 < value < 1.0

    def test_class_change_counts_as_change(self):
        assert label_consistency_loss([gt(class_id=0)], [gt(class_id=1)]) == 1.0
