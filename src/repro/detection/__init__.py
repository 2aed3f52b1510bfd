"""Object-detection substrate.

Implements the full detection tool-chain the paper's evaluation relies on:

* a frame's detections as arrays (``Detections``), box geometry, IoU and
  non-maximum suppression (:mod:`repro.detection.boxes`),
* a grid-cell target codec shared by the student model and its losses
  (:mod:`repro.detection.grid`),
* the lightweight **student** detector that runs on the edge device
  (:mod:`repro.detection.student`), a stand-in for YOLOv4-ResNet18,
* the high-capacity **teacher** detector that produces online labels in the
  cloud (:mod:`repro.detection.teacher`), a stand-in for Mask R-CNN /
  ResNeXt-101 modelled as a near-oracle with calibrated noise,
* mAP@0.5 / average-IoU evaluation metrics over frames matched once
  (:mod:`repro.detection.metrics`),
* offline pre-training of the student (:mod:`repro.detection.pretrain`).
"""

from repro.detection.boxes import (
    Detection,
    Detections,
    as_detections,
    iou_matrix,
    nms,
    match_greedy,
)
from repro.detection.grid import GridCodec, GridTargets
from repro.detection.student import StudentDetector, StudentConfig
from repro.detection.teacher import TeacherDetector, TeacherConfig
from repro.detection.metrics import (
    FrameMatches,
    average_precision,
    evaluate_map,
    evaluate_average_iou,
    windowed_map,
    label_consistency_loss,
    MAPResult,
)
from repro.detection.pretrain import pretrain_student, generate_offline_dataset

__all__ = [
    "Detection",
    "Detections",
    "as_detections",
    "iou_matrix",
    "nms",
    "match_greedy",
    "GridCodec",
    "GridTargets",
    "StudentDetector",
    "StudentConfig",
    "TeacherDetector",
    "TeacherConfig",
    "FrameMatches",
    "average_precision",
    "evaluate_map",
    "evaluate_average_iou",
    "windowed_map",
    "label_consistency_loss",
    "MAPResult",
    "pretrain_student",
    "generate_offline_dataset",
]
