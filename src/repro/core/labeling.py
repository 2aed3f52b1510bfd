"""Online labeling in the cloud (paper Sec. III-A, Eq. 1).

The cloud runs the teacher detector on every uploaded frame and converts its
output into pseudo-labels for student training.  Following Eq. (1), every
region the teacher detects is treated as a positive sample (label 1) and
everything else as background (label 0); pseudo-labeled data from every
domain is treated "equally for loss", i.e. the labels are handed to the edge
without reweighting.  Low-confidence teacher detections are discarded to keep
the pseudo-labels clean.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import LabelingConfig
from repro.detection.boxes import Detections
from repro.detection.teacher import TeacherDetector
from repro.video.domains import Domain
from repro.video.stream import Frame

__all__ = ["LabeledFrame", "OnlineLabeler"]


@dataclass(frozen=True)
class LabeledFrame:
    """An uploaded frame together with its teacher pseudo-labels."""

    frame: Frame
    detections: Detections

    @property
    def pseudo_labels(self) -> Detections:
        """Positive training samples (Eq. 1: label 1 for detector outputs).

        :meth:`GridCodec.encode` reads a detection's class and box as it
        reads a ground-truth box's, and ignores the score.
        """
        return self.detections

    @property
    def num_boxes(self) -> int:
        """How many pseudo-label boxes the teacher produced for this frame."""
        return len(self.detections)


class OnlineLabeler:
    """Wraps the teacher detector into the cloud's labeling service."""

    def __init__(self, teacher: TeacherDetector, config: LabelingConfig | None = None) -> None:
        self.teacher = teacher
        self.config = config or LabelingConfig()

    def label_frame(self, frame: Frame, domain: Domain) -> LabeledFrame:
        """Label one frame; detections below the confidence floor are dropped."""
        detections = self.teacher.detect(frame, domain)
        confident = detections.scores >= self.config.min_teacher_confidence
        return LabeledFrame(frame=frame, detections=detections[confident])

    def label_batch(self, frames: list[Frame], domains: list[Domain]) -> list[LabeledFrame]:
        """Label an uploaded batch of frames."""
        if len(frames) != len(domains):
            raise ValueError("frames and domains must have the same length")
        return [self.label_frame(frame, domain) for frame, domain in zip(frames, domains)]

    def gpu_seconds(self, num_frames: int) -> float:
        """Teacher GPU time needed to label ``num_frames`` frames."""
        if num_frames < 0:
            raise ValueError("num_frames must be non-negative")
        return num_frames * self.teacher.inference_seconds
