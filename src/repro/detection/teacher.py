"""High-capacity teacher detector used for online labeling in the cloud.

The paper uses "an expensive golden model (Mask R-CNN with ResNeXt-101)" on a
V100 GPU and verifies that "the generated labels are very similar to
human-annotated labels".  The teacher therefore plays exactly one role in the
system: an accurate-but-costly label generator whose residual error grows
slightly with scene difficulty.

Training and running a billion-parameter model is neither possible nor
necessary offline, so the teacher is modelled as a near-oracle: it reads the
synthetic frame's ground truth and corrupts it with calibrated noise (missed
detections, false positives, localisation jitter, label confusion), all of
which increase with the domain difficulty.  Its compute cost and parameter
count are modelled explicitly because the evaluation uses them (cloud GPU
occupancy, Cloud-Only latency, scalability arguments).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.boxes import Detections
from repro.video.domains import Domain, NUM_CLASSES
from repro.video.scene import GroundTruthBox
from repro.video.stream import Frame

__all__ = ["TeacherConfig", "TeacherDetector"]


@dataclass(frozen=True)
class TeacherConfig:
    """Noise and cost calibration of the near-oracle teacher."""

    #: probability of missing a ground-truth object in an easy (difficulty 0) domain
    base_miss_rate: float = 0.02
    #: additional miss probability at difficulty 1.0
    difficulty_miss_rate: float = 0.22
    #: expected number of spurious detections per frame in an easy domain
    base_false_positive_rate: float = 0.03
    #: additional expected false positives at difficulty 1.0
    difficulty_false_positive_rate: float = 0.25
    #: probability of predicting the wrong class for a detected object
    base_class_confusion: float = 0.02
    #: additional class-confusion probability at difficulty 1.0
    difficulty_class_confusion: float = 0.10
    #: std of the localisation jitter relative to the object size
    localization_jitter: float = 0.04
    #: confidence range assigned to true detections
    min_confidence: float = 0.72
    max_confidence: float = 0.99
    #: inference time per frame on the cloud GPU (V100-like), seconds
    inference_seconds: float = 0.050
    #: nominal parameter count ("billions of model parameters", Sec. III-A)
    num_parameters: int = 140_000_000
    seed: int = 7

    def __post_init__(self) -> None:
        rates = (
            self.base_miss_rate,
            self.difficulty_miss_rate,
            self.base_false_positive_rate,
            self.difficulty_false_positive_rate,
            self.base_class_confusion,
            self.difficulty_class_confusion,
        )
        if any(r < 0 for r in rates):
            raise ValueError("noise rates must be non-negative")
        if not 0.0 < self.min_confidence <= self.max_confidence <= 1.0:
            raise ValueError("confidence range must satisfy 0 < min <= max <= 1")
        if self.localization_jitter < 0:
            raise ValueError("localization_jitter must be non-negative")
        if self.inference_seconds <= 0:
            raise ValueError("inference_seconds must be positive")


class TeacherDetector:
    """Near-oracle detector with domain-difficulty-dependent noise."""

    def __init__(self, config: TeacherConfig | None = None) -> None:
        self.config = config or TeacherConfig()
        self._rng = np.random.default_rng(self.config.seed)

    # -- cost model ---------------------------------------------------------
    @property
    def inference_seconds(self) -> float:
        """Per-frame inference cost on the cloud GPU."""
        return self.config.inference_seconds

    @property
    def num_parameters(self) -> int:
        return self.config.num_parameters

    # -- labeling -------------------------------------------------------------
    def detect(self, frame: Frame, domain: Domain) -> Detections:
        """Produce pseudo-labels for one frame under the given domain."""
        cfg = self.config
        difficulty = domain.difficulty
        miss_rate = min(0.95, cfg.base_miss_rate + cfg.difficulty_miss_rate * difficulty)
        confusion = min(0.95, cfg.base_class_confusion + cfg.difficulty_class_confusion * difficulty)
        fp_rate = cfg.base_false_positive_rate + cfg.difficulty_false_positive_rate * difficulty

        rows: list[tuple[int, float, float, float, float, float]] = []
        for box in frame.ground_truth:
            if self._rng.random() < miss_rate:
                continue
            rows.append(self._perturb(box, confusion))

        for _ in range(int(self._rng.poisson(fp_rate))):
            rows.append(self._false_positive())

        return Detections.from_rows(rows)

    def label_frames(self, frames: list[Frame], domains: list[Domain]) -> list[Detections]:
        """Label a batch of frames (one domain per frame)."""
        if len(frames) != len(domains):
            raise ValueError("frames and domains must have the same length")
        return [self.detect(frame, domain) for frame, domain in zip(frames, domains)]

    # -- internals --------------------------------------------------------------
    # each returns one ``(class_id, cx, cy, w, h, score)`` row
    def _perturb(
        self, box: GroundTruthBox, confusion: float
    ) -> tuple[int, float, float, float, float, float]:
        cfg = self.config
        jitter = cfg.localization_jitter
        cx = float(np.clip(box.cx + self._rng.normal(0, jitter * box.w), 0.0, 1.0))
        cy = float(np.clip(box.cy + self._rng.normal(0, jitter * box.h), 0.0, 1.0))
        w = float(max(0.01, box.w * (1.0 + self._rng.normal(0, jitter))))
        h = float(max(0.01, box.h * (1.0 + self._rng.normal(0, jitter))))
        class_id = box.class_id
        if self._rng.random() < confusion:
            choices = [c for c in range(NUM_CLASSES) if c != class_id]
            class_id = int(self._rng.choice(choices))
        score = float(self._rng.uniform(cfg.min_confidence, cfg.max_confidence))
        return class_id, cx, cy, w, h, score

    def _false_positive(self) -> tuple[int, float, float, float, float, float]:
        cfg = self.config
        # the arguments are evaluated, and so drawn, left to right
        return (
            int(self._rng.integers(0, NUM_CLASSES)),
            float(self._rng.uniform(0.1, 0.9)),
            float(self._rng.uniform(0.1, 0.9)),
            float(self._rng.uniform(0.08, 0.25)),
            float(self._rng.uniform(0.06, 0.2)),
            float(self._rng.uniform(cfg.min_confidence, 0.85)),
        )
