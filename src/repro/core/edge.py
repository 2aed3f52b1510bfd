"""The edge-device half of the Shoggoth architecture (paper Fig. 2, left).

The edge device owns the lightweight student model and is responsible for:

* real-time inference on every incoming frame;
* sampling frames at the rate the cloud's controller assigns and buffering
  them for upload;
* running adaptive-training sessions on labeled batches returned by the
  cloud (when training happens at the edge, which is Shoggoth's key
  difference from AMS);
* reporting its estimated accuracy α and resource usage λ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adaptive_training import AdaptiveTrainer, TrainingSessionReport
from repro.core.config import ShoggothConfig
from repro.core.labeling import LabeledFrame
from repro.core.sampling import alpha_counts
from repro.detection.boxes import Detections
from repro.detection.student import StudentDetector
from repro.runtime.device import EdgeComputeModel
from repro.video.stream import Frame

__all__ = ["EdgeDevice", "TrainingWindow"]


@dataclass(frozen=True)
class TrainingWindow:
    """Wall-clock interval during which adaptive training occupies the device."""

    start: float
    end: float
    report: TrainingSessionReport

    @property
    def duration(self) -> float:
        """Wall-clock length of the training window in seconds."""
        return self.end - self.start


class EdgeDevice:
    """Edge device running real-time inference plus (optionally) adaptation."""

    def __init__(
        self,
        student: StudentDetector,
        config: ShoggothConfig | None = None,
        compute: EdgeComputeModel | None = None,
        trainer: AdaptiveTrainer | None = None,
        seed: int = 0,
    ) -> None:
        self.config = config or ShoggothConfig()
        self.student = student
        self.compute = compute or EdgeComputeModel()
        self.trainer = trainer
        self._rng = np.random.default_rng(seed)

        self.sampling_rate = self.config.sampling.initial_rate_fps
        self._next_sample_time = 0.0
        self.sample_buffer: list[Frame] = []
        self.training_pool: list[LabeledFrame] = []
        self.training_windows: list[TrainingWindow] = []
        self._training_busy_until = 0.0
        # α's running counts since the last report (see estimate_alpha)
        self._alpha_confident = 0
        self._alpha_total = 0

    # -- inference -----------------------------------------------------------
    def detect(self, frame: Frame) -> Detections:
        """Run the student on one frame and count the result towards α."""
        detections = self.student.detect(frame.image)
        confident, total = alpha_counts(
            detections, self.config.sampling.confidence_threshold
        )
        self._alpha_confident += confident
        self._alpha_total += total
        return detections

    def estimated_alpha(self) -> float:
        """α since the last report, as :func:`estimate_alpha` defines it.

        The call resets the counts.
        """
        confident, total = self._alpha_confident, self._alpha_total
        self._alpha_confident = self._alpha_total = 0
        if total == 0:
            return 0.0
        return confident / total

    # -- sampling ---------------------------------------------------------------
    def set_sampling_rate(self, rate_fps: float) -> None:
        """Apply a sampling rate assigned by the cloud controller."""
        if rate_fps <= 0:
            raise ValueError("sampling rate must be positive")
        self.sampling_rate = rate_fps

    def maybe_sample(self, frame: Frame) -> bool:
        """Buffer the frame for upload if the sampling schedule selects it."""
        if frame.timestamp + 1e-9 < self._next_sample_time:
            return False
        self.sample_buffer.append(frame)
        self._next_sample_time = frame.timestamp + 1.0 / self.sampling_rate
        return True

    def upload_ready(self) -> bool:
        """Whether enough samples are buffered to ship a batch to the cloud."""
        return len(self.sample_buffer) >= self.config.sampling.upload_batch_frames

    def take_upload_batch(self) -> list[Frame]:
        """Pop the buffered samples for upload (the buffer is emptied)."""
        batch = self.sample_buffer
        self.sample_buffer = []
        return batch

    # -- training ---------------------------------------------------------------
    def receive_labels(self, labeled: list[LabeledFrame]) -> None:
        """Store labeled frames returned by the cloud for the next session."""
        self.training_pool.extend(labeled)

    def training_ready(self) -> bool:
        """Whether the training pool has accumulated a full training batch."""
        return len(self.training_pool) >= self.config.training.train_batch_size

    def run_training_session(self, now: float) -> TrainingWindow:
        """Run one adaptive-training session on the pooled labeled frames."""
        if self.trainer is None:
            raise RuntimeError("this edge device has no trainer attached")
        if not self.training_pool:
            raise RuntimeError("training pool is empty")
        batch = self.training_pool
        self.training_pool = []

        images = np.stack([item.frame.image for item in batch])
        labels = [item.pseudo_labels for item in batch]
        report = self.trainer.train_session(images, labels)

        start = max(now, self._training_busy_until)
        wall = self.compute.training_wall_seconds(report.cost)
        window = TrainingWindow(start=start, end=start + wall, report=report)
        self.training_windows.append(window)
        self._training_busy_until = window.end
        return window

    def apply_model_update(self, state: dict[str, np.ndarray]) -> None:
        """Replace the student weights (AMS model streaming)."""
        self.student.load_state_dict(state)

    # -- capacity / utilisation ---------------------------------------------------
    def is_training_at(self, timestamp: float) -> bool:
        """Whether an adaptive-training session occupies the device at ``timestamp``."""
        return any(w.start <= timestamp < w.end for w in self.training_windows)

    def fps_at(self, timestamp: float) -> float:
        """Sustainable inference FPS at ``timestamp`` (capped by the video rate elsewhere)."""
        if self.is_training_at(timestamp):
            return self.compute.fps_while_training
        return self.compute.max_fps

    def utilization_at(self, timestamp: float, video_fps: float) -> float:
        """Fraction of compute in use at ``timestamp`` (the λ signal)."""
        inference_fps = min(video_fps, self.fps_at(timestamp))
        usage = inference_fps * self.compute.inference_seconds_per_frame
        if self.is_training_at(timestamp):
            usage += self.compute.training_share
        return min(1.0, usage)
