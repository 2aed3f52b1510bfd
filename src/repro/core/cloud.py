"""The cloud half of the Shoggoth architecture (paper Fig. 2, right).

The cloud server hosts the shared teacher model and provides two services to
every connected edge device:

* **online labeling** — the teacher labels uploaded frame batches and the
  pseudo-labels are shipped back (Sec. III-A);
* **sampling-rate control** — from the teacher labels it computes the scene
  change signal φ, combines it with the device-reported α and λ, and adapts
  the device's frame sampling rate (Sec. III-C).

For the AMS baseline the cloud additionally hosts the student fine-tuning
itself (the paper's key contrast: Shoggoth offloads *labeling* to the cloud
but keeps *training* at the edge).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adaptive_training import AdaptiveTrainer, TrainingSessionReport
from repro.core.config import ShoggothConfig
from repro.core.labeling import LabeledFrame, OnlineLabeler
from repro.core.sampling import SamplingRateController, compute_phi
from repro.detection.student import StudentDetector
from repro.detection.teacher import TeacherDetector
from repro.runtime.device import CloudComputeModel
from repro.video.drift import DriftSchedule
from repro.video.stream import Frame

__all__ = ["CloudServer", "LabelingResponse", "CloudTrainingResult"]


@dataclass(frozen=True)
class LabelingResponse:
    """What the cloud returns for one uploaded batch."""

    labeled_frames: list[LabeledFrame]
    new_sampling_rate: float
    phi: float
    gpu_seconds: float

    @property
    def num_boxes(self) -> int:
        """Total pseudo-label boxes across the labeled frames."""
        return sum(item.num_boxes for item in self.labeled_frames)


@dataclass(frozen=True)
class CloudTrainingResult:
    """Result of a cloud-side fine-tuning session (AMS baseline)."""

    report: TrainingSessionReport
    model_state: dict[str, np.ndarray]
    gpu_seconds: float


class CloudServer:
    """Cloud server: teacher labeling, rate control and (optionally) training."""

    def __init__(
        self,
        teacher: TeacherDetector,
        schedule: DriftSchedule,
        config: ShoggothConfig | None = None,
        compute: CloudComputeModel | None = None,
    ) -> None:
        self.config = config or ShoggothConfig()
        self.schedule = schedule
        self.labeler = OnlineLabeler(teacher, self.config.labeling)
        self.controller = SamplingRateController(self.config.sampling)
        self.compute = compute or CloudComputeModel()
        self.total_gpu_seconds = 0.0
        # AMS support: a cloud-resident copy of the student and its trainer
        self._cloud_student: StudentDetector | None = None
        self._cloud_trainer: AdaptiveTrainer | None = None

    # -- labeling + rate control -------------------------------------------
    def process_upload(
        self,
        frames: list[Frame],
        alpha: float,
        lambda_usage: float,
        schedule: DriftSchedule | None = None,
        controller: SamplingRateController | None = None,
    ) -> LabelingResponse:
        """Label an uploaded batch and adapt the device's sampling rate.

        ``schedule`` and ``controller`` default to the server's own (the
        single-camera case); fleet sessions pass the uploading camera's
        drift schedule and its per-tenant rate controller so one shared
        server can serve heterogeneous streams without coupling their
        sampling-rate state.
        """
        if not frames:
            raise ValueError("uploaded batch is empty")
        schedule = schedule or self.schedule
        controller = controller or self.controller
        domains = [schedule.domain_at(frame.index) for frame in frames]
        labeled = self.labeler.label_batch(frames, domains)
        phi = compute_phi([item.detections for item in labeled])
        new_rate = controller.update(phi=phi, alpha=alpha, lambda_current=lambda_usage)

        gpu_seconds = self.labeler.gpu_seconds(len(frames))
        self.total_gpu_seconds += gpu_seconds
        return LabelingResponse(
            labeled_frames=labeled,
            new_sampling_rate=new_rate,
            phi=phi,
            gpu_seconds=gpu_seconds,
        )

    # -- AMS-style cloud training --------------------------------------------
    def attach_cloud_student(
        self, student: StudentDetector, seed: int = 0, replay_seed: tuple | None = None
    ) -> None:
        """Host a copy of the edge student for cloud-side fine-tuning (AMS)."""
        self._cloud_student = student.clone()
        self._cloud_trainer = AdaptiveTrainer(
            self._cloud_student, self.config.training, seed=seed
        )
        if replay_seed is not None:
            self._cloud_trainer.seed_replay(*replay_seed)

    @property
    def hosts_training(self) -> bool:
        """Whether this server fine-tunes a cloud-resident student (AMS)."""
        return self._cloud_trainer is not None

    def train_on_labels(self, labeled: list[LabeledFrame]) -> CloudTrainingResult:
        """Fine-tune the cloud-resident student copy and return its weights."""
        if self._cloud_trainer is None or self._cloud_student is None:
            raise RuntimeError("cloud training requested but no cloud student attached")
        if not labeled:
            raise ValueError("no labeled frames to train on")
        images = np.stack([item.frame.image for item in labeled])
        targets = [item.pseudo_labels for item in labeled]
        report = self._cloud_trainer.train_session(images, targets)
        gpu_seconds = self.compute.training_seconds(report.num_steps)
        self.total_gpu_seconds += gpu_seconds
        return CloudTrainingResult(
            report=report,
            model_state=self._cloud_student.state_dict(),
            gpu_seconds=gpu_seconds,
        )

    # -- capacity ---------------------------------------------------------------
    def gpu_seconds_per_stream_second(self, stream_duration: float) -> float:
        """Average GPU occupancy per second of video served (scalability metric)."""
        if stream_duration <= 0:
            raise ValueError("stream_duration must be positive")
        return self.total_gpu_seconds / stream_duration
