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
but keeps *training* at the edge).  Each AMS tenant's cloud-resident
student and trainer live with its GPU worker
(:class:`~repro.core.actors.CloudActor`), which returns a
:class:`CloudTrainingResult`; the server itself keeps no per-camera
state, so one server serves a whole fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adaptive_training import TrainingSessionReport
from repro.core.config import ShoggothConfig
from repro.core.labeling import LabeledFrame, OnlineLabeler
from repro.core.sampling import SamplingRateController, compute_phi
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
    """Cloud server: the shared teacher labeler and GPU-time totals."""

    def __init__(
        self,
        teacher: TeacherDetector,
        config: ShoggothConfig | None = None,
        compute: CloudComputeModel | None = None,
    ) -> None:
        self.config = config or ShoggothConfig()
        self.labeler = OnlineLabeler(teacher, self.config.labeling)
        self.compute = compute or CloudComputeModel()
        self.total_gpu_seconds = 0.0

    # -- labeling + rate control -------------------------------------------
    def process_upload(
        self,
        frames: list[Frame],
        alpha: float,
        lambda_usage: float,
        schedule: DriftSchedule,
        controller: SamplingRateController,
    ) -> LabelingResponse:
        """Label an uploaded batch and adapt the device's sampling rate.

        ``schedule`` and ``controller`` are the uploading camera's drift
        schedule and rate controller, so one shared server can serve
        heterogeneous streams without coupling their sampling-rate
        state.
        """
        if not frames:
            raise ValueError("uploaded batch is empty")
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
