"""Adaptive frame sampling: the φ/α/λ signals and the rate controller.

Paper Sec. III-C defines three signals and a controller:

* **φ** — the rate of scene change, measured in the cloud from the teacher's
  labels on consecutive sampled frames: φ_k is the task loss of the teacher's
  labels on frame k evaluated against its labels on frame k-1.  Slow scenes
  give small φ.
* **α** — the estimated inference accuracy on the edge: the fraction of
  predictions whose (normalised) confidence exceeds a threshold θ (0.5 for
  detection).
* **λ** — edge resource usage, collected every second and reported to the
  cloud.

The controller (Eq. 2-3) nudges each device's sampling rate towards keeping
φ near φ_target and α near α_target while scaling with the resource-usage
trend, clamped to ``[r_min, r_max]``::

    r_{t+1} = [ R(φ) + R(α) + R(λ) ]_{r_min}^{r_max}
    R(φ) = η_r · (φ̄_t − φ_target)
    R(α) = η_α · max(0, α_target − α_t)
    R(λ) = (1 + λ̄_{t+1} − λ̄_t) · r_t
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SamplingConfig
from repro.detection.boxes import Detection, Detections, as_detections
from repro.detection.metrics import label_consistency_loss
from repro.video.scene import GroundTruthBox

__all__ = [
    "SamplingSignals",
    "compute_phi",
    "alpha_counts",
    "estimate_alpha",
    "SamplingRateController",
]


@dataclass(frozen=True)
class SamplingSignals:
    """One controller update's inputs (kept for logging/analysis)."""

    phi: float
    alpha: float
    lambda_previous: float
    lambda_current: float
    rate_before: float
    rate_after: float


def compute_phi(
    labels_per_frame: list[Detections] | list[list[Detection]] | list[list[GroundTruthBox]],
    iou_threshold: float = 0.3,
) -> float:
    """Mean scene-change score φ̄ over a batch of consecutively-sampled frames.

    φ_k is the label-consistency loss between the teacher labels of frame k
    and frame k-1; the batch mean is what the controller consumes.  Sampled
    frames can be up to ten video-seconds apart, so a fairly loose IoU
    threshold is used when matching labels across them — the signal should
    capture *scene* change (new objects, class-mix change), not ordinary
    object motion between samples.
    """
    if len(labels_per_frame) < 2:
        return 0.0
    values = [
        label_consistency_loss(
            labels_per_frame[k], labels_per_frame[k - 1], iou_threshold=iou_threshold
        )
        for k in range(1, len(labels_per_frame))
    ]
    return float(np.mean(values))


def alpha_counts(
    detections: Detections | list[Detection], confidence_threshold: float
) -> tuple[int, int]:
    """One frame's ``(confident, total)`` predictions towards α.

    A frame with no predictions counts as one "inaccurate" pseudo-prediction,
    so a model that stops detecting anything (typical under drift) drives α
    down instead of leaving it undefined.
    """
    if not len(detections):
        return 0, 1
    scores = as_detections(detections).scores
    return int(np.count_nonzero(scores >= confidence_threshold)), scores.size


def estimate_alpha(
    detections_per_frame: list[Detections] | list[list[Detection]],
    confidence_threshold: float = 0.5,
) -> float:
    """Estimated accuracy α: fraction of predictions above the threshold θ.

    Each frame counts as :func:`alpha_counts` says.
    """
    if not 0.0 < confidence_threshold < 1.0:
        raise ValueError("confidence_threshold must be in (0, 1)")
    confident = 0
    total = 0
    for detections in detections_per_frame:
        frame_confident, frame_total = alpha_counts(detections, confidence_threshold)
        confident += frame_confident
        total += frame_total
    if total == 0:
        return 0.0
    return confident / total


class SamplingRateController:
    """Cloud-side controller that adapts each edge device's sampling rate."""

    def __init__(self, config: SamplingConfig | None = None) -> None:
        self.config = config or SamplingConfig()
        self._rate = self.config.initial_rate_fps
        self._lambda_previous = 0.0
        self.history: list[SamplingSignals] = []

    @property
    def rate(self) -> float:
        """Current sampling rate in frames per second."""
        return self._rate

    def reset(self, rate: float | None = None) -> None:
        """Reset the controller state (used when a device re-registers)."""
        self._rate = rate if rate is not None else self.config.initial_rate_fps
        self._rate = float(np.clip(self._rate, self.config.min_rate_fps, self.config.max_rate_fps))
        self._lambda_previous = 0.0
        self.history.clear()

    def update(self, phi: float, alpha: float, lambda_current: float) -> float:
        """Apply Eq. (2)-(3) and return the new sampling rate.

        If the controller is configured as non-adaptive (fixed-rate operation,
        e.g. the Prompt baseline), the rate is returned unchanged.
        """
        cfg = self.config
        if not cfg.adaptive:
            self.history.append(
                SamplingSignals(phi, alpha, self._lambda_previous, lambda_current, self._rate, self._rate)
            )
            self._lambda_previous = lambda_current
            return self._rate

        r_phi = cfg.eta_r * (phi - cfg.phi_target)
        r_alpha = cfg.eta_alpha * max(0.0, cfg.alpha_target - alpha)
        r_lambda = (1.0 + lambda_current - self._lambda_previous) * self._rate

        new_rate = float(np.clip(r_phi + r_alpha + r_lambda, cfg.min_rate_fps, cfg.max_rate_fps))
        self.history.append(
            SamplingSignals(
                phi=phi,
                alpha=alpha,
                lambda_previous=self._lambda_previous,
                lambda_current=lambda_current,
                rate_before=self._rate,
                rate_after=new_rate,
            )
        )
        self._lambda_previous = lambda_current
        self._rate = new_rate
        return new_rate
