"""Compute cost models for the edge device and the cloud server.

Calibration targets (paper Sec. IV):

* the edge device sustains 30 fps of student inference when idle (Edge-Only
  bar in Fig. 4);
* while an adaptive-training session runs, inference throughput halves to
  about 15 fps (Fig. 4 right), because training takes a fixed share of the
  device's compute;
* the averaged FPS loss of Shoggoth vs Edge-Only is small (≈2.7 fps) because
  training sessions are short;
* the cloud V100 runs the heavyweight teacher at tens of milliseconds per
  frame and, for the AMS baseline, also hosts student fine-tuning, which is
  what limits how many edge devices one GPU can serve.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TrainingCost", "TrainingCostModel", "EdgeComputeModel", "CloudComputeModel"]


@dataclass(frozen=True)
class TrainingCost:
    """Simulated cost of one adaptive-training session."""

    forward_seconds: float
    backward_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.forward_seconds + self.backward_seconds


@dataclass(frozen=True)
class TrainingCostModel:
    """Per-image costs of crossing the student network, split at the replay layer.

    The paper's Table II compares training time for different replay-layer
    placements; the driver is how many images must cross the expensive front
    layers on each pass.  We model per-image forward/backward costs for the
    front portion (input .. replay layer) and the rear portion (replay layer
    .. output); the adaptive trainer combines them with the actual number of
    images taking each path.
    """

    front_forward_per_image: float = 0.010
    front_backward_per_image: float = 0.012
    rear_forward_per_image: float = 0.004
    rear_backward_per_image: float = 0.005

    @classmethod
    def from_split(
        cls,
        front_fraction: float,
        forward_per_image: float = 0.014,
        backward_per_image: float = 0.017,
    ) -> "TrainingCostModel":
        """Build a cost model by splitting whole-network per-image costs.

        ``front_fraction`` is the fraction of compute spent before the replay
        layer (0.0 when replay happens at the input, close to 1.0 when it
        happens at the penultimate layer).
        """
        if not 0.0 <= front_fraction <= 1.0:
            raise ValueError("front_fraction must be in [0, 1]")
        if forward_per_image <= 0 or backward_per_image <= 0:
            raise ValueError("per-image costs must be positive")
        return cls(
            front_forward_per_image=forward_per_image * front_fraction,
            front_backward_per_image=backward_per_image * front_fraction,
            rear_forward_per_image=forward_per_image * (1.0 - front_fraction),
            rear_backward_per_image=backward_per_image * (1.0 - front_fraction),
        )

    def __post_init__(self) -> None:
        costs = (
            self.front_forward_per_image,
            self.front_backward_per_image,
            self.rear_forward_per_image,
            self.rear_backward_per_image,
        )
        if any(c < 0 for c in costs):
            raise ValueError("per-image costs must be non-negative")

    def session_cost(
        self,
        new_image_passes: int,
        replay_image_passes: int,
        front_backward_passes: int,
    ) -> TrainingCost:
        """Cost of a training session.

        ``new_image_passes``: image-passes that cross the full network
        (current-batch images).
        ``replay_image_passes``: image-passes that enter at the replay layer
        and only cross the rear portion (stored activations).
        ``front_backward_passes``: image-passes whose gradient continues into
        the front layers (0 when the front is frozen).
        """
        if min(new_image_passes, replay_image_passes, front_backward_passes) < 0:
            raise ValueError("pass counts must be non-negative")
        forward = (
            new_image_passes * (self.front_forward_per_image + self.rear_forward_per_image)
            + replay_image_passes * self.rear_forward_per_image
        )
        backward = (
            (new_image_passes + replay_image_passes) * self.rear_backward_per_image
            + front_backward_passes * self.front_backward_per_image
        )
        return TrainingCost(forward_seconds=forward, backward_seconds=backward)


@dataclass(frozen=True)
class EdgeComputeModel:
    """Compute capacity of the edge device (Jetson TX2 class)."""

    #: student inference time per frame when the device is otherwise idle
    inference_seconds_per_frame: float = 1.0 / 30.0
    #: fraction of compute handed to an active training session
    training_share: float = 0.5
    #: cost model for adaptive training
    training_cost: TrainingCostModel = TrainingCostModel()

    def __post_init__(self) -> None:
        if self.inference_seconds_per_frame <= 0:
            raise ValueError("inference time must be positive")
        if not 0.0 < self.training_share < 1.0:
            raise ValueError("training_share must be in (0, 1)")

    @property
    def max_fps(self) -> float:
        """Inference throughput with no training load."""
        return 1.0 / self.inference_seconds_per_frame

    @property
    def fps_while_training(self) -> float:
        """Inference throughput while a training session occupies its share."""
        return (1.0 - self.training_share) / self.inference_seconds_per_frame

    def training_wall_seconds(self, cost: TrainingCost) -> float:
        """Wall-clock duration of a training session given its compute share.

        The session gets ``training_share`` of the device, so its wall time is
        the raw compute time divided by that share.
        """
        return cost.total_seconds / self.training_share


@dataclass(frozen=True)
class CloudComputeModel:
    """Compute capacity of the cloud GPU (V100 class)."""

    #: teacher (golden model) inference time per frame
    teacher_inference_seconds: float = 0.050
    #: cloud-side fine-tuning time per mini-batch step (AMS baseline)
    training_seconds_per_step: float = 0.030

    def __post_init__(self) -> None:
        if self.teacher_inference_seconds <= 0 or self.training_seconds_per_step <= 0:
            raise ValueError("cloud compute times must be positive")

    def training_seconds(self, num_steps: int) -> float:
        """GPU time for a cloud-side fine-tuning session of ``num_steps``."""
        if num_steps < 0:
            raise ValueError("num_steps must be non-negative")
        return num_steps * self.training_seconds_per_step
