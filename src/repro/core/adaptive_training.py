"""Adaptive training with latent replay (paper Sec. III-B, Fig. 3).

The trainer fine-tunes the student on small batches of freshly-labeled frames
while a replay memory of stored activations counters catastrophic forgetting.
The key mechanics reproduced from the paper:

* **Latent replay** — the replay memory stores activation volumes at a chosen
  replay layer, not raw images.  During the forward pass, current-batch
  images cross the front layers and are *concatenated* with the stored
  activations at the replay layer; only the concatenated tensor crosses the
  rear layers.
* **Mixing rule** — within a mini-batch of size ``K`` the trainer combines
  ``K·N/(N+M)`` current-batch images with ``K·M/(N+M)`` replay samples, so
  only the small current-batch share pays the front-layer cost.
* **Front-layer slowdown / freezing** — the learning rate of layers before
  the replay layer is scaled down (or set to zero), while normalisation
  moments keep adapting to the input statistics.  In the fully-frozen case
  the backward pass stops at the replay layer.
* **Aging effect** — when the front layers do move, stored activations age;
  Algorithm 1's uniform refresh keeps the memory current.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.config import AdaptiveTrainingConfig
from repro.core.replay_memory import ReplayItem, ReplayMemory
from repro.detection.boxes import Detections
from repro.detection.grid import GridTargets
from repro.detection.student import StudentDetector
from repro.nn.optim import SGD
from repro.runtime.device import TrainingCost, TrainingCostModel
from repro.video.scene import GroundTruthBox

__all__ = ["TrainingSessionReport", "ReplaySeed", "AdaptiveTrainer"]


@dataclass(frozen=True)
class TrainingSessionReport:
    """Outcome and cost of one adaptive-training session."""

    session_index: int
    num_new_images: int
    num_replay_samples: int
    num_steps: int
    mean_loss: float
    final_loss: float
    cost: TrainingCost
    measured_wall_seconds: float

    @property
    def simulated_seconds(self) -> float:
        """Simulated compute seconds (forward + backward)."""
        return self.cost.total_seconds


class ReplaySeed(NamedTuple):
    """Offline replay-seed data shared by the trainers of one fleet.

    ``latents`` caches the seed images' activations, keyed by replay
    layer and by a digest of the student's weights and normalisation
    statistics.  The first :meth:`AdaptiveTrainer.seed_replay` of a key
    runs the forward pass; every later one reuses its read-only array.
    Trainers whose students differ (a tenant re-registered after its
    weights moved) never share.  ``trainer.seed_replay(*seed)`` passes
    all three fields.
    """

    images: np.ndarray
    labels: list[list[GroundTruthBox]]
    latents: dict[tuple[str, str], np.ndarray]


def _student_digest(student: StudentDetector) -> str:
    """Digest of everything an eval-mode forward pass depends on."""
    digest = hashlib.sha256(repr(student.config).encode())
    for param in student.model.parameters():
        digest.update(param.data.tobytes())
    for _, layer in student.model.named_layers():
        if hasattr(layer, "running_mean"):
            digest.update(layer.running_mean.tobytes())
            digest.update(layer.running_var.tobytes())
    return digest.hexdigest()


class AdaptiveTrainer:
    """Fine-tunes a student detector online with latent replay."""

    def __init__(
        self,
        student: StudentDetector,
        config: AdaptiveTrainingConfig | None = None,
        seed: int = 0,
        forward_seconds_per_image: float = 0.006,
        backward_seconds_per_image: float = 0.0075,
    ) -> None:
        self.student = student
        self.config = config or AdaptiveTrainingConfig()
        self._rng = np.random.default_rng(seed)
        self._session_index = 0

        cut = self.config.replay_layer
        if cut != "input" and cut not in student.model:
            raise KeyError(f"replay layer {cut!r} is not a layer of the student model")

        self.replay = ReplayMemory(self.config.replay_capacity, seed=seed + 1)
        self._front_fraction = student.compute_fraction_before(cut)
        self.cost_model = TrainingCostModel.from_split(
            self._front_fraction,
            forward_per_image=forward_seconds_per_image,
            backward_per_image=backward_seconds_per_image,
        )
        self._configure_front_layers()
        self.optimizer = SGD(
            student.model.parameters(),
            lr=self.config.learning_rate,
            momentum=self.config.momentum,
            max_grad_norm=self.config.max_grad_norm,
        )

    # -- setup ------------------------------------------------------------
    @property
    def replay_layer(self) -> str:
        """The frozen cut-point layer name whose activations feed replay."""
        return self.config.replay_layer

    @property
    def front_fraction(self) -> float:
        """Fraction of per-image compute spent before the replay layer."""
        return self._front_fraction

    def _front_layer_names(self) -> list[str]:
        if self.config.replay_layer == "input":
            return []
        return self.student.model.layers_before(self.config.replay_layer)

    def _configure_front_layers(self) -> None:
        """Apply the paper's training-control rules to the front layers."""
        for name in self._front_layer_names():
            layer = self.student.model[name]
            if self.config.freeze_front:
                layer.freeze()
            else:
                layer.set_lr_scale(self.config.front_lr_scale)

    def seed_replay(
        self,
        images: np.ndarray,
        labels: list[list[GroundTruthBox]],
        latents: dict[tuple[str, str], np.ndarray] | None = None,
    ) -> int:
        """Pre-populate the replay memory from offline (deployment-time) data.

        The paper's Algorithm 1 starts with an empty memory that fills from
        the first online batches; in long deployments the memory therefore
        quickly reflects everything the device has seen.  Our simulated
        streams are minutes, not days, so optionally seeding the memory with
        a sample of the offline training distribution stands in for the long
        history an established deployment would already hold.  Returns the
        number of items stored.

        The activations come from a throwaway copy of the student, so the
        student keeps no layer caches of the seed batch.  ``latents``
        shares them between trainers (see :class:`ReplaySeed`).
        """
        if images.shape[0] != len(labels):
            raise ValueError("images and labels must have the same length")
        targets = self.student.codec.encode_batch(labels)
        cut = self.config.replay_layer
        if cut == "input":
            items = self._make_replay_items(images, targets, cut)
        else:
            latents = {} if latents is None else latents
            key = (cut, _student_digest(self.student))
            if key not in latents:
                model = self.student.clone().model.eval()
                latents[key] = model.forward_until(images, cut)
                latents[key].flags.writeable = False
            items = [
                ReplayItem(activation=activation, targets=target)
                for activation, target in zip(latents[key], targets)
            ]
        space = self.replay.capacity - len(self.replay)
        for item in items[:space]:
            self.replay.items.append(item)
        return min(len(items), space)

    # -- mini-batch composition -------------------------------------------
    def _new_per_minibatch(self, num_new: int, num_replay: int) -> int:
        """K·N/(N+M) current-batch images per mini-batch (at least 1)."""
        k = self.config.minibatch_size
        if num_replay == 0:
            return min(k, num_new)
        share = k * num_new / (num_new + num_replay)
        return max(1, min(num_new, int(round(share))))

    # -- training ------------------------------------------------------------
    def train_session(
        self,
        images: np.ndarray,
        labels: list[list[GroundTruthBox]] | list[Detections],
    ) -> TrainingSessionReport:
        """Run one adaptive-training session on a batch of labeled frames."""
        if images.shape[0] != len(labels):
            raise ValueError("images and labels must have the same length")
        if images.shape[0] == 0:
            raise ValueError("training session needs at least one image")

        wall_start = time.perf_counter()
        self._session_index += 1
        cfg = self.config
        model = self.student.model
        cut = cfg.replay_layer
        targets = self.student.codec.encode_batch(labels)

        use_replay = cfg.use_replay and len(self.replay) > 0
        num_new = images.shape[0]
        num_replay = len(self.replay) if use_replay else 0
        new_per_batch = self._new_per_minibatch(num_new, num_replay)
        replay_per_batch = (
            min(num_replay, cfg.minibatch_size - new_per_batch) if use_replay else 0
        )

        losses: list[float] = []
        new_passes = 0
        replay_passes = 0
        front_backward_passes = 0

        model.train()
        for _ in range(cfg.epochs):
            order = self._rng.permutation(num_new)
            for start in range(0, num_new, new_per_batch):
                idx = order[start : start + new_per_batch]
                if idx.size == 0:
                    continue
                batch_images = images[idx]
                batch_targets = [targets[i] for i in idx]
                replay_items = (
                    self.replay.sample(replay_per_batch) if replay_per_batch else []
                )
                loss = self._train_step(batch_images, batch_targets, replay_items, cut)
                losses.append(loss)

                new_passes += idx.size
                replay_passes += len(replay_items)
                if not cfg.freeze_front:
                    front_backward_passes += idx.size

        model.eval()

        # Algorithm 1: refresh the replay memory with the just-trained batch.
        if cfg.use_replay:
            self.replay.update(self._make_replay_items(images, targets, cut))

        cost = self.cost_model.session_cost(new_passes, replay_passes, front_backward_passes)
        wall = time.perf_counter() - wall_start
        return TrainingSessionReport(
            session_index=self._session_index,
            num_new_images=num_new,
            num_replay_samples=num_replay,
            num_steps=len(losses),
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            final_loss=losses[-1] if losses else float("nan"),
            cost=cost,
            measured_wall_seconds=wall,
        )

    # -- internals ---------------------------------------------------------
    def _train_step(
        self,
        batch_images: np.ndarray,
        batch_targets: list[GridTargets],
        replay_items: list[ReplayItem],
        cut: str,
    ) -> float:
        """One mini-batch SGD step with latent replay at ``cut``."""
        model = self.student.model
        self.optimizer.zero_grad()

        if cut == "input":
            # replay stores raw images: everything crosses the full network
            if replay_items:
                replay_images = np.stack([item.activation for item in replay_items])
                all_images = np.concatenate([batch_images, replay_images])
                all_targets = batch_targets + [item.targets for item in replay_items]
            else:
                all_images, all_targets = batch_images, batch_targets
            outputs = model.forward(all_images)
            loss, grad = self.student.detection_loss(outputs, all_targets)
            model.backward(grad)
        else:
            latent_new = model.forward_until(batch_images, cut)
            if replay_items:
                latent_replay = np.stack([item.activation for item in replay_items])
                latent = np.concatenate([latent_new, latent_replay])
                all_targets = batch_targets + [item.targets for item in replay_items]
            else:
                latent = latent_new
                all_targets = batch_targets
            outputs = model.forward_from(latent, cut)
            loss, grad = self.student.detection_loss(outputs, all_targets)
            grad_at_cut = model.backward_from_end(grad, cut)
            if not self.config.freeze_front:
                # only current-batch activations back-propagate into the front
                model.backward_front(grad_at_cut[: batch_images.shape[0]], cut)

        self.optimizer.step()
        return loss

    def _make_replay_items(
        self, images: np.ndarray, targets: list[GridTargets], cut: str
    ) -> list[ReplayItem]:
        """Materialise replay items (latent activations or raw images)."""
        if cut == "input":
            return [
                ReplayItem(activation=images[i].copy(), targets=targets[i])
                for i in range(images.shape[0])
            ]
        self.student.model.eval()
        latents = self.student.model.forward_until(images, cut)
        return [
            ReplayItem(activation=latents[i], targets=targets[i])
            for i in range(images.shape[0])
        ]
