"""Tests for adaptive training with latent replay (paper Sec. III-B / Table II)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AdaptiveTrainer, AdaptiveTrainingConfig
from repro.detection import StudentConfig, StudentDetector
from repro.video import DAY_SUNNY, NIGHT, FrameRenderer, RenderConfig, Scene, SceneConfig


def make_batch(domain, n=6, seed=0):
    renderer = FrameRenderer(RenderConfig(seed=seed))
    scene = Scene(SceneConfig(seed=seed))
    scene.warm_up(domain, 60)
    images, labels = [], []
    for _ in range(n):
        boxes = scene.step(domain)
        images.append(renderer.render(scene.objects, domain))
        labels.append(list(boxes))
    return np.array(images), labels


def eval_loss(student, images, labels) -> float:
    """The student's detection loss on labelled images, in eval mode."""
    student.model.eval()
    targets = student.codec.encode_batch(labels)
    loss, _ = student.detection_loss(student.forward(images), targets)
    return loss


@pytest.fixture(scope="module")
def student():
    return StudentDetector(StudentConfig(seed=11))


def small_config(**kwargs):
    defaults = dict(train_batch_size=4, replay_capacity=12, minibatch_size=8,
                    epochs=2, learning_rate=0.02)
    defaults.update(kwargs)
    return AdaptiveTrainingConfig(**defaults)


class TestAdaptiveTrainerBasics:
    def test_unknown_replay_layer_raises(self, student):
        with pytest.raises(KeyError):
            AdaptiveTrainer(student.clone(), small_config(replay_layer="bogus"))

    def test_front_fraction_ordering(self, student):
        input_trainer = AdaptiveTrainer(student.clone(), small_config(replay_layer="input"))
        conv_trainer = AdaptiveTrainer(student.clone(), small_config(replay_layer="conv5_4"))
        pool_trainer = AdaptiveTrainer(student.clone(), small_config(replay_layer="pool"))
        assert input_trainer.front_fraction == 0.0
        assert input_trainer.front_fraction < conv_trainer.front_fraction < pool_trainer.front_fraction

    def test_front_layers_get_lr_scale(self, student):
        s = student.clone()
        AdaptiveTrainer(s, small_config(front_lr_scale=0.25))
        front_params = s.model["conv1"].parameters()
        rear_params = s.model["head_out"].parameters()
        assert all(p.lr_scale == 0.25 for p in front_params)
        assert all(p.lr_scale == 1.0 for p in rear_params)

    def test_freeze_front_marks_untrainable(self, student):
        s = student.clone()
        AdaptiveTrainer(s, small_config(freeze_front=True))
        assert all(not p.trainable for p in s.model["conv1"].parameters())
        assert all(p.trainable for p in s.model["head_out"].parameters())

    def test_session_report_fields(self, student):
        trainer = AdaptiveTrainer(student.clone(), small_config(), seed=0)
        images, labels = make_batch(DAY_SUNNY, n=4)
        report = trainer.train_session(images, labels)
        assert report.session_index == 1
        assert report.num_new_images == 4
        assert report.num_steps > 0
        assert np.isfinite(report.mean_loss)
        assert report.cost.total_seconds > 0
        assert report.measured_wall_seconds > 0

    def test_mismatched_inputs_raise(self, student):
        trainer = AdaptiveTrainer(student.clone(), small_config())
        with pytest.raises(ValueError):
            trainer.train_session(np.zeros((2, 3, 32, 32)), [[]])
        with pytest.raises(ValueError):
            trainer.train_session(np.zeros((0, 3, 32, 32)), [])


class TestReplayBehaviour:
    def test_replay_memory_populated_after_sessions(self, student):
        trainer = AdaptiveTrainer(student.clone(), small_config(), seed=0)
        images, labels = make_batch(DAY_SUNNY, n=4)
        trainer.train_session(images, labels)
        assert len(trainer.replay) == 4
        trainer.train_session(images, labels)
        assert len(trainer.replay) == 8

    def test_replay_stores_latents_not_images(self, student):
        trainer = AdaptiveTrainer(student.clone(), small_config(replay_layer="pool"), seed=0)
        images, labels = make_batch(DAY_SUNNY, n=4)
        trainer.train_session(images, labels)
        activation = trainer.replay.items[0].activation
        assert activation.shape != images[0].shape  # latent, not raw pixels

    def test_input_replay_stores_images(self, student):
        trainer = AdaptiveTrainer(student.clone(), small_config(replay_layer="input"), seed=0)
        images, labels = make_batch(DAY_SUNNY, n=4)
        trainer.train_session(images, labels)
        assert trainer.replay.items[0].activation.shape == images[0].shape

    def test_no_replay_mode_keeps_memory_empty(self, student):
        trainer = AdaptiveTrainer(student.clone(), small_config(use_replay=False), seed=0)
        images, labels = make_batch(DAY_SUNNY, n=4)
        trainer.train_session(images, labels)
        assert len(trainer.replay) == 0

    def test_seed_replay(self, student):
        trainer = AdaptiveTrainer(student.clone(), small_config(), seed=0)
        images, labels = make_batch(DAY_SUNNY, n=8)
        stored = trainer.seed_replay(images, labels)
        assert stored == 8
        assert len(trainer.replay) == 8

    def test_seed_replay_respects_capacity(self, student):
        trainer = AdaptiveTrainer(student.clone(), small_config(replay_capacity=5), seed=0)
        images, labels = make_batch(DAY_SUNNY, n=8)
        assert trainer.seed_replay(images, labels) == 5

    def test_replay_mitigates_forgetting(self, student):
        """With replay (seeded from the old domain) the old-domain loss stays
        lower after adapting to a new domain than without replay."""
        day_images, day_labels = make_batch(DAY_SUNNY, n=10, seed=1)
        night_images, night_labels = make_batch(NIGHT, n=6, seed=2)

        def adapt(use_replay: bool) -> float:
            s = student.clone()
            trainer = AdaptiveTrainer(
                s, small_config(use_replay=use_replay, replay_capacity=12, epochs=3), seed=0
            )
            if use_replay:
                trainer.seed_replay(day_images, day_labels)
            for _ in range(4):
                trainer.train_session(night_images, night_labels)
            return eval_loss(s, day_images, day_labels)

        assert adapt(True) < adapt(False)


class TestTrainingEffectAndCost:
    def test_training_reduces_loss_on_new_domain(self, student):
        s = student.clone()
        trainer = AdaptiveTrainer(s, small_config(epochs=3, learning_rate=0.03), seed=0)
        images, labels = make_batch(NIGHT, n=6, seed=5)
        before = eval_loss(s, images, labels)
        for _ in range(3):
            trainer.train_session(images, labels)
        after = eval_loss(s, images, labels)
        assert after < before

    def test_cost_ordering_matches_table2(self, student):
        """Simulated training time: input replay >> conv5_4 replay > pool replay,
        and completely-frozen front is the cheapest backward."""
        images, labels = make_batch(DAY_SUNNY, n=4)

        def session_cost(**kwargs):
            trainer = AdaptiveTrainer(student.clone(), small_config(**kwargs), seed=0)
            trainer.train_session(images, labels)  # fill replay
            return trainer.train_session(images, labels).cost

        input_cost = session_cost(replay_layer="input")
        conv_cost = session_cost(replay_layer="conv5_4")
        pool_cost = session_cost(replay_layer="pool")
        frozen_cost = session_cost(replay_layer="pool", freeze_front=True)

        assert input_cost.forward_seconds > conv_cost.forward_seconds > pool_cost.forward_seconds
        assert frozen_cost.backward_seconds < pool_cost.backward_seconds

    def test_frozen_front_does_not_change_front_weights(self, student):
        s = student.clone()
        trainer = AdaptiveTrainer(s, small_config(freeze_front=True), seed=0)
        before = s.model["conv1"].weight.data.copy()
        images, labels = make_batch(DAY_SUNNY, n=4)
        trainer.train_session(images, labels)
        assert np.allclose(before, s.model["conv1"].weight.data)

    def test_front_lr_scale_changes_front_weights_slowly(self, student):
        s = student.clone()
        trainer = AdaptiveTrainer(s, small_config(front_lr_scale=0.1, epochs=2), seed=0)
        before = s.model["conv1"].weight.data.copy()
        images, labels = make_batch(NIGHT, n=6)
        trainer.train_session(images, labels)
        delta_front = np.abs(s.model["conv1"].weight.data - before).mean()
        assert delta_front > 0  # still learning, just slowly
