"""Tests for the simulation clock and the compute models."""

from __future__ import annotations

import pytest

from repro.runtime import (
    CloudComputeModel,
    EdgeComputeModel,
    SimulationClock,
    TrainingCostModel,
)


class TestClock:
    def test_advance(self):
        clock = SimulationClock()
        assert clock.advance(1.5) == 1.5
        assert clock.now == 1.5

    def test_advance_to(self):
        clock = SimulationClock(1.0)
        clock.advance_to(0.5)  # no-op
        assert clock.now == 1.0
        clock.advance_to(2.0)
        assert clock.now == 2.0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            SimulationClock().advance(-1)
        with pytest.raises(ValueError):
            SimulationClock(-1)


class TestTrainingCostModel:
    def test_from_split_partition(self):
        model = TrainingCostModel.from_split(0.75, forward_per_image=0.02, backward_per_image=0.02)
        assert model.front_forward_per_image == pytest.approx(0.015)
        assert model.rear_forward_per_image == pytest.approx(0.005)

    def test_late_replay_cheaper_than_input_replay(self):
        """Replay at a late layer saves front-layer compute on replay samples."""
        late = TrainingCostModel.from_split(0.9)
        early = TrainingCostModel.from_split(0.0)
        cost_late = late.session_cost(new_image_passes=10, replay_image_passes=50, front_backward_passes=10)
        cost_early = early.session_cost(new_image_passes=10, replay_image_passes=50, front_backward_passes=10)
        assert cost_late.forward_seconds < cost_early.forward_seconds

    def test_frozen_front_cheaper_backward(self):
        model = TrainingCostModel.from_split(0.7)
        frozen = model.session_cost(10, 50, front_backward_passes=0)
        learning = model.session_cost(10, 50, front_backward_passes=10)
        assert frozen.backward_seconds < learning.backward_seconds

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            TrainingCostModel.from_split(1.5)
        with pytest.raises(ValueError):
            TrainingCostModel().session_cost(-1, 0, 0)


class TestEdgeComputeModel:
    def test_fps_values(self):
        model = EdgeComputeModel(inference_seconds_per_frame=1 / 30, training_share=0.5)
        assert model.max_fps == pytest.approx(30.0)
        assert model.fps_while_training == pytest.approx(15.0)

    def test_training_wall_time_scaled_by_share(self):
        model = EdgeComputeModel(training_share=0.5)
        cost = TrainingCostModel().session_cost(10, 10, 10)
        assert model.training_wall_seconds(cost) == pytest.approx(cost.total_seconds / 0.5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            EdgeComputeModel(inference_seconds_per_frame=0)
        with pytest.raises(ValueError):
            EdgeComputeModel(training_share=1.0)


class TestCloudComputeModel:
    def test_training_seconds(self):
        model = CloudComputeModel(teacher_inference_seconds=0.05, training_seconds_per_step=0.03)
        assert model.training_seconds(10) == pytest.approx(0.3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            CloudComputeModel(teacher_inference_seconds=0)
        with pytest.raises(ValueError):
            CloudComputeModel().training_seconds(-1)
