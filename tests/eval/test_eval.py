"""Tests for the experiment harness (runner, result records, CDF helpers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import (
    ExperimentSettings,
    cdf_points,
    compare_strategies,
    format_comparison_table,
    format_table,
    gain_cdf,
    prepare_student,
    run_strategy,
)
from repro.video import build_dataset


@pytest.fixture(scope="module")
def tiny_settings():
    return ExperimentSettings(
        num_frames=240,
        eval_stride=5,
        pretrain_images=40,
        pretrain_epochs=2,
        map_window=5,
        replay_seed_images=6,
        seed=1,
    )


@pytest.fixture(scope="module")
def tiny_student(tiny_settings):
    return prepare_student(tiny_settings)


class TestExperimentSettings:
    def test_defaults_valid(self):
        settings = ExperimentSettings()
        assert settings.shoggoth_config().eval_stride == settings.eval_stride

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSettings(num_frames=0)
        with pytest.raises(ValueError):
            ExperimentSettings(replay_seed_images=-1)


class TestPrepareStudent:
    def test_pretraining_is_deterministic(self, tiny_settings, tiny_student):
        again = prepare_student(tiny_settings)
        assert [p.data.tobytes() for p in again.model.parameters()] == [
            p.data.tobytes() for p in tiny_student.model.parameters()
        ]
        x = np.random.default_rng(0).random((1, 3, 32, 32))
        assert again.infer(x).tobytes() == tiny_student.infer(x).tobytes()


class TestRunStrategy:
    def test_result_fields(self, tiny_settings, tiny_student):
        dataset = build_dataset("kitti", num_frames=tiny_settings.num_frames)
        result = run_strategy("edge_only", dataset, tiny_student, settings=tiny_settings)
        assert result.strategy == "edge_only"
        assert result.dataset == "kitti"
        assert 0.0 <= result.map50 <= 1.0
        assert result.map50_percent == pytest.approx(result.map50 * 100)
        assert result.windowed_map.ndim == 1
        row = result.row()
        assert "mAP@0.5 (%)" in row and "Up BW (Kbps)" in row

    def test_shoggoth_run_produces_training_sessions(self, tiny_settings, tiny_student):
        dataset = build_dataset("detrac", num_frames=tiny_settings.num_frames)
        result = run_strategy("shoggoth", dataset, tiny_student, settings=tiny_settings)
        assert result.num_training_sessions >= 1
        assert result.uplink_kbps > 0

    def test_original_student_not_mutated(self, tiny_settings, tiny_student):
        dataset = build_dataset("detrac", num_frames=tiny_settings.num_frames)
        before = {k: v.copy() for k, v in tiny_student.state_dict().items()}
        run_strategy("shoggoth", dataset, tiny_student, settings=tiny_settings)
        after = tiny_student.state_dict()
        assert all(np.allclose(before[k], after[k]) for k in before)

    def test_compare_strategies_subset(self, tiny_settings, tiny_student):
        dataset = build_dataset("kitti", num_frames=tiny_settings.num_frames)
        results = compare_strategies(
            dataset, tiny_student, strategy_names=["edge_only", "cloud_only"],
            settings=tiny_settings,
        )
        assert set(results) == {"edge_only", "cloud_only"}
        assert results["cloud_only"].map50 >= results["edge_only"].map50


class TestFormatting:
    def test_format_table(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows, title="T")
        assert "T" in text and "a" in text and "22" in text

    def test_format_empty(self):
        assert "(no rows)" in format_table([], title="T")

    def test_format_comparison(self, tiny_settings, tiny_student):
        dataset = build_dataset("kitti", num_frames=tiny_settings.num_frames)
        result = run_strategy("edge_only", dataset, tiny_student, settings=tiny_settings)
        text = format_comparison_table([result], title="Table I")
        assert "edge_only" in text


class TestCDF:
    def test_gain_cdf(self):
        gains = gain_cdf(np.array([0.5, 0.6, 0.7]), np.array([0.4, 0.6, 0.5]))
        assert np.allclose(gains, [0.1, 0.0, 0.2])

    def test_gain_cdf_mismatched_lengths(self):
        gains = gain_cdf(np.array([0.5, 0.6]), np.array([0.4]))
        assert gains.shape == (1,)

    def test_cdf_points_monotone(self):
        x, y = cdf_points(np.array([0.3, 0.1, 0.2]))
        assert np.all(np.diff(x) >= 0)
        assert y[-1] == pytest.approx(1.0)

    def test_cdf_points_empty(self):
        x, y = cdf_points(np.zeros(0))
        assert x.size == 0 and y.size == 0
