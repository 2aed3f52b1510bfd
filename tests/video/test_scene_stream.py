"""Tests for the scene dynamics, renderer, streams, datasets and H.264 model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video import (
    DAY_SUNNY,
    NIGHT,
    DriftSchedule,
    EncoderConfig,
    FrameRenderer,
    GroundTruthBox,
    H264Encoder,
    RenderConfig,
    Scene,
    SceneConfig,
    StreamConfig,
    VideoStream,
    build_dataset,
    make_detrac_like,
    make_kitti_like,
    make_stationary,
    make_waymo_like,
)


class TestGroundTruthBox:
    def test_xyxy(self):
        box = GroundTruthBox(0, 0.5, 0.5, 0.2, 0.1)
        assert box.as_xyxy() == pytest.approx((0.4, 0.45, 0.6, 0.55))

    def test_validation(self):
        with pytest.raises(ValueError):
            GroundTruthBox(9, 0.5, 0.5, 0.2, 0.1)
        with pytest.raises(ValueError):
            GroundTruthBox(0, 0.5, 0.5, 0.0, 0.1)


class TestScene:
    def test_population_reaches_target(self):
        scene = Scene(SceneConfig(mean_objects=3.0, seed=1))
        scene.warm_up(DAY_SUNNY, 200)
        assert len(scene.objects) >= 1

    def test_objects_move_between_frames(self):
        scene = Scene(SceneConfig(seed=2))
        scene.warm_up(DAY_SUNNY, 100)
        before = {o.object_id: o.cx for o in scene.objects}
        scene.step(DAY_SUNNY)
        after = {o.object_id: o.cx for o in scene.objects}
        moved = [abs(after[i] - before[i]) for i in set(before) & set(after)]
        assert moved and all(m > 0 for m in moved)

    def test_ground_truth_in_frame(self):
        scene = Scene(SceneConfig(seed=3))
        scene.warm_up(DAY_SUNNY, 100)
        boxes = scene.step(DAY_SUNNY)
        for box in boxes:
            assert 0.0 <= box.cx <= 1.0 and 0.0 <= box.cy <= 1.0

    def test_max_objects_respected(self):
        scene = Scene(SceneConfig(mean_objects=20, max_objects=4, arrival_rate=1.0, seed=4))
        scene.warm_up(DAY_SUNNY, 300)
        assert len(scene.objects) <= 4

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SceneConfig(mean_objects=0)
        with pytest.raises(ValueError):
            Scene(SceneConfig()).warm_up(DAY_SUNNY, -1)


class TestRenderer:
    def test_output_shape_and_range(self):
        renderer = FrameRenderer(RenderConfig(height=32, width=32, seed=0))
        scene = Scene(SceneConfig(seed=5))
        scene.warm_up(DAY_SUNNY, 100)
        image = renderer.render(scene.objects, DAY_SUNNY)
        assert image.shape == (3, 32, 32)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_night_darker_than_day(self):
        renderer = FrameRenderer(RenderConfig(seed=0))
        scene = Scene(SceneConfig(seed=6))
        scene.warm_up(DAY_SUNNY, 100)
        day = renderer.render(scene.objects, DAY_SUNNY)
        night = renderer.render(scene.objects, NIGHT)
        assert night.mean() < day.mean()

    def test_objects_change_pixels(self):
        renderer = FrameRenderer(RenderConfig(seed=0))
        empty = renderer.render([], DAY_SUNNY)
        box = GroundTruthBox(0, 0.5, 0.5, 0.3, 0.3)
        with_object = renderer.render([box], DAY_SUNNY)
        assert not np.allclose(empty, with_object)

    def test_domain_changes_object_appearance(self):
        """The same object must look different across domains (= drift)."""
        renderer = FrameRenderer(RenderConfig(seed=0))
        box = GroundTruthBox(0, 0.5, 0.5, 0.3, 0.3)
        day = renderer.render([box], DAY_SUNNY.with_overrides(noise_std=0.0))
        night = renderer.render([box], NIGHT.with_overrides(noise_std=0.0))
        assert np.abs(day - night).mean() > 0.02

    def test_nominal_pixels(self):
        renderer = FrameRenderer(RenderConfig(nominal_height=512, nominal_width=512))
        assert renderer.nominal_pixels == 512 * 512

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RenderConfig(height=0, width=8)


class TestVideoStream:
    def make_stream(self, n=60):
        return VideoStream(
            DriftSchedule.constant(DAY_SUNNY, n),
            StreamConfig(fps=30.0, num_frames=n, warmup_frames=30, seed=1),
        )

    def test_yields_expected_number_of_frames(self):
        frames = list(self.make_stream(45))
        assert len(frames) == 45
        assert frames[0].index == 0 and frames[-1].index == 44

    def test_timestamps_follow_fps(self):
        frames = list(self.make_stream(31))
        assert frames[30].timestamp == pytest.approx(1.0)

    def test_frames_carry_ground_truth_and_domain(self):
        frames = list(self.make_stream(30))
        assert all(frame.domain_name == "day_sunny" for frame in frames)
        assert any(frame.ground_truth for frame in frames)

    def test_single_iteration_only(self):
        stream = self.make_stream(10)
        list(stream)
        with pytest.raises(RuntimeError):
            list(stream)

    def test_determinism_across_instances(self):
        a = list(self.make_stream(20))
        b = list(self.make_stream(20))
        for fa, fb in zip(a, b):
            assert np.allclose(fa.image, fb.image)
            assert fa.ground_truth == fb.ground_truth

    def test_motion_in_unit_range(self):
        frames = list(self.make_stream(40))
        assert all(0.0 <= frame.motion <= 1.0 for frame in frames)

    def test_collect_limit(self):
        assert len(self.make_stream(50).collect(limit=5)) == 5

    def test_duration(self):
        assert self.make_stream(60).duration_seconds == pytest.approx(2.0)


class TestDatasets:
    @pytest.mark.parametrize("name", ["detrac", "kitti", "waymo", "stationary"])
    def test_presets_build(self, name):
        spec = build_dataset(name, num_frames=120)
        assert spec.num_frames == 120
        frames = spec.build().collect(limit=10)
        assert len(frames) == 10

    def test_detrac_has_drift(self):
        spec = make_detrac_like(num_frames=600)
        names = {spec.schedule.domain_at(i).name for i in range(0, 600, 100)}
        assert len(names) >= 3

    def test_kitti_is_car_dominated(self):
        spec = make_kitti_like(num_frames=120)
        dist = spec.schedule.domain_at(0).class_distribution
        assert dist[0] > 0.8

    def test_stationary_single_domain(self):
        spec = make_stationary(num_frames=200)
        names = {spec.schedule.domain_at(i).name for i in range(0, 200, 40)}
        assert len(names) == 1

    def test_waymo_contains_night(self):
        spec = make_waymo_like(num_frames=500)
        names = {spec.schedule.domain_at(i).name for i in range(500)}
        assert any("night" in n for n in names)

    def test_same_spec_builds_identical_streams(self):
        spec = build_dataset("detrac", num_frames=60)
        a = spec.build().collect(limit=20)
        b = spec.build().collect(limit=20)
        for fa, fb in zip(a, b):
            assert np.allclose(fa.image, fb.image)

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            build_dataset("cityscapes")


class TestH264Encoder:
    def test_intra_larger_than_inter(self):
        encoder = H264Encoder(512 * 512)
        assert encoder.intra_frame_bytes() > encoder.inter_frame_bytes(0.1)

    def test_inter_grows_with_motion(self):
        encoder = H264Encoder(512 * 512)
        assert encoder.inter_frame_bytes(0.9) >= encoder.inter_frame_bytes(0.05)

    def test_contiguous_buffer_smaller_than_sparse(self):
        encoder = H264Encoder(512 * 512)
        motions = [0.05] * 10
        sparse = encoder.encode_buffer(motions, contiguous=False)
        contiguous = encoder.encode_buffer(motions, contiguous=True)
        assert contiguous.total_bytes < sparse.total_bytes

    def test_empty_buffer(self):
        encoder = H264Encoder(512 * 512)
        buffer = encoder.encode_buffer([])
        assert buffer.num_frames == 0 and buffer.total_bytes == 0

    def test_encode_latency_floor(self):
        encoder = H264Encoder(512 * 512)
        assert encoder.encode_buffer([0.1]).encode_seconds >= 1.0

    def test_stream_rate_in_surveillance_regime(self):
        """Continuous 512x512 streaming should land in the paper's Mbps range."""
        encoder = H264Encoder(512 * 512)
        kbps = encoder.stream_bytes_per_second(30.0, mean_motion=0.05) * 8 / 1000
        assert 1000 < kbps < 8000

    def test_quality_reduces_size(self):
        hi = H264Encoder(512 * 512, EncoderConfig(quality=1.0))
        lo = H264Encoder(512 * 512, EncoderConfig(quality=0.5))
        assert lo.intra_frame_bytes() < hi.intra_frame_bytes()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            H264Encoder(0)
        with pytest.raises(ValueError):
            H264Encoder(100).inter_frame_bytes(-1.0)
        with pytest.raises(ValueError):
            EncoderConfig(quality=0.0)

    @settings(deadline=None, max_examples=20)
    @given(motions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    def test_buffer_size_positive_and_monotone_in_count(self, motions):
        encoder = H264Encoder(256 * 256)
        buffer = encoder.encode_buffer(motions)
        assert buffer.total_bytes > 0
        longer = encoder.encode_buffer(motions + [0.5])
        assert longer.total_bytes >= buffer.total_bytes
