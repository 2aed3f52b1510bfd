"""Integration tests: edge device, cloud server, sessions and strategies.

These use short streams and an untrained (or lightly-trained) student so the
whole file runs in seconds while still exercising every moving part of the
collaborative pipeline.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    AdaptiveTrainer,
    CloudServer,
    CollaborativeSession,
    EdgeDevice,
    SessionOptions,
    ShoggothConfig,
    build_strategy,
    estimate_alpha,
    STRATEGIES,
)
from repro.core.actors import CloudActor, InstantTransport
from repro.core.sampling import SamplingRateController
from repro.core.scheduling import WorkerSpec
from repro.core.strategies import FixedRateShoggothStrategy
from repro.detection import (
    Detections,
    StudentConfig,
    StudentDetector,
    TeacherConfig,
    TeacherDetector,
)
from repro.network.link import NetworkLink
from repro.runtime.events import EventScheduler, LabelingDone, LabelsReady, UploadComplete
from repro.video import build_dataset
from repro.video.datasets import make_stationary


@pytest.fixture(scope="module")
def student():
    return StudentDetector(StudentConfig(seed=5))


@pytest.fixture(scope="module")
def teacher():
    return TeacherDetector(TeacherConfig(seed=9))


def small_config(**sampling_overrides):
    config = ShoggothConfig(eval_stride=5).with_training(
        train_batch_size=4, replay_capacity=12, minibatch_size=8, epochs=1
    )
    if sampling_overrides:
        config = config.with_sampling(**sampling_overrides)
    return config


class TestEdgeDevice:
    def test_sampling_respects_rate(self, student):
        config = ShoggothConfig().with_sampling(initial_rate_fps=1.0)
        edge = EdgeDevice(student.clone(), config=config)
        dataset = make_stationary(num_frames=90)
        sampled = sum(edge.maybe_sample(frame) for frame in dataset.build())
        # 3 seconds of video at 1 fps sampling -> about 3-4 samples
        assert 2 <= sampled <= 5

    def test_set_sampling_rate_changes_cadence(self, student):
        config = ShoggothConfig().with_sampling(initial_rate_fps=0.5)
        edge = EdgeDevice(student.clone(), config=config)
        edge.set_sampling_rate(2.0)
        assert edge.sampling_rate == 2.0
        with pytest.raises(ValueError):
            edge.set_sampling_rate(0.0)

    def test_upload_and_training_pools(self, student, teacher):
        config = small_config()
        trainer = AdaptiveTrainer(student.clone(), config.training)
        edge = EdgeDevice(trainer.student, config=config, trainer=trainer)
        frames = make_stationary(num_frames=60).build().collect()
        for frame in frames[:3]:
            edge.sample_buffer.append(frame)
        assert edge.upload_ready()
        batch = edge.take_upload_batch()
        assert len(batch) == 3 and not edge.sample_buffer

    def test_training_window_accounting(self, student, teacher):
        config = small_config()
        trainer = AdaptiveTrainer(student.clone(), config.training)
        edge = EdgeDevice(trainer.student, config=config, trainer=trainer)
        from repro.core.labeling import OnlineLabeler

        labeler = OnlineLabeler(teacher)
        frames = make_stationary(num_frames=60).build().collect()
        labeled = [labeler.label_frame(f, make_stationary(60).schedule.domain_at(f.index)) for f in frames[:4]]
        edge.receive_labels(labeled)
        assert edge.training_ready()
        window = edge.run_training_session(now=1.0)
        assert window.end > window.start >= 1.0
        assert edge.is_training_at((window.start + window.end) / 2)
        assert edge.fps_at((window.start + window.end) / 2) < edge.fps_at(window.end + 10)

    def test_alpha_estimate_consumes_history(self, student):
        edge = EdgeDevice(student.clone(), config=ShoggothConfig())
        frames = make_stationary(num_frames=30).build().collect()
        for frame in frames[:3]:
            edge.detect(frame)
        first = edge.estimated_alpha()
        assert 0.0 <= first <= 1.0
        assert edge.estimated_alpha() == 0.0  # history consumed

    def test_alpha_counts_equal_estimate_alpha(self):
        """The running counts give estimate_alpha's value over the same frames."""
        rng = np.random.default_rng(3)
        stream = []
        for index in range(60):
            count = 0 if index % 7 == 0 else int(rng.integers(1, 6))
            scores = rng.choice([0.2, 0.35, 0.5, 0.9], size=count)  # 0.35 is θ itself
            stream.append(
                Detections(np.zeros(count, dtype=int), np.full((count, 4), 0.1), scores)
            )

        class ScriptedStudent:
            def __init__(self):
                self.frames = iter(stream)

            def detect(self, image):
                return next(self.frames)

        config = ShoggothConfig().with_sampling(confidence_threshold=0.35)
        edge = EdgeDevice(ScriptedStudent(), config=config)
        frame = make_stationary(num_frames=1).build().collect()[0]
        start = 0
        for stop in (1, 7, 8, 30, 60):
            for _ in range(start, stop):
                edge.detect(frame)
            expected = estimate_alpha(stream[start:stop], 0.35)
            assert edge.estimated_alpha().hex() == expected.hex()
            start = stop
        assert edge.estimated_alpha() == estimate_alpha([], 0.35) == 0.0

    def test_training_without_trainer_raises(self, student):
        edge = EdgeDevice(student.clone(), config=ShoggothConfig())
        with pytest.raises(RuntimeError):
            edge.run_training_session(0.0)


class TestCloudServer:
    def test_process_upload_returns_labels_and_rate(self, student, teacher):
        dataset = build_dataset("detrac", num_frames=120)
        config = small_config()
        cloud = CloudServer(teacher, config=config)
        frames = dataset.build().collect(limit=5)
        response = cloud.process_upload(
            frames,
            alpha=0.3,
            lambda_usage=0.8,
            schedule=dataset.schedule,
            controller=SamplingRateController(config.sampling),
        )
        assert len(response.labeled_frames) == 5
        assert 0.1 <= response.new_sampling_rate <= 2.0
        assert 0.0 <= response.phi <= 1.0
        assert cloud.total_gpu_seconds > 0

    def test_empty_upload_raises(self, teacher):
        dataset = build_dataset("detrac", num_frames=60)
        cloud = CloudServer(teacher)
        with pytest.raises(ValueError):
            cloud.process_upload(
                [],
                alpha=0.5,
                lambda_usage=0.5,
                schedule=dataset.schedule,
                controller=SamplingRateController(cloud.config.sampling),
            )


class TestZeroTimeWorker:
    def test_labels_leave_at_the_upload_instant(self, teacher):
        """The single-camera session's worker: no overhead, infinite speed."""
        dataset = build_dataset("detrac", num_frames=60)
        config = small_config()
        cloud = CloudServer(teacher, config=config)
        worker = CloudActor(
            cloud,
            InstantTransport(NetworkLink()),
            batch_overhead_seconds=0.0,
            spec=WorkerSpec(speed=math.inf),
        )
        camera = SimpleNamespace(
            camera_id=0, options=SessionOptions(adapt=False), upload_latencies=[]
        )
        worker.register_camera(
            camera,
            schedule=dataset.schedule,
            controller=SamplingRateController(config.sampling),
        )
        frames = dataset.build().collect(limit=3)
        scheduler = EventScheduler()
        scheduler.schedule(
            UploadComplete(
                time=1.5, camera_id=0, batch=frames, alpha=0.3, lambda_usage=0.5,
                sent_at=1.5,
            )
        )
        delivered = []

        def dispatch(event):
            if isinstance(event, UploadComplete):
                worker.on_upload(event, scheduler)
            elif isinstance(event, LabelingDone):
                worker.on_labeling_done(event, scheduler)
            else:
                assert isinstance(event, LabelsReady)
                delivered.append(event)

        scheduler.run(dispatch)
        assert [event.time for event in delivered] == [1.5]
        assert len(delivered[0].response.labeled_frames) == 3
        assert worker.busy_seconds == 0.0
        assert worker.busy_until == 1.5
        assert [job.wait_seconds for job in worker.completed_jobs] == [0.0]
        assert worker.gpu_seconds_by_camera[0] == delivered[0].response.gpu_seconds > 0


class TestSessionOptions:
    def test_invalid_options(self):
        with pytest.raises(ValueError):
            SessionOptions(train_location="fog")
        with pytest.raises(ValueError):
            SessionOptions(fixed_rate_fps=0.0)


class TestCollaborativeSession:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_every_strategy_runs_end_to_end(self, name, student, teacher):
        dataset = build_dataset("detrac", num_frames=240)
        strategy = build_strategy(name)
        result = strategy.run(
            dataset=dataset,
            student=student.clone(),
            teacher=teacher,
            config=small_config(initial_rate_fps=2.0),
            seed=0,
        )
        assert result.strategy_name == name
        assert len(result.detections_per_frame) == len(result.ground_truth_per_frame) > 0
        assert result.duration_seconds == pytest.approx(8.0)
        assert result.fps_trace.size >= 8
        assert result.bandwidth.uplink_kbps >= 0

    def test_edge_only_has_no_traffic_and_full_fps(self, student, teacher):
        dataset = build_dataset("kitti", num_frames=240)
        result = build_strategy("edge_only").run(
            dataset=dataset, student=student.clone(), teacher=teacher, config=small_config()
        )
        assert result.bandwidth.uplink_kbps == 0.0
        assert result.bandwidth.downlink_kbps == 0.0
        assert result.average_fps == pytest.approx(30.0, abs=0.5)
        assert result.num_uploads == 0

    def test_cloud_only_uses_most_bandwidth_and_lowest_fps(self, student, teacher):
        dataset = build_dataset("kitti", num_frames=240)
        config = small_config(initial_rate_fps=2.0)
        cloud = build_strategy("cloud_only").run(
            dataset=dataset, student=student.clone(), teacher=teacher, config=config
        )
        shog = build_strategy("shoggoth").run(
            dataset=dataset, student=student.clone(), teacher=teacher, config=config
        )
        assert cloud.bandwidth.uplink_kbps > 5 * shog.bandwidth.uplink_kbps
        assert cloud.bandwidth.downlink_kbps > 20 * shog.bandwidth.downlink_kbps
        assert cloud.average_fps < shog.average_fps

    def test_shoggoth_trains_and_uses_uplink(self, student, teacher):
        dataset = build_dataset("detrac", num_frames=300)
        result = build_strategy("shoggoth").run(
            dataset=dataset, student=student.clone(), teacher=teacher,
            config=small_config(initial_rate_fps=2.0),
        )
        assert result.num_uploads > 0
        assert len(result.training_reports) > 0
        assert result.bandwidth.uplink_kbps > 0
        assert result.bandwidth.downlink_kbps < result.bandwidth.uplink_kbps

    def test_ams_downloads_models_and_keeps_edge_free(self, student, teacher):
        dataset = build_dataset("detrac", num_frames=300)
        ams = build_strategy("ams").run(
            dataset=dataset, student=student.clone(), teacher=teacher,
            config=small_config(initial_rate_fps=2.0),
        )
        shog = build_strategy("shoggoth").run(
            dataset=dataset, student=student.clone(), teacher=teacher,
            config=small_config(initial_rate_fps=2.0),
        )
        # AMS streams model updates -> much larger downlink than Shoggoth labels
        assert ams.bandwidth.downlink_kbps > 5 * shog.bandwidth.downlink_kbps
        # training happens in the cloud, so the edge never slows down
        assert ams.average_fps >= shog.average_fps
        # and the cloud pays more GPU time for AMS than for Shoggoth's labeling
        assert ams.cloud_gpu_seconds > shog.cloud_gpu_seconds

    def test_prompt_uses_more_uplink_than_shoggoth(self, student, teacher):
        dataset = build_dataset("stationary", num_frames=300)
        config = small_config()
        prompt = build_strategy("prompt").run(
            dataset=dataset, student=student.clone(), teacher=teacher, config=config
        )
        shog = build_strategy("shoggoth").run(
            dataset=dataset, student=student.clone(), teacher=teacher, config=config
        )
        # on a stationary video the adaptive controller backs off, Prompt cannot
        assert prompt.bandwidth.uplink_kbps >= shog.bandwidth.uplink_kbps

    def test_fixed_rate_strategy_scales_uplink(self, student, teacher):
        dataset = build_dataset("stationary", num_frames=300)
        config = small_config()
        slow = FixedRateShoggothStrategy(0.2).run(
            dataset=dataset, student=student.clone(), teacher=teacher, config=config
        )
        fast = FixedRateShoggothStrategy(2.0).run(
            dataset=dataset, student=student.clone(), teacher=teacher, config=config
        )
        assert fast.bandwidth.uplink_kbps > slow.bandwidth.uplink_kbps

    def test_replay_seed_passed_through(self, student, teacher):
        from repro.detection.pretrain import generate_offline_dataset

        dataset = build_dataset("detrac", num_frames=120)
        seed_data = generate_offline_dataset(6, seed=3)
        session = CollaborativeSession(
            dataset=dataset,
            student=student.clone(),
            teacher=teacher,
            options=SessionOptions(name="shoggoth"),
            config=small_config(),
            replay_seed=seed_data,
        )
        assert session.edge.trainer is not None
        assert len(session.edge.trainer.replay) == 6

    def test_unknown_strategy_raises(self):
        with pytest.raises(KeyError):
            build_strategy("teleport")
