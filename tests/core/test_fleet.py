"""Fleet-session tests: shared cloud, shared link, per-tenant accounting."""

from __future__ import annotations

import pytest

from repro.core import CameraSpec, FleetSession, ShoggothConfig
from repro.core.federation import RegionSpec
from repro.detection import StudentConfig, StudentDetector, TeacherConfig, TeacherDetector
from repro.network.link import WanProfile
from repro.video import build_dataset


def small_config() -> ShoggothConfig:
    return (
        ShoggothConfig(eval_stride=5)
        .with_training(train_batch_size=4, replay_capacity=12, minibatch_size=8, epochs=1)
        .with_sampling(initial_rate_fps=2.0)
    )


@pytest.fixture(scope="module")
def student() -> StudentDetector:
    return StudentDetector(StudentConfig(seed=5))


@pytest.fixture(scope="module")
def teacher() -> TeacherDetector:
    return TeacherDetector(TeacherConfig(seed=9))


def make_fleet(student, teacher, n, strategy="shoggoth", num_frames=240, **kwargs):
    datasets = ["detrac", "kitti", "waymo", "stationary"]
    cameras = [
        CameraSpec(
            name=f"cam{i}",
            dataset=build_dataset(datasets[i % len(datasets)], num_frames=num_frames),
            strategy=strategy,
            seed=i,
        )
        for i in range(n)
    ]
    return FleetSession(
        cameras, student=student, teacher=teacher, config=small_config(), **kwargs
    )


class TestFleetSession:
    def test_four_cameras_end_to_end(self, student, teacher):
        result = make_fleet(student, teacher, 4).run()
        assert result.num_cameras == 4
        assert result.duration_seconds == pytest.approx(8.0)
        for entry in result.cameras:
            session = entry.session
            assert session.num_uploads > 0
            assert session.bandwidth.uplink_kbps > 0
            assert len(session.detections_per_frame) == len(session.ground_truth_per_frame) > 0
        # the shared GPU served someone, and the sum of tenant shares is
        # bounded by the server total (batch overhead is unattributed)
        assert result.cloud_gpu_seconds > 0
        assert sum(result.gpu_seconds_by_camera.values()) <= result.cloud_gpu_seconds + 1e-9

    def test_heterogeneous_strategies_share_one_cloud(self, student, teacher):
        cameras = [
            CameraSpec("shog", build_dataset("detrac", num_frames=240), "shoggoth", seed=0),
            CameraSpec("ams", build_dataset("kitti", num_frames=240), "ams", seed=1),
            CameraSpec("prompt", build_dataset("stationary", num_frames=240), "prompt", seed=2),
        ]
        fleet = FleetSession(cameras, student=student, teacher=teacher, config=small_config())
        result = fleet.run()
        shog = result.session("shog")
        ams = result.session("ams")
        # Shoggoth trains on the edge, AMS in the cloud
        assert len(shog.training_windows) > 0
        assert len(ams.training_windows) == 0
        # AMS pays model downloads on top of labels
        assert ams.bandwidth.downlink_bytes > shog.bandwidth.downlink_bytes
        # AMS's cloud-side fine-tuning costs the shared GPU more than labeling
        assert result.gpu_seconds_by_camera["ams"] > result.gpu_seconds_by_camera["prompt"]

    def test_upload_latency_rises_with_fleet_size(self, student, teacher):
        latencies = []
        for n in (1, 4):
            result = make_fleet(student, teacher, n).run()
            all_lat = [
                lat for entry in result.cameras for lat in entry.upload_latencies
            ]
            assert all_lat, "fleet produced no uploads"
            latencies.append(sum(all_lat) / len(all_lat))
        assert latencies[1] > latencies[0]

    def test_queue_delay_appears_under_contention(self, student, teacher):
        solo = make_fleet(student, teacher, 1).run()
        crowd = make_fleet(student, teacher, 4).run()
        assert crowd.mean_queue_delay > solo.mean_queue_delay
        assert crowd.num_labeling_batches > 0
        assert 0.0 <= crowd.cloud_utilization <= 1.0

    def test_slow_shared_link_stretches_uploads(self, student, teacher):
        fast = make_fleet(
            student, teacher, 2,
            regions=[RegionSpec("default", wan=WanProfile(uplink_kbps=50_000.0))],
        ).run()
        slow = make_fleet(
            student, teacher, 2,
            regions=[RegionSpec("default", wan=WanProfile(uplink_kbps=2_000.0))],
        ).run()
        fast_lat = [l for e in fast.cameras for l in e.upload_latencies]
        slow_lat = [l for e in slow.cameras for l in e.upload_latencies]
        assert sum(slow_lat) / len(slow_lat) > sum(fast_lat) / len(fast_lat)

    def test_single_camera_fleet_close_to_standalone_session(self, student, teacher):
        """A fleet of one still pays (small) network/queue latency, but its
        detection/evaluation stream is identical to the standalone session."""
        from repro.core import CollaborativeSession, build_strategy

        dataset = build_dataset("detrac", num_frames=240)
        fleet = FleetSession(
            [CameraSpec("solo", dataset, "edge_only", seed=0)],
            student=student, teacher=teacher, config=small_config(),
        )
        fleet_session = fleet.run().session("solo")
        standalone = CollaborativeSession(
            dataset=build_dataset("detrac", num_frames=240),
            student=student.clone(),
            teacher=TeacherDetector(TeacherConfig(seed=9)),
            options=build_strategy("edge_only").options,
            config=small_config(),
            seed=0,
        ).run()
        assert fleet_session.evaluated_frame_indices == standalone.evaluated_frame_indices
        assert fleet_session.num_uploads == standalone.num_uploads == 0
        assert fleet_session.bandwidth.uplink_bytes == standalone.bandwidth.uplink_bytes == 0

    def test_validation(self, student, teacher):
        with pytest.raises(ValueError):
            FleetSession([], student=student, teacher=teacher)
        dataset = build_dataset("detrac", num_frames=60)
        with pytest.raises(ValueError):
            FleetSession(
                [CameraSpec("a", dataset), CameraSpec("a", dataset)],
                student=student,
                teacher=teacher,
            )
        result = FleetSession(
            [CameraSpec("a", dataset)], student=student, teacher=teacher,
            config=small_config(),
        ).run()
        with pytest.raises(KeyError):
            result.session("missing")
