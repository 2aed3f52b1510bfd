"""Sharded-cloud tests: placement policies, cluster wiring, golden pin.

Three layers:

* property-style unit tests drive the :class:`PlacementPolicy` objects
  with synthetic job streams against stub workers (no fleet needed);
* the golden regression pins ``CloudCluster(num_gpus=1,
  placement="round_robin")`` with the default FIFO scheduler to the
  exact PR 2 fleet metrics (which are themselves the PR 1 metrics) —
  the sharding refactor must be invisible until a second GPU is added;
* multi-GPU integration tests check that sharding actually spreads
  load, cuts queue delay, keeps sticky cameras on one worker and
  reports shard-aware utilisation.
"""

from __future__ import annotations

import pytest

from repro.core import CameraSpec, CloudCluster, FleetSession
from repro.core.scheduling import (
    LABELING,
    FifoScheduler,
    GpuJob,
    LeastLoadedPlacement,
    PLACEMENTS,
    PlacementPolicy,
    PowerOfTwoPlacement,
    RoundRobinPlacement,
    StalenessPriorityScheduler,
    StickyPlacement,
    build_placement,
)
from repro.detection import StudentConfig, StudentDetector, TeacherConfig, TeacherDetector
from repro.video import build_dataset

from test_scheduling import PR1_GOLDEN, make_mixed_fleet, small_config


def job(camera_id: int, arrival: float, service: float = 0.1) -> GpuJob:
    return GpuJob(
        kind=LABELING, camera_id=camera_id, arrival=arrival, service_seconds=service
    )


class StubWorker:
    """Minimal GpuWorkerView: accumulated load, never draining."""

    def __init__(self) -> None:
        self.load = 0.0

    def pending_gpu_seconds(self, now: float) -> float:
        return self.load


def drive(policy: PlacementPolicy, services: list[float], num_workers: int):
    """Place one job stream; return per-step loads and the max imbalance."""
    policy.reset()
    workers = [StubWorker() for _ in range(num_workers)]
    max_imbalance = 0.0
    for index, service in enumerate(services):
        chosen = policy.place(job(index, float(index), service), workers, float(index))
        workers[chosen].load += service
        loads = [worker.load for worker in workers]
        max_imbalance = max(max_imbalance, max(loads) - min(loads))
    return [worker.load for worker in workers], max_imbalance


# ---------------------------------------------------------------------------
# placement unit / property tests
# ---------------------------------------------------------------------------
class TestPlacementRegistry:
    def test_build_by_name_and_passthrough(self):
        assert isinstance(build_placement(None), RoundRobinPlacement)
        assert isinstance(build_placement("least_loaded"), LeastLoadedPlacement)
        instance = StickyPlacement()
        assert build_placement(instance) is instance
        seeded = build_placement("power_of_two", seed=3)
        assert seeded.seed == 3

    def test_unknown_name_and_bad_options_raise(self):
        with pytest.raises(ValueError, match="unknown placement"):
            build_placement("random")
        with pytest.raises(ValueError):
            build_placement(RoundRobinPlacement(), seed=1)
        with pytest.raises(NotImplementedError):
            PlacementPolicy().place(job(0, 0.0), [StubWorker()], 0.0)

    def test_registry_covers_all_five_placements(self):
        assert set(PLACEMENTS) == {
            "round_robin",
            "least_loaded",
            "sticky",
            "power_of_two",
            "cheapest_feasible",
        }


class TestRoundRobin:
    def test_cycles_in_order(self):
        policy = RoundRobinPlacement()
        workers = [StubWorker() for _ in range(3)]
        picks = [policy.place(job(0, 0.0), workers, 0.0) for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]
        policy.reset()
        assert policy.place(job(0, 0.0), workers, 0.0) == 0


class TestLeastLoaded:
    def test_never_worse_than_round_robin_imbalance(self):
        """Property: on identical job streams, least-loaded's maximum
        load imbalance never exceeds round-robin's."""
        import numpy as np

        for seed in range(8):
            rng = np.random.default_rng(seed)
            services = [float(s) for s in rng.uniform(0.05, 1.0, size=60)]
            for num_workers in (2, 3, 4):
                _, ll_imbalance = drive(
                    LeastLoadedPlacement(), services, num_workers
                )
                _, rr_imbalance = drive(
                    RoundRobinPlacement(), services, num_workers
                )
                assert ll_imbalance <= rr_imbalance + 1e-9

    def test_least_loaded_imbalance_bounded_by_max_service(self):
        import numpy as np

        rng = np.random.default_rng(42)
        services = [float(s) for s in rng.uniform(0.05, 0.5, size=100)]
        loads, imbalance = drive(LeastLoadedPlacement(), services, 4)
        # greedy balancing: the spread never exceeds one job's service
        assert imbalance <= max(services) + 1e-9
        assert all(load > 0 for load in loads)

    def test_ties_break_on_lower_index(self):
        workers = [StubWorker(), StubWorker()]
        assert LeastLoadedPlacement().place(job(0, 0.0), workers, 0.0) == 0


class TestSticky:
    def test_camera_stays_on_one_worker(self):
        policy = StickyPlacement()
        workers = [StubWorker() for _ in range(4)]
        for camera_id in range(16):
            first = policy.place(job(camera_id, 0.0), workers, 0.0)
            # later jobs of the same camera land on the same worker,
            # regardless of how load shifts in between
            workers[(first + 1) % 4].load += 10.0
            for arrival in (1.0, 2.0, 3.0):
                assert policy.place(job(camera_id, arrival), workers, arrival) == first

    def test_hash_is_stable_and_spreads(self):
        policy = StickyPlacement()
        workers = [StubWorker() for _ in range(4)]
        picks = {cam: policy.place(job(cam, 0.0), workers, 0.0) for cam in range(64)}
        fresh = StickyPlacement()
        repicks = {cam: fresh.place(job(cam, 0.0), workers, 0.0) for cam in range(64)}
        assert picks == repicks  # deterministic across instances/runs
        assert len(set(picks.values())) == 4  # uses every worker


class TestPowerOfTwo:
    def test_deterministic_and_avoids_hot_worker(self):
        policy = PowerOfTwoPlacement(seed=7)
        workers = [StubWorker() for _ in range(4)]
        workers[2].load = 100.0  # one hot worker
        picks = [policy.place(job(i, 0.0), workers, 0.0) for i in range(40)]
        policy.reset()
        again = [policy.place(job(i, 0.0), workers, 0.0) for i in range(40)]
        assert picks == again
        # of two sampled workers the hot one never wins against a cold one
        assert picks.count(2) == 0

    def test_single_worker_short_circuits(self):
        assert PowerOfTwoPlacement().place(job(0, 0.0), [StubWorker()], 0.0) == 0


# ---------------------------------------------------------------------------
# cluster construction / validation
# ---------------------------------------------------------------------------
class TestClusterConstruction:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="at least one GPU"):
            CloudCluster(num_gpus=0)
        with pytest.raises(ValueError, match="cannot be shared"):
            CloudCluster(num_gpus=2, scheduler=FifoScheduler())
        with pytest.raises(ValueError, match="unknown scheduler"):
            CloudCluster(num_gpus=2, scheduler="lifo")
        with pytest.raises(ValueError, match="unknown placement"):
            CloudCluster(num_gpus=2, placement="hash_ring")
        with pytest.raises(ValueError, match="must produce GpuScheduler"):
            CloudCluster(num_gpus=2, scheduler=lambda: object())
        shared = StalenessPriorityScheduler()
        with pytest.raises(ValueError, match="same instance"):
            CloudCluster(num_gpus=2, scheduler=lambda: shared)

    def test_factory_and_class_build_per_worker_instances(self):
        cluster = CloudCluster(num_gpus=3, scheduler=StalenessPriorityScheduler)
        assert len(cluster.schedulers) == 3
        assert len({id(s) for s in cluster.schedulers}) == 3
        assert cluster.scheduler_name == "staleness"
        assert cluster.placement_name == "round_robin"

    def test_cluster_binds_only_once(self, teacher):
        from repro.core.actors import SharedLinkTransport
        from repro.core.cloud import CloudServer
        from repro.network.link import SharedLink

        cluster = CloudCluster(num_gpus=2)
        cloud = CloudServer(
            teacher, schedule=build_dataset("detrac", num_frames=120).schedule
        )
        cluster.bind(cloud, SharedLinkTransport(SharedLink()))
        assert len(cluster.workers) == 2
        with pytest.raises(RuntimeError, match="already bound"):
            cluster.bind(cloud, SharedLinkTransport(SharedLink()))


class TestCameraSpecValidation:
    def test_bad_specs_raise_at_construction(self):
        dataset = build_dataset("detrac", num_frames=120)
        with pytest.raises(ValueError, match="weights must be positive"):
            CameraSpec("cam", dataset, weight=0.0)
        with pytest.raises(ValueError, match="weights must be positive"):
            CameraSpec("cam", dataset, weight=-2.0)
        with pytest.raises(ValueError, match="name must be non-empty"):
            CameraSpec("", dataset)

    def test_duplicate_names_rejected_with_the_culprits(self, student, teacher):
        dataset = build_dataset("detrac", num_frames=120)
        with pytest.raises(ValueError, match=r"duplicated: \['dup'\]"):
            FleetSession(
                [
                    CameraSpec("dup", dataset),
                    CameraSpec("ok", dataset),
                    CameraSpec("dup", dataset),
                ],
                student=student,
                teacher=teacher,
            )


# ---------------------------------------------------------------------------
# golden regression: 1-GPU cluster == PR 2 FIFO fleet, bit for bit
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def student() -> StudentDetector:
    return StudentDetector(StudentConfig(seed=5))


@pytest.fixture(scope="module")
def teacher() -> TeacherDetector:
    return TeacherDetector(TeacherConfig(seed=9))


def make_sharded_fleet(
    num_gpus: int,
    placement="round_robin",
    scheduler=None,
    n_cameras: int = 4,
    num_frames: int = 240,
) -> FleetSession:
    student = StudentDetector(StudentConfig(seed=5))
    teacher = TeacherDetector(TeacherConfig(seed=9))
    datasets = ["detrac", "kitti", "waymo", "stationary"]
    strategies = ["shoggoth", "ams", "shoggoth", "shoggoth"]
    cameras = [
        CameraSpec(
            name=f"cam{i}",
            dataset=build_dataset(datasets[i % 4], num_frames=num_frames),
            strategy=strategies[i % 4],
            seed=i,
        )
        for i in range(n_cameras)
    ]
    return FleetSession(
        cameras,
        student=student,
        teacher=teacher,
        config=small_config(),
        num_gpus=num_gpus,
        placement=placement,
        scheduler=scheduler,
    )


class TestGoldenOneWorkerCluster:
    def test_one_gpu_cluster_reproduces_pr2_fleet_bit_for_bit(self):
        """An explicit 1-worker cluster with round-robin placement
        and the default FIFO scheduler must be indistinguishable from the
        PR 2 single-GPU fleet — including the final student weights."""
        import numpy as np

        cluster_result = FleetSession(
            make_mixed_fleet().cameras,  # same specs as the pinned fleet
            student=StudentDetector(StudentConfig(seed=5)),
            teacher=TeacherDetector(TeacherConfig(seed=9)),
            config=small_config(),
            num_gpus=1, placement="round_robin", scheduler=FifoScheduler(),
        ).run()
        golden = PR1_GOLDEN
        assert cluster_result.scheduler == "fifo"
        assert cluster_result.placement == "round_robin"
        assert cluster_result.num_gpus == 1
        assert cluster_result.mean_queue_delay == pytest.approx(
            golden["mean_queue_delay"], rel=1e-12
        )
        assert cluster_result.max_queue_delay == pytest.approx(
            golden["max_queue_delay"], rel=1e-12
        )
        assert cluster_result.cloud_gpu_seconds == pytest.approx(
            golden["cloud_gpu_seconds"], rel=1e-12
        )
        assert cluster_result.cloud_busy_seconds == pytest.approx(
            golden["cloud_busy_seconds"], rel=1e-12
        )
        assert cluster_result.num_labeling_batches == golden["num_labeling_batches"]
        for name, expected in golden["gpu_seconds_by_camera"].items():
            assert cluster_result.gpu_seconds_by_camera[name] == pytest.approx(
                expected, rel=1e-12
            )
        for entry in cluster_result.cameras:
            session = entry.session
            assert session.num_uploads == golden["num_uploads"][entry.camera]
            assert session.bandwidth.uplink_bytes == golden["uplink_bytes"][entry.camera]
            assert (
                session.bandwidth.downlink_bytes == golden["downlink_bytes"][entry.camera]
            )
            assert entry.mean_upload_latency == pytest.approx(
                golden["mean_upload_latency"], rel=1e-12
            )
        # sharding metrics collapse to the single-GPU story
        assert cluster_result.gpu_busy_by_worker == [cluster_result.cloud_busy_seconds]
        assert cluster_result.num_migrations == 0
        assert cluster_result.load_imbalance == pytest.approx(1.0)
        assert cluster_result.gpu_load_fairness == pytest.approx(1.0)

        # ... and the final per-camera student weights are identical too
        fifo_result = make_mixed_fleet().run()
        for entry, other in zip(cluster_result.cameras, fifo_result.cameras):
            state = entry.session
            assert entry.camera == other.camera
            assert state.evaluated_frame_indices == other.session.evaluated_frame_indices
            for left, right in zip(
                state.detections_per_frame, other.session.detections_per_frame
            ):
                assert len(left) == len(right)
                for a, b in zip(left, right):
                    assert a.score == b.score
                    assert np.allclose(a.box, b.box)

    def test_queue_wait_lists_match_exactly(self):
        via_knobs = make_sharded_fleet(num_gpus=1).run()
        plain = make_mixed_fleet().run()
        assert via_knobs.queue_waits == plain.queue_waits
        assert via_knobs.gpu_seconds_by_camera == plain.gpu_seconds_by_camera

    def test_explicit_on_demand_worker_specs_reproduce_pr4_bit_for_bit(self):
        """A homogeneous all-on-demand WorkerSpec cluster with zero
        revocations must be indistinguishable from the spec-less PR 4
        fleet: the heterogeneous/spot machinery is invisible until a
        non-default spec or a revocation process opts in."""
        from repro.core.scheduling import WorkerSpec

        golden = PR1_GOLDEN
        specced = FleetSession(
            make_mixed_fleet().cameras,
            student=StudentDetector(StudentConfig(seed=5)),
            teacher=TeacherDetector(TeacherConfig(seed=9)),
            config=small_config(),
            worker_specs=[WorkerSpec(speed=1.0, cost_per_gpu_second=1.0,
                                     preemptible=False)],
        ).run()
        plain = make_mixed_fleet().run()
        # every shared metric is bit-for-bit (not approx) the PR 4 run
        assert specced.queue_waits == plain.queue_waits
        assert specced.training_waits == plain.training_waits
        assert specced.gpu_seconds_by_camera == plain.gpu_seconds_by_camera
        assert specced.cloud_busy_seconds == plain.cloud_busy_seconds
        assert specced.gpu_busy_by_worker == plain.gpu_busy_by_worker
        assert specced.num_labeling_batches == plain.num_labeling_batches
        assert specced.gpu_seconds_provisioned == plain.gpu_seconds_provisioned
        assert specced.mean_queue_delay == pytest.approx(
            golden["mean_queue_delay"], rel=1e-12
        )
        assert specced.cloud_gpu_seconds == pytest.approx(
            golden["cloud_gpu_seconds"], rel=1e-12
        )
        for entry, other in zip(specced.cameras, plain.cameras):
            assert entry.camera == other.camera
            assert entry.session.num_uploads == other.session.num_uploads
            assert (
                entry.session.bandwidth.uplink_bytes
                == other.session.bandwidth.uplink_bytes
            )
            assert entry.upload_latencies == other.upload_latencies
        # and the new cost axis collapses to the fixed-capacity story
        assert specced.dollar_cost == specced.gpu_seconds_provisioned
        assert specced.gpu_seconds_by_tier == {
            "on_demand": specced.gpu_seconds_provisioned
        }
        assert specced.num_revocations == 0
        assert specced.spot_fraction == 0.0
        assert plain.dollar_cost == specced.dollar_cost


# ---------------------------------------------------------------------------
# multi-GPU integration
# ---------------------------------------------------------------------------
class TestShardedFleet:
    def test_more_gpus_cut_queue_delay(self):
        solo = make_sharded_fleet(num_gpus=1, placement="least_loaded").run()
        quad = make_sharded_fleet(num_gpus=4, placement="least_loaded").run()
        assert quad.num_gpus == 4
        assert len(quad.gpu_busy_by_worker) == 4
        assert quad.mean_queue_delay < solo.mean_queue_delay
        # total GPU work is conserved (same uploads, same service model)
        assert sum(quad.gpu_busy_by_worker) == pytest.approx(quad.cloud_busy_seconds)

    def test_sticky_placement_never_migrates(self):
        result = make_sharded_fleet(num_gpus=3, placement="sticky").run()
        assert result.placement == "sticky"
        assert result.num_migrations == 0
        assert all(count == 0 for count in result.migrations_by_camera.values())

    def test_least_loaded_balances_better_than_sticky(self):
        sticky = make_sharded_fleet(num_gpus=2, placement="sticky").run()
        balanced = make_sharded_fleet(num_gpus=2, placement="least_loaded").run()
        assert balanced.load_imbalance <= sticky.load_imbalance + 1e-9
        assert 0.0 < balanced.gpu_load_fairness <= 1.0 + 1e-9

    def test_shard_aware_utilization(self):
        result = make_sharded_fleet(num_gpus=4, placement="round_robin").run()
        total_busy = sum(result.gpu_busy_by_worker)
        expected = min(1.0, total_busy / (4 * result.duration_seconds))
        assert result.cloud_utilization == pytest.approx(expected)
        assert len(result.worker_utilizations) == 4
        for fraction, busy in zip(result.worker_utilizations, result.gpu_busy_by_worker):
            assert fraction == pytest.approx(
                min(1.0, busy / result.duration_seconds)
            )
        # the naive single-GPU definition would overstate a 4-GPU cloud 4x
        naive = min(1.0, total_busy / result.duration_seconds)
        assert result.cloud_utilization <= naive

    def test_drift_scheduler_runs_sharded(self):
        session = make_sharded_fleet(
            num_gpus=2, placement="power_of_two", scheduler="drift"
        )
        result = session.run()
        assert result.scheduler == "drift"
        assert result.num_cameras == 4
        assert result.mean_queue_delay >= 0.0
        assert len(result.training_waits) > 0  # unified queue: AMS trains queued
        # φ is broadcast cluster-wide: every shard's scheduler holds the
        # same measurements, so no worker treats a measured camera as
        # unmeasured (+inf) drift just because another shard labeled it
        measured = [set(sched._phi) for sched in session.cluster.schedulers]
        assert measured[0] and all(m == measured[0] for m in measured)

    def test_per_tenant_gpu_seconds_summed_across_shards(self):
        result = make_sharded_fleet(num_gpus=2, placement="round_robin").run()
        # every camera was served somewhere, and tenant totals are bounded
        # by the cluster total (batch overhead is unattributed)
        assert all(v > 0 for v in result.gpu_seconds_by_camera.values())
        assert sum(result.gpu_seconds_by_camera.values()) <= result.cloud_gpu_seconds + 1e-9
