"""Scheduler subsystem tests: policy properties + FIFO regression pin.

The unit tests drive the policy objects directly with synthetic
:class:`GpuJob` queues (ordering, fairness bounds, admission).  The
integration tests run real fleets per policy, and the regression test
pins the default :class:`FifoScheduler` to the exact fleet metrics the
pre-scheduler code (PR 1, commit 6e721a3) produced for a mixed
Shoggoth/AMS fleet — the scheduler refactor must be invisible until a
non-default policy is chosen.
"""

from __future__ import annotations

import pytest

from repro.core import CameraSpec, FleetSession, ShoggothConfig
from repro.core.federation import RegionSpec
from repro.core.scheduling import (
    LABELING,
    TRAINING,
    AdmissionControlScheduler,
    DriftAwareScheduler,
    FifoScheduler,
    GpuJob,
    GpuScheduler,
    SCHEDULERS,
    StalenessPriorityScheduler,
    WeightedFairScheduler,
    build_scheduler,
    jain_fairness,
)
from repro.detection import StudentConfig, StudentDetector, TeacherConfig, TeacherDetector
from repro.video import build_dataset


def job(camera_id: int, arrival: float, service: float = 0.1, kind: str = LABELING) -> GpuJob:
    return GpuJob(kind=kind, camera_id=camera_id, arrival=arrival, service_seconds=service)


# ---------------------------------------------------------------------------
# unit tests on the policy objects
# ---------------------------------------------------------------------------
class TestSchedulerRegistry:
    def test_build_by_name_and_passthrough(self):
        assert isinstance(build_scheduler(None), FifoScheduler)
        assert isinstance(build_scheduler("staleness"), StalenessPriorityScheduler)
        instance = WeightedFairScheduler()
        assert build_scheduler(instance) is instance
        budget = build_scheduler("admission", delay_budget_seconds=0.5)
        assert budget.delay_budget_seconds == 0.5

    def test_unknown_name_and_bad_options_raise(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            build_scheduler("round_robin")
        with pytest.raises(ValueError):
            build_scheduler(FifoScheduler(), delay_budget_seconds=1.0)
        with pytest.raises(ValueError):
            AdmissionControlScheduler(delay_budget_seconds=0.0)
        with pytest.raises(ValueError):
            FifoScheduler().register_tenant(0, weight=0.0)

    def test_registry_covers_all_five_policies(self):
        assert set(SCHEDULERS) == {
            "fifo",
            "staleness",
            "weighted_fair",
            "admission",
            "drift",
        }

    def test_base_select_is_abstract(self):
        with pytest.raises(NotImplementedError):
            GpuScheduler().select([], 0.0)


class TestFifoScheduler:
    def test_selects_whole_queue_in_arrival_order(self):
        queue = [job(2, 0.0), job(0, 0.5), job(1, 1.0)]
        assert FifoScheduler().select(queue, now=1.0) == queue

    def test_training_bypasses_the_queue(self):
        # PR 1 semantics: only labeling occupies the queued GPU
        assert FifoScheduler.queue_training is False


class TestStalenessPriority:
    def test_serves_most_stale_tenant_first(self):
        sched = StalenessPriorityScheduler()
        for camera_id in (0, 1, 2):
            sched.register_tenant(camera_id)
        # camera 1 was served recently, camera 2 long ago, camera 0 never
        sched.on_served([job(1, 0.0)], completion=9.0)
        sched.on_served([job(2, 0.0)], completion=4.0)
        queue = [job(1, 9.5), job(2, 9.6), job(0, 9.7)]
        picked = sched.select(queue, now=10.0)
        assert {j.camera_id for j in picked} == {0}
        # with camera 0 gone, the longest-unserved of the rest wins
        picked = sched.select([j for j in queue if j.camera_id != 0], now=10.0)
        assert {j.camera_id for j in picked} == {2}

    def test_serves_all_jobs_of_chosen_tenant(self):
        sched = StalenessPriorityScheduler()
        queue = [job(0, 0.0), job(1, 0.1), job(0, 0.2, kind=TRAINING)]
        picked = sched.select(queue, now=1.0)
        assert [j.camera_id for j in picked] == [0, 0]
        assert {j.kind for j in picked} == {LABELING, TRAINING}

    def test_only_label_batches_reset_staleness(self):
        sched = StalenessPriorityScheduler()
        sched.on_served([job(0, 0.0, kind=TRAINING)], completion=5.0)
        assert sched.staleness(0, now=6.0) == pytest.approx(6.0)
        sched.on_served([job(0, 0.0)], completion=5.0)
        assert sched.staleness(0, now=6.0) == pytest.approx(1.0)


class TestWeightedFair:
    def simulate(self, weights: dict[int, float], rounds: int = 60, service: float = 0.1):
        """Saturated GPU: every tenant always has one job queued."""
        sched = WeightedFairScheduler()
        for camera_id, weight in weights.items():
            sched.register_tenant(camera_id, weight=weight)
        for round_index in range(rounds):
            now = round_index * service
            queue = [job(camera_id, now, service) for camera_id in weights]
            picked = sched.select(queue, now)
            sched.on_served(picked, now + service)
        return sched

    def test_equal_weights_bound_gpu_seconds_spread(self):
        service = 0.1
        sched = self.simulate({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}, service=service)
        consumed = [sched.consumed.get(camera_id, 0.0) for camera_id in range(4)]
        # deficit round-robin: under sustained equal demand the spread is
        # bounded by one busy period's service, not growing with time
        assert max(consumed) - min(consumed) <= service + 1e-9
        assert jain_fairness(consumed) > 0.99

    def test_weights_tilt_capacity(self):
        sched = self.simulate({0: 3.0, 1: 1.0}, rounds=80)
        heavy = sched.consumed[0]
        light = sched.consumed[1]
        assert heavy > 2.0 * light
        # normalised consumption converges across tenants
        assert sched.normalized_consumption(0) == pytest.approx(
            sched.normalized_consumption(1), abs=0.2
        )

    def test_serves_least_served_queued_tenant(self):
        sched = WeightedFairScheduler()
        sched.on_served([job(0, 0.0, service=1.0)], completion=1.0)
        picked = sched.select([job(0, 1.0), job(1, 1.1)], now=2.0)
        assert {j.camera_id for j in picked} == {1}


class TestDriftAware:
    def test_unmeasured_tenants_are_served_first(self):
        sched = DriftAwareScheduler()
        sched.on_labeled(0, phi=0.9, now=1.0)
        queue = [job(0, 1.5), job(1, 1.6)]
        # camera 1 was never measured: its drift is unknown (+inf)
        picked = sched.select(queue, now=2.0)
        assert {j.camera_id for j in picked} == {1}

    def test_highest_measured_phi_wins(self):
        sched = DriftAwareScheduler()
        sched.on_labeled(0, phi=0.05, now=1.0)  # stationary camera
        sched.on_labeled(1, phi=0.80, now=1.9)  # drifting camera, fresher too
        # the stationary camera has waited longer — φ overrules staleness
        queue = [job(0, 1.0), job(1, 1.9)]
        picked = sched.select(queue, now=2.0)
        assert {j.camera_id for j in picked} == {1}
        assert sched.phi(1) == pytest.approx(0.80)

    def test_ties_fall_back_to_staleness(self):
        sched = DriftAwareScheduler()
        sched.on_labeled(0, phi=0.5, now=1.5)  # camera 0 labeled more recently
        sched.on_labeled(1, phi=0.5, now=1.0)
        picked = sched.select([job(0, 1.6), job(1, 1.6)], now=2.0)
        assert {j.camera_id for j in picked} == {1}
        # the staleness clock lives in on_labeled (broadcast cluster-wide),
        # so a worker that merely observed the service keeps the same clock
        assert sched.staleness(0, now=2.0) == pytest.approx(0.5)

    def test_never_labeled_camera_has_infinite_phi_and_epoch_staleness(self):
        sched = DriftAwareScheduler()
        # never measured: drift is unknown, treated as maximally urgent
        assert sched.phi(7) == float("inf")
        # never labeled: the staleness clock runs from the epoch (t=0)
        assert sched.staleness(7, now=3.5) == pytest.approx(3.5)
        sched.on_labeled(7, phi=0.2, now=3.0)
        assert sched.phi(7) == pytest.approx(0.2)
        assert sched.staleness(7, now=3.5) == pytest.approx(0.5)

    def test_two_unmeasured_tenants_tie_break_on_staleness_then_id(self):
        sched = DriftAwareScheduler()
        # both φ = +inf, both staleness clocks from the epoch: the
        # remaining tie-breaks are arrival order then camera id, so the
        # selection is deterministic even with no signal at all
        picked = sched.select([job(3, 1.2), job(2, 1.1)], now=2.0)
        assert {j.camera_id for j in picked} == {2}
        # and a measured-but-huge φ still loses to never-measured
        sched.on_labeled(2, phi=1e9, now=2.0)
        picked = sched.select([job(3, 2.1), job(2, 2.2)], now=3.0)
        assert {j.camera_id for j in picked} == {3}

    def test_serves_all_jobs_of_chosen_tenant_and_resets(self):
        sched = DriftAwareScheduler()
        sched.on_labeled(0, phi=0.9, now=1.0)
        sched.on_labeled(1, phi=0.1, now=1.0)
        queue = [job(0, 1.1), job(1, 1.2), job(0, 1.3, kind=TRAINING)]
        picked = sched.select(queue, now=2.0)
        assert [j.camera_id for j in picked] == [0, 0]
        sched.reset()
        assert sched.phi(0) == float("inf")
        assert sched.queue_training  # unified queue like the other non-FIFO policies


class TestAdmissionControl:
    def test_rejects_only_over_budget_labeling(self):
        sched = AdmissionControlScheduler(delay_budget_seconds=0.2)
        # idle GPU: everything is admitted
        assert sched.admit(job(0, 0.0), [], now=0.0, busy_until=0.0)
        # projected wait 0.5s > 0.2s budget: the upload is turned away
        assert not sched.admit(job(0, 1.0), [], now=1.0, busy_until=1.5)
        # training is never rejected (the labels were already paid for)
        assert sched.admit(job(0, 1.0, kind=TRAINING), [], now=1.0, busy_until=1.5)

    def test_service_order_is_fifo(self):
        queue = [job(0, 0.0), job(1, 0.2)]
        assert AdmissionControlScheduler().select(queue, now=1.0) == queue


class TestJainFairness:
    def test_bounds_and_extremes(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        # all capacity to one of n tenants -> 1/n
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# fleet integration + the FIFO regression pin
# ---------------------------------------------------------------------------
def small_config() -> ShoggothConfig:
    return (
        ShoggothConfig(eval_stride=5)
        .with_training(train_batch_size=4, replay_capacity=12, minibatch_size=8, epochs=1)
        .with_sampling(initial_rate_fps=2.0)
    )


def make_mixed_fleet(
    scheduler=None, weights=None, num_frames=240, **cluster
) -> FleetSession:
    """The pinned fleet: three Shoggoth cameras plus one AMS camera.

    Extra keyword arguments are fields of the fleet's one
    :class:`RegionSpec`, so golden-pin variants (cluster shapes,
    ``batching=...``) reuse the exact same cameras and config.
    """
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
            weight=(weights[i] if weights else 1.0),
        )
        for i in range(4)
    ]
    return FleetSession(
        cameras,
        student=student,
        teacher=teacher,
        config=small_config(),
        regions=[RegionSpec("default", scheduler=scheduler, **cluster)],
    )


#: exact fleet metrics produced by the pre-scheduler code (PR 1, commit
#: 6e721a3) for ``make_mixed_fleet()`` — the FIFO default must reproduce
#: them bit-for-bit
PR1_GOLDEN = dict(
    mean_queue_delay=0.12749999999999995,
    max_queue_delay=0.16999999999999993,
    cloud_gpu_seconds=3.0899999999999994,
    cloud_busy_seconds=3.2000000000000006,
    num_labeling_batches=10,
    gpu_seconds_by_camera={
        "cam0": 0.7500000000000001,
        "cam1": 0.8400000000000002,
        "cam2": 0.7500000000000001,
        "cam3": 0.7500000000000001,
    },
    num_uploads={"cam0": 5, "cam1": 5, "cam2": 5, "cam3": 5},
    uplink_bytes={"cam0": 361720, "cam1": 361720, "cam2": 361720, "cam3": 361720},
    downlink_bytes={"cam0": 3632, "cam1": 407980, "cam2": 3352, "cam3": 2820},
    mean_upload_latency=0.2515007999999998,
)


class TestFifoRegression:
    def test_fifo_reproduces_pr1_fleet_metrics_exactly(self):
        result = make_mixed_fleet().run()  # default scheduler is FIFO
        golden = PR1_GOLDEN
        assert result.scheduler == "fifo"
        assert result.mean_queue_delay == pytest.approx(
            golden["mean_queue_delay"], rel=1e-12
        )
        assert result.max_queue_delay == pytest.approx(
            golden["max_queue_delay"], rel=1e-12
        )
        assert result.cloud_gpu_seconds == pytest.approx(
            golden["cloud_gpu_seconds"], rel=1e-12
        )
        assert result.cloud_busy_seconds == pytest.approx(
            golden["cloud_busy_seconds"], rel=1e-12
        )
        assert result.num_labeling_batches == golden["num_labeling_batches"]
        for name, expected in golden["gpu_seconds_by_camera"].items():
            assert result.gpu_seconds_by_camera[name] == pytest.approx(
                expected, rel=1e-12
            )
        for entry in result.cameras:
            session = entry.session
            assert session.num_uploads == golden["num_uploads"][entry.camera]
            assert session.bandwidth.uplink_bytes == golden["uplink_bytes"][entry.camera]
            assert session.bandwidth.downlink_bytes == golden["downlink_bytes"][entry.camera]
            assert entry.mean_upload_latency == pytest.approx(
                golden["mean_upload_latency"], rel=1e-12
            )
        # PR 1 never queued training and never rejected uploads
        assert result.training_waits == []
        assert result.num_rejected_uploads == 0


class TestPoliciesEndToEnd:
    def test_staleness_and_weighted_fair_queue_training(self):
        """Unified queue: the AMS camera's fine-tuning shares the GPU."""
        for policy in ("staleness", "weighted_fair", "drift"):
            result = make_mixed_fleet(scheduler=policy).run()
            assert result.scheduler == policy
            assert len(result.training_waits) > 0
            assert result.num_rejected_uploads == 0
            # per-tenant busy periods split the merged FIFO batches
            assert result.num_labeling_batches > PR1_GOLDEN["num_labeling_batches"]

    def test_admission_never_exceeds_delay_budget(self):
        budget = 0.05
        result = make_mixed_fleet(
            scheduler=AdmissionControlScheduler(delay_budget_seconds=budget)
        ).run()
        assert result.max_queue_delay <= budget + 1e-9
        assert result.num_rejected_uploads > 0
        # un-admitted uploads still paid uplink bandwidth but got no labels
        rejected_cameras = [
            entry for entry in result.cameras if entry.rejected_uploads > 0
        ]
        assert rejected_cameras
        fifo = make_mixed_fleet().run()
        for entry in rejected_cameras:
            assert (
                entry.session.bandwidth.downlink_bytes
                < fifo.session(entry.camera).bandwidth.downlink_bytes
            )

    def test_weighted_fair_respects_weights_under_saturation(self):
        """With a 4x-weighted tenant, its normalised share never lags."""
        result = make_mixed_fleet(
            scheduler="weighted_fair", weights=[4.0, 1.0, 1.0, 1.0]
        ).run()
        assert result.scheduler == "weighted_fair"
        assert 0.0 < result.gpu_fairness <= 1.0 + 1e-9

    def test_scheduler_name_threaded_through_fleet_result(self):
        result = make_mixed_fleet(scheduler="staleness", num_frames=120).run()
        assert result.scheduler == "staleness"
        assert result.rejected_by_camera == {f"cam{i}": 0 for i in range(4)}

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError, match="weights must be positive"):
            make_mixed_fleet(weights=[0.0, 1.0, 1.0, 1.0])

    def test_reused_scheduler_instance_is_reset_between_fleets(self):
        """A stateful scheduler carried into a second fleet must behave
        as if freshly constructed (clocks and deficits cleared)."""
        instance = StalenessPriorityScheduler()
        make_mixed_fleet(scheduler=instance, num_frames=120).run()
        assert instance._last_labeled  # the first run left state behind
        reused = make_mixed_fleet(scheduler=instance, num_frames=120).run()
        fresh = make_mixed_fleet(
            scheduler=StalenessPriorityScheduler(), num_frames=120
        ).run()
        assert reused.queue_waits == fresh.queue_waits
        assert reused.gpu_seconds_by_camera == fresh.gpu_seconds_by_camera
