"""Elastic-autoscaling tests: policies, drain/handoff, golden pin.

Four layers:

* unit tests drive the :class:`AutoscalePolicy` objects with synthetic
  :class:`AutoscaleSignal` samples (thresholds, hysteresis, cooldown,
  min/max bounds — no fleet needed);
* cluster-surgery tests exercise :meth:`CloudCluster.add_worker` /
  :meth:`CloudCluster.remove_worker` edge cases directly (scale-in
  below one active worker refused, draining a worker that holds
  in-flight jobs, deterministic sticky remapping);
* the golden regression pins the **default** (``autoscaler="none"``)
  fleet — ticks firing, policy never resizing — to the exact PR 3
  fixed-cluster metrics: the autoscaling machinery must be invisible
  until a scaling policy opts in;
* end-to-end tests run a bursty fleet under a scripted policy and under
  :class:`SloScaler` and check jobs survive resizes, the scaling
  timeline is consistent and provisioned capacity actually shrinks.
"""

from __future__ import annotations

import pytest

from repro.core import CameraSpec, CloudCluster, FleetSession
from repro.core.autoscaling import (
    AUTOSCALERS,
    AutoscalePolicy,
    AutoscaleSignal,
    NoScaler,
    SloScaler,
    StepScaler,
    build_autoscaler,
)
from repro.core.federation import RegionSpec
from repro.core.scheduling import LABELING, GpuJob, StickyPlacement
from repro.detection import StudentConfig, StudentDetector, TeacherConfig, TeacherDetector
from repro.runtime.events import EventScheduler
from repro.video import build_dataset

from test_scheduling import PR1_GOLDEN, make_mixed_fleet, small_config


def sig(
    now: float = 0.0,
    p95: float = 0.0,
    util: float = 0.0,
    n: int = 1,
    backlog: float = 0.0,
    jobs: int = 10,
) -> AutoscaleSignal:
    return AutoscaleSignal(
        time=now,
        p95_queue_delay=p95,
        mean_queue_delay=p95 * 0.6,
        utilization=util,
        backlog_gpu_seconds=backlog,
        num_gpus=n,
        window_jobs=jobs,
    )


# ---------------------------------------------------------------------------
# registry / validation
# ---------------------------------------------------------------------------
class TestAutoscalerRegistry:
    def test_build_by_name_and_passthrough(self):
        assert isinstance(build_autoscaler(None), NoScaler)
        assert isinstance(build_autoscaler("slo"), SloScaler)
        assert isinstance(build_autoscaler("step"), StepScaler)
        instance = SloScaler(slo_seconds=0.7)
        assert build_autoscaler(instance) is instance
        built = build_autoscaler("slo", slo_seconds=0.25, max_gpus=6)
        assert built.slo_seconds == 0.25 and built.max_gpus == 6

    def test_unknown_name_and_bad_options_raise(self):
        with pytest.raises(ValueError, match="unknown autoscaler"):
            build_autoscaler("magic")
        with pytest.raises(ValueError, match="keyword options"):
            build_autoscaler(NoScaler(), min_gpus=2)
        with pytest.raises(NotImplementedError):
            AutoscalePolicy().decide(sig())

    def test_registry_covers_all_three_policies(self):
        assert set(AUTOSCALERS) == {"none", "slo", "step"}

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="interval_seconds"):
            NoScaler(interval_seconds=0.0)
        with pytest.raises(ValueError, match="window_seconds"):
            NoScaler(window_seconds=-1.0)
        with pytest.raises(ValueError, match="min_gpus"):
            NoScaler(min_gpus=0)
        with pytest.raises(ValueError, match="max_gpus"):
            NoScaler(min_gpus=4, max_gpus=2)
        with pytest.raises(ValueError, match="cooldown_seconds"):
            NoScaler(cooldown_seconds=-0.1)
        with pytest.raises(ValueError, match="slo_seconds"):
            SloScaler(slo_seconds=0.0)
        with pytest.raises(ValueError, match="scale_in_utilization"):
            SloScaler(scale_in_utilization=1.5)
        with pytest.raises(ValueError, match="sustained_idle_ticks"):
            SloScaler(sustained_idle_ticks=0)
        with pytest.raises(ValueError, match="hysteresis_fraction"):
            SloScaler(hysteresis_fraction=0.0)
        with pytest.raises(ValueError, match="scale_out_step"):
            SloScaler(scale_out_step=0)
        with pytest.raises(ValueError, match="low_utilization"):
            StepScaler(high_utilization=0.3, low_utilization=0.5)


# ---------------------------------------------------------------------------
# policy unit tests
# ---------------------------------------------------------------------------
class TestNoScaler:
    def test_never_scales(self):
        policy = NoScaler()
        for p95, util in [(0.0, 0.0), (10.0, 1.0), (0.0, 1.0), (10.0, 0.0)]:
            assert policy.decide(sig(p95=p95, util=util, n=3)) == 0


class TestSloScaler:
    def policy(self, **kwargs) -> SloScaler:
        defaults = dict(
            slo_seconds=0.5,
            interval_seconds=1.0,
            cooldown_seconds=3.0,
            min_gpus=1,
            max_gpus=4,
            sustained_idle_ticks=2,
            scale_in_utilization=0.4,
        )
        defaults.update(kwargs)
        return SloScaler(**defaults)

    def test_scales_out_on_p95_breach(self):
        assert self.policy().decide(sig(now=1.0, p95=0.8, util=0.9, n=1)) == 1

    def test_scales_out_on_projected_backlog_breach(self):
        # p95 in the window still looks fine, but 3 GPU-seconds of
        # backlog on 2 workers projects a 1.5 s wait — react now
        assert self.policy().decide(sig(now=1.0, p95=0.1, backlog=3.0, n=2)) == 1

    def test_respects_max_gpus(self):
        assert self.policy().decide(sig(now=1.0, p95=9.9, util=1.0, n=4)) == 0

    def test_scale_out_step_clamped_to_max(self):
        policy = self.policy(scale_out_step=3)
        assert policy.decide(sig(now=1.0, p95=0.8, n=3)) == 1

    def test_cooldown_prevents_flapping(self):
        policy = self.policy()
        assert policy.decide(sig(now=1.0, p95=0.8, n=1)) == 1
        policy.note_scaled(1.0)  # the controller stamps applied resizes
        # breach persists, but the cooldown (3 s) holds the policy
        assert policy.decide(sig(now=2.0, p95=0.9, n=2)) == 0
        assert policy.decide(sig(now=3.0, p95=0.9, n=2)) == 0
        assert policy.decide(sig(now=4.0, p95=0.9, n=2)) == 1

    def test_scale_in_needs_sustained_idle(self):
        policy = self.policy(cooldown_seconds=0.0)
        assert policy.decide(sig(now=1.0, p95=0.0, util=0.1, n=3)) == 0
        assert policy.decide(sig(now=2.0, p95=0.0, util=0.1, n=3)) == -1
        # streak was consumed: the next idle tick starts a new streak
        assert policy.decide(sig(now=3.0, p95=0.0, util=0.1, n=2)) == 0

    def test_busy_tick_resets_the_idle_streak(self):
        policy = self.policy(cooldown_seconds=0.0)
        assert policy.decide(sig(now=1.0, p95=0.0, util=0.1, n=3)) == 0
        assert policy.decide(sig(now=2.0, p95=0.0, util=0.9, n=3)) == 0
        assert policy.decide(sig(now=3.0, p95=0.0, util=0.1, n=3)) == 0

    def test_hysteresis_blocks_scale_in_when_p95_near_slo(self):
        policy = self.policy(cooldown_seconds=0.0, hysteresis_fraction=0.5)
        # util is idle but p95 (0.4) sits above 0.5 * SLO = 0.25
        for now in (1.0, 2.0, 3.0, 4.0):
            assert policy.decide(sig(now=now, p95=0.4, util=0.1, n=3)) == 0

    def test_never_scales_below_min_gpus(self):
        policy = self.policy(min_gpus=2, cooldown_seconds=0.0)
        for now in (1.0, 2.0, 3.0, 4.0):
            assert policy.decide(sig(now=now, p95=0.0, util=0.0, n=2)) == 0

    def test_reset_clears_cooldown_and_streak(self):
        policy = self.policy()
        policy.decide(sig(now=1.0, p95=0.8, n=1))
        policy.note_scaled(1.0)
        policy.reset()
        assert not policy.in_cooldown(1.5)
        assert policy._idle_ticks == 0


class TestStepScaler:
    def test_thresholds(self):
        policy = StepScaler(
            high_utilization=0.8, low_utilization=0.3, cooldown_seconds=0.0
        )
        assert policy.decide(sig(now=1.0, util=0.9, n=2)) == 1
        assert policy.decide(sig(now=2.0, util=0.5, n=2)) == 0
        assert policy.decide(sig(now=3.0, util=0.1, n=2)) == -1
        assert policy.decide(sig(now=4.0, util=0.1, n=1)) == 0  # min bound
        assert policy.decide(sig(now=5.0, util=0.9, n=8)) == 0  # max bound


# ---------------------------------------------------------------------------
# cluster surgery: add/remove/drain edge cases
# ---------------------------------------------------------------------------
def run_fleet_session(num_gpus=2, autoscaler=None, n_cameras=4, num_frames=240):
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
    session = FleetSession(
        cameras,
        student=StudentDetector(StudentConfig(seed=5)),
        teacher=TeacherDetector(TeacherConfig(seed=9)),
        config=small_config(),
        regions=[RegionSpec("default", num_gpus=num_gpus, autoscaler=autoscaler)],
    )
    return session, session.run()


class TestClusterSurgery:
    def test_add_worker_requires_bound_cluster(self):
        with pytest.raises(RuntimeError, match="bind the cluster"):
            CloudCluster(num_gpus=1).add_worker(now=0.0)

    def test_cannot_grow_instance_built_cluster(self):
        from repro.core.scheduling import FifoScheduler

        session, _ = run_fleet_session(num_gpus=1)
        session.cluster._scheduler_spec = FifoScheduler()
        with pytest.raises(ValueError, match="cannot grow"):
            session.cluster.add_worker(now=0.0)

    def test_remove_last_active_worker_refused(self):
        session, _ = run_fleet_session(num_gpus=1)
        with pytest.raises(ValueError, match="last active"):
            session.cluster.remove_worker(now=999.0, scheduler=EventScheduler())

    def test_remove_below_one_refused_even_via_repeated_calls(self):
        session, _ = run_fleet_session(num_gpus=2)
        scheduler = EventScheduler()
        session.cluster.remove_worker(now=999.0, scheduler=scheduler)
        with pytest.raises(ValueError, match="last active"):
            session.cluster.remove_worker(now=999.0, scheduler=scheduler)

    def test_missing_scheduler_rejected_before_any_state_changes(self):
        """A refused drain leaves the worker fully intact (not half-removed)."""
        session, _ = run_fleet_session(num_gpus=2)
        cluster = session.cluster
        victim = cluster.workers[0]
        victim.queue.append(
            GpuJob(kind=LABELING, camera_id=0, arrival=999.5, service_seconds=0.1)
        )
        log_before = list(cluster._provision_log)
        with pytest.raises(ValueError, match="needs the event scheduler"):
            cluster.remove_worker(0, now=1000.0)
        # nothing was mutated: the worker still takes placements, keeps
        # its queue, and the provision log records no retirement
        assert not victim.draining
        assert len(victim.queue) == 1
        assert cluster.num_active == 2
        assert cluster._provision_log == log_before
        # the retry with a scheduler succeeds
        cluster.remove_worker(0, now=1000.0, scheduler=EventScheduler())
        assert victim.draining

    def test_remove_same_worker_twice_refused(self):
        session, _ = run_fleet_session(num_gpus=3)
        scheduler = EventScheduler()
        session.cluster.remove_worker(1, now=999.0, scheduler=scheduler)
        with pytest.raises(ValueError, match="already draining"):
            session.cluster.remove_worker(1, now=999.0, scheduler=scheduler)
        with pytest.raises(ValueError, match="no worker 7"):
            session.cluster.remove_worker(7, now=999.0, scheduler=scheduler)

    def test_drain_hands_off_queued_jobs_and_blocks_placements(self):
        """Remove a worker while it holds queued + in-flight work."""
        session, _ = run_fleet_session(num_gpus=2)
        cluster = session.cluster
        scheduler = EventScheduler()
        scheduler.clock.advance_to(1000.0)
        victim, survivor = cluster.workers
        # rebuild a mid-run shape: the victim is mid-busy-period (its
        # in-flight jobs finish at 1000.5) and has a queued backlog
        victim.busy_until = 1000.5
        victim.queue.extend(
            GpuJob(kind=LABELING, camera_id=c, arrival=999.5, service_seconds=0.1)
            for c in (0, 1, 2)
        )
        survivor.busy_until = 0.0
        survivor_jobs_before = len(survivor.queue) + len(survivor.completed_jobs)
        removed = cluster.remove_worker(0, now=1000.0, scheduler=scheduler)
        assert removed is victim and victim.draining
        # queued jobs moved off the draining worker without re-admission:
        # the idle survivor immediately started serving one and queued two
        assert not victim.queue
        in_service = 1 if survivor.busy_until > 1000.0 else 0
        assert len(survivor.queue) + in_service == 3
        assert survivor.busy_until > 1000.0  # handoff restarted service
        assert len(survivor.completed_jobs) == survivor_jobs_before
        # the handed-off jobs keep their original arrival time, so the
        # eventual wait statistic includes the drained worker's queueing
        assert all(job.arrival == 999.5 for job in survivor.queue)
        # the draining worker is excluded from future placements
        assert cluster.active_workers == [survivor]
        assert cluster.num_active == 1
        # provisioned capacity keeps charging until the in-flight busy
        # period ends (1000.5), not the removal instant
        timeline = cluster.provision_timeline()
        assert timeline[-1] == (1000.5, 1)

    def test_add_worker_joins_tenancy_and_placements(self):
        session, _ = run_fleet_session(num_gpus=1)
        cluster = session.cluster
        worker = cluster.add_worker(now=500.0)
        assert worker.worker_id == 1
        assert cluster.num_active == 2
        # shared registries, fresh scheduler with the tenants' weights
        assert worker.tenants is cluster.tenants
        assert worker.gpu_seconds_by_camera is cluster.gpu_seconds_by_camera
        assert worker.scheduler is not cluster.workers[0].scheduler
        assert worker.scheduler.weights == cluster.workers[0].scheduler.weights

    def test_added_worker_inherits_measured_phi(self):
        session, _ = run_fleet_session(num_gpus=1)
        cluster = session.cluster
        cluster._scheduler_spec = "drift"
        worker = cluster.add_worker(now=500.0)
        # φ measurements observed before the worker existed were
        # replayed into its scheduler: no camera is "unmeasured" (+inf)
        measured = set(cluster._last_phi)
        assert measured
        for camera_id in measured:
            assert worker.scheduler.phi(camera_id) < float("inf")

    def test_scale_out_waits_for_drained_worker_to_stop_charging(self):
        """max_gpus bounds spend: a draining worker still finishing its
        busy period counts against the bound until it actually stops."""
        from repro.core.autoscaling import AutoscaleController

        session, _ = run_fleet_session(num_gpus=2)
        cluster = session.cluster
        scheduler = EventScheduler()
        scheduler.clock.advance_to(1000.0)
        victim = cluster.workers[1]
        victim.busy_until = 1002.0  # in-flight work outlives the removal
        cluster.remove_worker(1, now=1000.0, scheduler=scheduler)
        assert cluster.num_charging(1000.5) == 2
        assert cluster.num_charging(1003.0) == 1

        policy = SloScaler(slo_seconds=0.1, max_gpus=2, cooldown_seconds=0.0)
        controller = AutoscaleController(policy, cluster, horizon=2000.0)
        signal = controller.sample(1000.5)
        controller._scale_out(1, signal, 1000.5)
        # blocked: 1 active + the still-charging drained worker == max_gpus
        assert cluster.num_active == 1 and controller.events == []
        controller._scale_out(1, signal, 1003.0)
        assert cluster.num_active == 2 and len(controller.events) == 1

    def test_blocked_scale_out_does_not_burn_the_cooldown(self):
        """A decision the controller could not apply (spend bound) must
        not start the cooldown clock and stall recovery mid-breach."""
        from repro.core.autoscaling import AutoscaleController
        from repro.runtime.events import AutoscaleTick

        session, _ = run_fleet_session(num_gpus=2)
        cluster = session.cluster
        scheduler = EventScheduler()
        scheduler.clock.advance_to(1000.0)
        victim = cluster.workers[1]
        victim.busy_until = 1002.5  # still charging past the removal
        cluster.remove_worker(1, now=1000.0, scheduler=scheduler)
        survivor = cluster.workers[0]
        # a standing backlog keeps the projected delay far over the SLO
        survivor.queue.extend(
            GpuJob(kind=LABELING, camera_id=c, arrival=1000.0, service_seconds=2.0)
            for c in (0, 1, 2)
        )
        policy = SloScaler(
            slo_seconds=0.1, interval_seconds=1.0, cooldown_seconds=30.0,
            max_gpus=2, min_gpus=1,
        )
        controller = AutoscaleController(policy, cluster, horizon=5000.0)
        controller.on_tick(AutoscaleTick(time=1001.0), scheduler)
        # blocked: the drained worker still counts against max_gpus
        assert controller.events == []
        assert not policy.in_cooldown(1002.0)  # the stamp was retracted
        # next tick the drained worker has stopped charging: scale out
        # immediately, despite the 30 s cooldown a burnt stamp would impose
        controller.on_tick(AutoscaleTick(time=1003.0), scheduler)
        assert [e.action for e in controller.events] == ["scale_out"]
        assert cluster.num_active == 2

    def test_instance_built_cluster_with_growing_autoscaler_fails_fast(self):
        """The incompatibility surfaces at construction, not mid-run."""
        from repro.core.scheduling import FifoScheduler

        cameras = burst_cameras(frames=120)
        student = StudentDetector(StudentConfig(seed=5))
        teacher = TeacherDetector(TeacherConfig(seed=9))

        def build(**cluster):
            return FleetSession(
                cameras, student=student, teacher=teacher, config=small_config(),
                regions=[RegionSpec("default", **cluster)],
            )

        with pytest.raises(ValueError, match="cannot add workers"):
            build(num_gpus=1, scheduler=FifoScheduler(), autoscaler=SloScaler(max_gpus=4))
        # a min_gpus floor above the starting size would silently never
        # hold (nothing scales out just to reach it): refuse it up front
        with pytest.raises(ValueError, match="set num_gpus >= min_gpus"):
            build(num_gpus=1, autoscaler=SloScaler(min_gpus=2, max_gpus=4))
        # a scaler that cannot outgrow the cluster stays allowed, as does
        # the default NoScaler (the PR 3 golden pin relies on it)
        build(
            num_gpus=2,
            scheduler=lambda: FifoScheduler(),
            autoscaler=SloScaler(min_gpus=1, max_gpus=2),
        )
        build(num_gpus=1, scheduler=FifoScheduler())

    def test_utilization_carries_over_long_busy_periods(self):
        """A busy period credited at its start reads as sustained load
        on later ticks, not as one 1.0 tick followed by idle ticks."""
        from repro.core.autoscaling import AutoscaleController

        session, _ = run_fleet_session(num_gpus=1)
        cluster = session.cluster
        worker = cluster.workers[0]
        policy = NoScaler(interval_seconds=1.0)
        controller = AutoscaleController(policy, cluster, horizon=1e9)
        baseline = cluster.busy_seconds
        controller.sample(2000.0)  # settle the carryover at the run's end
        # one long busy period (5 GPU-seconds) starts just before a tick
        worker.busy_seconds = baseline + 5.0
        worker.busy_until = 2005.5
        for tick in range(1, 6):
            signal = controller.sample(2000.0 + tick)
            assert signal.utilization == pytest.approx(1.0), f"tick {tick}"
        # credit exhausted after the period's five GPU-seconds
        assert controller.sample(2006.0).utilization == pytest.approx(0.0)

    def test_one_busy_worker_does_not_saturate_the_cluster_signal(self):
        """Per-worker carryover: one saturated worker of two reads as
        0.5 cluster utilization, not 1.0-then-0.0."""
        from repro.core.autoscaling import AutoscaleController

        session, _ = run_fleet_session(num_gpus=2)
        cluster = session.cluster
        busy_worker, idle_worker = cluster.workers
        policy = NoScaler(interval_seconds=1.0)
        controller = AutoscaleController(policy, cluster, horizon=1e9)
        controller.sample(3000.0)  # settle both workers' carryover
        # one worker starts a 4 GPU-second busy period; the other idles
        busy_worker.busy_seconds += 4.0
        busy_worker.busy_until = 3004.0
        for tick in range(1, 5):
            signal = controller.sample(3000.0 + tick)
            assert signal.utilization == pytest.approx(0.5), f"tick {tick}"
        assert controller.sample(3005.0).utilization == pytest.approx(0.0)

    def test_provisioned_gpu_seconds_integrates_resizes(self):
        session, _ = run_fleet_session(num_gpus=2)
        cluster = session.cluster
        base = cluster.provisioned_gpu_seconds(10.0)
        cluster.add_worker(now=4.0)
        # 2 GPUs for 10 s, plus one more over [4, 10]
        assert cluster.provisioned_gpu_seconds(10.0) == pytest.approx(base + 6.0)


class TestStickyRemap:
    class Stub:
        def pending_gpu_seconds(self, now):
            return 0.0

    def job(self, camera_id):
        return GpuJob(
            kind=LABELING, camera_id=camera_id, arrival=0.0, service_seconds=0.1
        )

    def test_remap_is_deterministic_after_resize(self):
        policy = StickyPlacement()
        four = [self.Stub() for _ in range(4)]
        three = four[:3]
        first = {c: policy.place(self.job(c), four, 0.0) for c in range(12)}
        remapped = {c: policy.place(self.job(c), three, 1.0) for c in range(12)}
        # identical to a fresh policy hashing straight onto 3 workers
        fresh = StickyPlacement()
        expected = {c: fresh.place(self.job(c), three, 0.0) for c in range(12)}
        assert remapped == expected
        assert all(index < 3 for index in remapped.values())
        # growing back to 4 restores the original assignment
        regrown = {c: policy.place(self.job(c), four, 2.0) for c in range(12)}
        assert regrown == first

    def test_stable_while_worker_count_unchanged(self):
        policy = StickyPlacement()
        workers = [self.Stub() for _ in range(4)]
        for camera_id in range(8):
            first = policy.place(self.job(camera_id), workers, 0.0)
            for _ in range(3):
                assert policy.place(self.job(camera_id), workers, 1.0) == first

    def test_net_zero_resize_still_rehashes(self):
        """Drain one worker, add another: the count is unchanged but the
        set is not — cached indices must not dereference new workers."""
        a, b, c, d = (self.Stub() for _ in range(4))
        policy = StickyPlacement()
        before = {cam: policy.place(self.job(cam), [a, b, c], 0.0) for cam in range(12)}
        # worker a drained, worker d added: same size, different set
        after = {cam: policy.place(self.job(cam), [b, c, d], 1.0) for cam in range(12)}
        fresh = StickyPlacement()
        expected = {cam: fresh.place(self.job(cam), [b, c, d], 0.0) for cam in range(12)}
        assert after == expected  # deterministic rehash against the new set
        assert before.keys() == after.keys()


# ---------------------------------------------------------------------------
# golden regression: default autoscaler == PR 3 fixed cluster, bit for bit
# ---------------------------------------------------------------------------
class TestNoScalerGolden:
    def test_default_fleet_reproduces_pr3_metrics_bit_for_bit(self):
        """`autoscaler="none"` must be indistinguishable from the fixed
        cluster (the controller schedules no ticks for it)."""
        result = make_mixed_fleet(autoscaler="none").run()
        golden = PR1_GOLDEN
        assert result.autoscaler == "none"
        assert result.scaling_events == []
        assert result.num_scale_outs == 0 and result.num_scale_ins == 0
        assert result.slo_violation_fraction == 0.0
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
            assert (
                session.bandwidth.downlink_bytes
                == golden["downlink_bytes"][entry.camera]
            )
            assert entry.mean_upload_latency == pytest.approx(
                golden["mean_upload_latency"], rel=1e-12
            )
        # elastic metrics collapse to the fixed-provisioning story
        assert result.gpu_seconds_provisioned == pytest.approx(
            result.num_gpus * result.duration_seconds
        )
        assert result.mean_gpu_count == pytest.approx(1.0)
        assert result.peak_num_gpus == 1 and result.final_num_gpus == 1

    def test_ticking_but_never_resizing_policy_leaves_the_run_untouched(self):
        """A policy that DOES tick (unlike NoScaler, which schedules no
        ticks) but never resizes must not perturb the simulation: ticks
        sample state, they never mutate it."""
        pinned = make_mixed_fleet().run()
        ticked = make_mixed_fleet(
            autoscaler=ScriptedScaler({}, interval_seconds=0.5)
        ).run()
        assert ticked.queue_waits == pinned.queue_waits
        assert ticked.gpu_seconds_by_camera == pinned.gpu_seconds_by_camera


# ---------------------------------------------------------------------------
# end to end: scripted resizes and the SLO scaler under a burst
# ---------------------------------------------------------------------------
class ScriptedScaler(AutoscalePolicy):
    """Test policy: apply a fixed {tick_time: delta} schedule."""

    name = "scripted"

    def __init__(self, script: dict[float, int], **kwargs) -> None:
        super().__init__(**kwargs)
        self.script = dict(script)

    def decide(self, signal: AutoscaleSignal) -> int:
        for when, delta in list(self.script.items()):
            if signal.time >= when:
                del self.script[when]
                return delta
        return 0


def burst_cameras(frames=240, n_burst=4, n_steady=2):
    datasets = ["detrac", "kitti", "waymo", "stationary"]
    cams = [
        CameraSpec(
            name=f"steady{i}",
            dataset=build_dataset(datasets[i % 4], num_frames=frames),
            strategy="shoggoth",
            seed=i,
        )
        for i in range(n_steady)
    ]
    cams += [
        CameraSpec(
            name=f"burst{i}",
            dataset=build_dataset(datasets[i % 4], num_frames=frames // 2),
            strategy="shoggoth",
            seed=100 + i,
        )
        for i in range(n_burst)
    ]
    return cams


def run_burst_fleet(autoscaler, num_gpus=1, frames=240):
    return FleetSession(
        burst_cameras(frames=frames),
        student=StudentDetector(StudentConfig(seed=5)),
        teacher=TeacherDetector(TeacherConfig(seed=9)),
        config=small_config(),
        regions=[
            RegionSpec(
                "default",
                num_gpus=num_gpus,
                placement="least_loaded",
                autoscaler=autoscaler,
            )
        ],
    ).run()


class TestElasticFleetEndToEnd:
    def test_scripted_resize_serves_every_upload(self):
        """Scale out mid-burst, drain mid-run: no upload loses its labels."""
        scripted = ScriptedScaler(
            {2.0: +1, 3.0: +1, 6.0: -1}, interval_seconds=1.0
        )
        result = run_burst_fleet(scripted)
        # no upload lost across the resizes: every sent batch was served
        sent = sum(entry.session.num_uploads for entry in result.cameras)
        assert len(result.queue_waits) == sent
        assert result.num_scale_outs == 2 and result.num_scale_ins == 1
        assert result.peak_num_gpus == 3 and result.final_num_gpus == 2
        assert [e.action for e in result.scaling_events] == [
            "scale_out",
            "scale_out",
            "scale_in",
        ]
        # provisioned capacity sits between the 1-GPU and 3-GPU envelopes
        assert (
            result.duration_seconds
            < result.gpu_seconds_provisioned
            < 3 * result.duration_seconds
        )

    def test_slo_scaler_scales_out_and_back_in(self):
        policy = SloScaler(
            slo_seconds=0.5,
            interval_seconds=1.0,
            window_seconds=4.0,
            cooldown_seconds=1.0,
            min_gpus=1,
            max_gpus=3,
            scale_in_utilization=0.6,
            sustained_idle_ticks=2,
            hysteresis_fraction=1.0,
        )
        result = run_burst_fleet(policy)
        assert result.autoscaler == "slo"
        assert result.num_scale_outs >= 1
        assert result.num_scale_ins >= 1
        assert result.peak_num_gpus > 1
        assert result.final_num_gpus < result.peak_num_gpus
        # the timeline is internally consistent
        count = result.num_gpus
        for event in result.scaling_events:
            assert event.num_gpus_before == count
            count = event.num_gpus_after
            assert abs(event.num_gpus_after - event.num_gpus_before) == 1
        # elastic provisioning cost less than pinning the peak
        assert result.gpu_seconds_provisioned < (
            result.peak_num_gpus * result.duration_seconds
        )
        assert 1.0 <= result.mean_gpu_count <= result.peak_num_gpus
        # and the run still served every upload it admitted
        sent = sum(entry.session.num_uploads for entry in result.cameras)
        assert len(result.queue_waits) == sent

    def test_conflicting_cluster_and_autoscaler_is_allowed(self):
        """The autoscaler knob is orthogonal to the cluster shape knobs."""
        session = FleetSession(
            burst_cameras(frames=120),
            student=StudentDetector(StudentConfig(seed=5)),
            teacher=TeacherDetector(TeacherConfig(seed=9)),
            config=small_config(),
            regions=[RegionSpec("default", num_gpus=2, autoscaler=NoScaler())],
        )
        result = session.run()
        assert result.num_gpus == 2 and result.scaling_events == []
