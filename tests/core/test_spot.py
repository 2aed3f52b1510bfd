"""Heterogeneous + preemptible (spot) worker tests.

Four layers:

* unit tests on the new primitives — :class:`WorkerSpec` validation,
  the seeded/scripted :class:`RevocationProcess`, the cost-aware
  :class:`CheapestFeasiblePlacement` and speed-weighted load signals —
  driven with synthetic jobs and stub workers (no fleet needed);
* cluster-surgery tests for the revocation edge cases the issue names:
  revocation during a voluntary drain, revocation that would leave no
  active worker (emergency on-demand replacement), back-to-back
  revocations chasing a sticky camera's worker, and checkpoint-resume
  vs relabel-from-scratch accounting;
* end-to-end fleets with scripted traces: no upload loses its labels
  across a revocation, cost accounting splits by tier, and the
  spot-preferring :class:`SloScaler` provisions preemptible capacity;
* fail-fast validation of the new constructor knobs;
* spot under a federation: the one-region spot pin (the default fleet
  is a one-region federation, so the per-cluster arguments and an
  explicit ``RegionSpec`` must journal the same bytes, pinned to the
  pre-federation digests) and revocations routed to their own region.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import CameraSpec, CloudCluster, FaultPlan, FleetSession
from repro.core.autoscaling import SloScaler
from repro.core.cluster import REVOCATION_MODES, RevocationProcess
from repro.core.federation import Federation, RegionSpec
from repro.core.scheduling import (
    LABELING,
    TRAINING,
    CheapestFeasiblePlacement,
    GpuJob,
    WORKER_TIERS,
    WorkerSpec,
    build_placement,
)
from repro.detection import StudentConfig, StudentDetector, TeacherConfig, TeacherDetector
from repro.runtime.events import EventScheduler, LabelingDone, RevocationEvent
from repro.runtime.journal import EventJournal
from repro.testing import check_invariants
from repro.video import build_dataset

from test_scheduling import make_mixed_fleet, small_config

ON_DEMAND = WorkerSpec()
SPOT = WORKER_TIERS["spot"]


def job(camera_id: int, arrival: float, service: float = 0.1, kind: str = LABELING) -> GpuJob:
    return GpuJob(kind=kind, camera_id=camera_id, arrival=arrival, service_seconds=service)


class StubWorker:
    """Minimal GpuWorkerView with a spec and a settable load."""

    def __init__(self, load: float = 0.0, spec: WorkerSpec = ON_DEMAND) -> None:
        self.load = load
        self.spec = spec

    def pending_gpu_seconds(self, now: float) -> float:
        return self.load


# ---------------------------------------------------------------------------
# WorkerSpec + RevocationProcess validation
# ---------------------------------------------------------------------------
class TestWorkerSpec:
    def test_defaults_are_nominal_on_demand(self):
        spec = WorkerSpec()
        assert spec.speed == 1.0
        assert spec.cost_per_gpu_second == 1.0
        assert not spec.preemptible
        assert spec.tier == "on_demand"
        assert SPOT.tier == "spot"

    def test_validation(self):
        with pytest.raises(ValueError, match="speed must be positive"):
            WorkerSpec(speed=0.0)
        with pytest.raises(ValueError, match="speed must be positive"):
            WorkerSpec(speed=-1.0)
        with pytest.raises(ValueError, match="cost_per_gpu_second"):
            WorkerSpec(cost_per_gpu_second=-0.1)

    def test_tier_catalog_is_consistent(self):
        for name, spec in WORKER_TIERS.items():
            assert spec.preemptible == name.startswith("spot")
            assert spec.speed > 0 and spec.cost_per_gpu_second > 0
        # the spot discount actually is a discount, per speed class
        assert (
            WORKER_TIERS["spot"].cost_per_gpu_second
            < WORKER_TIERS["on_demand"].cost_per_gpu_second
        )
        assert (
            WORKER_TIERS["spot_fast"].cost_per_gpu_second
            < WORKER_TIERS["on_demand_fast"].cost_per_gpu_second
        )


class TestRevocationProcess:
    def test_needs_exactly_one_form(self):
        with pytest.raises(ValueError, match="exactly one"):
            RevocationProcess()
        with pytest.raises(ValueError, match="exactly one"):
            RevocationProcess(mean_uptime_seconds=5.0, trace=[(1.0, 0)])
        with pytest.raises(ValueError, match="must be positive"):
            RevocationProcess(mean_uptime_seconds=0.0)
        with pytest.raises(ValueError, match=">= 0"):
            RevocationProcess(trace=[(-1.0, 0)])

    def test_seeded_draws_are_reproducible(self):
        process = RevocationProcess(mean_uptime_seconds=10.0, seed=42)
        first = [process.draw_uptime() for _ in range(5)]
        process.reset()
        again = [process.draw_uptime() for _ in range(5)]
        assert first == again
        assert all(uptime > 0 for uptime in first)
        other_seed = RevocationProcess(mean_uptime_seconds=10.0, seed=43)
        assert [other_seed.draw_uptime() for _ in range(5)] != first

    def test_scripted_trace_does_not_draw(self):
        process = RevocationProcess(trace=[(2.0, 1), (5.0, 0)])
        assert process.scripted
        with pytest.raises(RuntimeError, match="does not draw"):
            process.draw_uptime()

    def test_trace_worker_ids_must_be_non_negative(self):
        with pytest.raises(ValueError, match="worker ids must be >= 0"):
            RevocationProcess(trace=[(1.0, -2)])


# ---------------------------------------------------------------------------
# cost/speed-aware placement
# ---------------------------------------------------------------------------
class TestCheapestFeasiblePlacement:
    def test_registry_and_validation(self):
        built = build_placement("cheapest_feasible", max_pending_seconds=1.5)
        assert isinstance(built, CheapestFeasiblePlacement)
        assert built.max_pending_seconds == 1.5
        with pytest.raises(ValueError, match="max_pending_seconds"):
            CheapestFeasiblePlacement(max_pending_seconds=0.0)

    def test_prefers_cheapest_feasible_worker(self):
        policy = CheapestFeasiblePlacement(max_pending_seconds=0.5)
        workers = [StubWorker(0.1, ON_DEMAND), StubWorker(0.3, SPOT)]
        # both feasible: the spot worker is cheaper despite more load
        assert policy.place(job(0, 0.0), workers, 0.0) == 1

    def test_falls_back_to_least_loaded_when_nothing_feasible(self):
        policy = CheapestFeasiblePlacement(max_pending_seconds=0.5)
        workers = [StubWorker(2.0, ON_DEMAND), StubWorker(9.0, SPOT)]
        assert policy.place(job(0, 0.0), workers, 0.0) == 0

    def test_infeasible_cheap_worker_loses_to_feasible_expensive_one(self):
        policy = CheapestFeasiblePlacement(max_pending_seconds=0.5)
        workers = [StubWorker(0.2, ON_DEMAND), StubWorker(3.0, SPOT)]
        assert policy.place(job(0, 0.0), workers, 0.0) == 0

    def test_cost_ties_break_on_load_then_index(self):
        policy = CheapestFeasiblePlacement(max_pending_seconds=1.0)
        workers = [StubWorker(0.4, SPOT), StubWorker(0.1, SPOT), StubWorker(0.1, SPOT)]
        assert policy.place(job(0, 0.0), workers, 0.0) == 1


class TestSpeedAwareLoad:
    def make_worker(self, spec: WorkerSpec):
        """A real CloudActor, unbound: enough for the load signal."""
        from repro.core.actors import CloudActor

        worker = CloudActor(cloud=None, transport=None, queued=True, spec=spec)
        return worker

    def test_pending_seconds_weigh_queued_service_by_speed(self):
        slow = self.make_worker(WorkerSpec(speed=1.0))
        fast = self.make_worker(WorkerSpec(speed=2.0))
        for worker in (slow, fast):
            worker.queue.extend(job(0, 0.0, service=1.0) for _ in range(3))
        assert slow.pending_gpu_seconds(0.0) == pytest.approx(3.0)
        assert fast.pending_gpu_seconds(0.0) == pytest.approx(1.5)

    def test_fast_worker_finishes_busy_period_in_half_the_wall_time(self):
        fast = self.make_worker(WorkerSpec(speed=2.0))
        fast.queue.append(job(0, 0.0, service=1.0))
        scheduler = EventScheduler()
        fast.batch_overhead_seconds = 0.2
        fast._maybe_start_service(0.0, scheduler)
        # (0.2 overhead + 1.0 service) / speed 2.0 = 0.6 wall-seconds
        assert fast.busy_until == pytest.approx(0.6)
        assert fast.busy_seconds == pytest.approx(0.6)
        assert fast.pending_completion is not None
        assert fast.pending_completion.time == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# cluster construction with specs / revocations
# ---------------------------------------------------------------------------
class TestClusterSpecConstruction:
    def test_single_spec_replicates_and_templates_growth(self):
        cluster = CloudCluster(num_gpus=3, worker_specs=SPOT)
        assert cluster.num_gpus == 3
        assert cluster.worker_specs == [SPOT, SPOT, SPOT]
        assert cluster._default_spec is SPOT

    def test_spec_list_fixes_the_cluster_size(self):
        cluster = CloudCluster(worker_specs=[ON_DEMAND, SPOT, SPOT])
        assert cluster.num_gpus == 3
        assert len(cluster.schedulers) == 3
        # a mixed list does NOT template growth: scale-outs default to
        # plain on-demand
        assert cluster._default_spec == WorkerSpec()

    def test_bad_spec_shapes_raise(self):
        with pytest.raises(ValueError, match="one spec per worker"):
            CloudCluster(num_gpus=2, worker_specs=[ON_DEMAND, SPOT, SPOT])
        with pytest.raises(ValueError, match="non-empty sequence"):
            CloudCluster(worker_specs=[])
        with pytest.raises(ValueError, match="non-empty sequence"):
            CloudCluster(worker_specs=["spot"])
        with pytest.raises(ValueError, match="revocation_mode"):
            CloudCluster(revocation_mode="retry")
        assert set(REVOCATION_MODES) == {"relabel", "checkpoint"}

    def test_instance_scheduler_with_spot_revocations_fails_fast(self):
        from repro.core.scheduling import FifoScheduler

        cameras = [CameraSpec("a", build_dataset("detrac", num_frames=120))]
        with pytest.raises(ValueError, match="provision replacements"):
            FleetSession(
                cameras,
                student=StudentDetector(StudentConfig(seed=5)),
                teacher=TeacherDetector(TeacherConfig(seed=9)),
                config=small_config(),
                num_gpus=1,
                scheduler=FifoScheduler(),
                worker_specs=SPOT,
                revocations=RevocationProcess(mean_uptime_seconds=5.0),
            )

    def test_cluster_knobs_conflict_with_regions(self):
        cameras = [CameraSpec("a", build_dataset("detrac", num_frames=120))]
        student = StudentDetector(StudentConfig(seed=5))
        teacher = TeacherDetector(TeacherConfig(seed=9))
        # spot knobs live on each RegionSpec under a federation:
        # silently ignoring a fleet-level one would skew comparisons
        for knobs in (
            {"worker_specs": SPOT},
            {"revocations": RevocationProcess(mean_uptime_seconds=5.0)},
            {"revocation_mode": "checkpoint"},
        ):
            with pytest.raises(ValueError, match="live on each RegionSpec"):
                FleetSession(
                    cameras, student=student, teacher=teacher,
                    regions=[RegionSpec(name="a")], **knobs,
                )

    def test_one_revocation_process_serves_one_region(self):
        process = RevocationProcess(mean_uptime_seconds=5.0)
        with pytest.raises(ValueError, match="one region"):
            Federation([
                RegionSpec(name="a", worker_specs=SPOT, revocations=process),
                RegionSpec(name="b", worker_specs=SPOT, revocations=process),
            ])


# ---------------------------------------------------------------------------
# revocation edge cases (cluster surgery on a finished fleet)
# ---------------------------------------------------------------------------
def spot_fleet_session(worker_specs=None, revocations=None,
                       revocation_mode="relabel", placement="least_loaded",
                       n_cameras=4, num_frames=240, **fleet_kwargs):
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
        student=StudentDetector(StudentConfig(seed=5)),
        teacher=TeacherDetector(TeacherConfig(seed=9)),
        config=small_config(),
        worker_specs=worker_specs,
        revocations=revocations,
        revocation_mode=revocation_mode,
        placement=placement,
        **fleet_kwargs,
    )


def rebuild_busy_worker(worker, now, scheduler, camera_ids=(0, 1), service=0.5):
    """Put a worker mid-busy-period the way _maybe_start_service would."""
    jobs = []
    for camera_id in camera_ids:
        item = job(camera_id, now - 0.1, service=service)
        item.worker_id = worker.worker_id
        item.service_start = now
        jobs.append(item)
    wall = (worker.batch_overhead_seconds + service * len(jobs)) / worker.spec.speed
    worker.busy_until = now + wall
    worker.busy_seconds += wall
    worker.pending_completion = scheduler.schedule(
        LabelingDone(time=worker.busy_until, jobs=jobs, worker_id=worker.worker_id)
    )
    return jobs


class TestRevocationEdgeCases:
    def run_session(self, num_spot=2):
        specs = [ON_DEMAND] + [SPOT] * num_spot
        session = spot_fleet_session(specs)
        session.run()
        return session

    def test_revoking_on_demand_worker_raises(self):
        session = self.run_session()
        scheduler = EventScheduler()
        scheduler.clock.advance_to(1000.0)
        with pytest.raises(ValueError, match="cannot be revoked"):
            session.cluster.on_revocation(
                RevocationEvent(time=1000.0, worker_id=0), scheduler
            )

    def test_idle_spot_worker_retires_cleanly(self):
        session = self.run_session()
        cluster = session.cluster
        scheduler = EventScheduler()
        scheduler.clock.advance_to(1000.0)
        cluster.on_revocation(RevocationEvent(time=1000.0, worker_id=1), scheduler)
        victim = cluster.workers[1]
        assert victim.revoked and victim.draining
        assert victim.retired_at == 1000.0
        assert cluster.num_active == 2
        assert cluster.num_revocations == 1
        record = cluster.revocation_log[0]
        assert record.jobs_in_flight == 0 and record.jobs_queued == 0
        assert record.wasted_gpu_seconds == 0.0
        # double revocation of the same worker is a stale draw: ignored
        cluster.on_revocation(RevocationEvent(time=1001.0, worker_id=1), scheduler)
        assert cluster.num_revocations == 1

    def test_revocation_kills_in_flight_work_and_hands_off(self):
        session = self.run_session()
        cluster = session.cluster
        scheduler = EventScheduler()
        scheduler.clock.advance_to(1000.0)
        victim = cluster.workers[1]
        survivor_ids = {0, 2}
        rebuild_busy_worker(victim, 1000.0, scheduler, camera_ids=(0, 1), service=0.5)
        victim.queue.extend(job(c, 1000.2) for c in (2, 3))
        busy_before = victim.busy_seconds
        # revoke halfway through the busy period
        cluster.on_revocation(RevocationEvent(time=1000.5, worker_id=1), scheduler)
        assert victim.revoked
        assert not victim.queue
        assert victim.pending_completion is None
        assert victim.busy_until == 1000.5
        # the un-run remainder (1001.02 - 1000.5) left the busy clock
        assert victim.busy_seconds == pytest.approx(busy_before - 0.52)
        # all four jobs (2 in-flight + 2 queued) landed on survivors
        relocated = [
            j
            for worker in cluster.workers
            if worker.worker_id in survivor_ids
            for j in list(worker.queue)
        ] + [
            j
            for worker in cluster.workers
            if worker.worker_id in survivor_ids
            for done in [worker.pending_completion]
            if done is not None
            for j in done.jobs
        ]
        assert len(relocated) == 4
        assert all(j.worker_id in survivor_ids for j in relocated)
        record = cluster.revocation_log[-1]
        assert record.jobs_in_flight == 2 and record.jobs_queued == 2
        # relabel mode: the elapsed half-period was wasted
        assert record.wasted_gpu_seconds == pytest.approx(0.5)
        assert cluster.num_relabeled_jobs == 2

    def test_revocation_during_voluntary_drain(self):
        """A worker mid-drain (in-flight tail still charging) gets revoked:
        the future retirement stamp moves up to the revocation instant."""
        session = self.run_session()
        cluster = session.cluster
        scheduler = EventScheduler()
        scheduler.clock.advance_to(1000.0)
        victim = cluster.workers[2]
        rebuild_busy_worker(victim, 1000.0, scheduler, camera_ids=(0,), service=2.0)
        drain_tail = victim.busy_until
        cluster.remove_worker(2, now=1000.0, scheduler=scheduler)
        assert victim.draining and victim.retired_at == pytest.approx(drain_tail)
        assert (drain_tail, -1) in cluster._provision_log
        # the revocation outruns the drain tail
        cluster.on_revocation(RevocationEvent(time=1000.3, worker_id=2), scheduler)
        assert victim.retired_at == 1000.3
        assert (drain_tail, -1) not in cluster._provision_log
        assert (1000.3, -1) in cluster._provision_log
        assert victim.busy_until == 1000.3  # in-flight tail killed too
        assert cluster.num_revocations == 1
        # and a revocation arriving after a drain fully finished is stale
        done_victim = cluster.workers[1]
        cluster.remove_worker(1, now=1001.0, scheduler=scheduler)
        assert done_victim.busy_until <= 1001.0 and not done_victim.queue
        cluster.on_revocation(RevocationEvent(time=1002.0, worker_id=1), scheduler)
        assert not done_victim.revoked
        assert cluster.num_revocations == 1

    def test_revoking_the_last_active_worker_provisions_emergency_capacity(self):
        session = spot_fleet_session([SPOT])  # every worker preemptible
        session.run()
        cluster = session.cluster
        scheduler = EventScheduler()
        scheduler.clock.advance_to(1000.0)
        victim = cluster.workers[0]
        victim.queue.extend(job(c, 999.9) for c in (0, 1))
        assert cluster.num_active == 1
        cluster.on_revocation(RevocationEvent(time=1000.0, worker_id=0), scheduler)
        # an emergency on-demand worker took over; ids never reused
        assert cluster.num_active == 1
        emergency = cluster.active_workers[0]
        assert emergency.worker_id == 1
        assert not emergency.spec.preemptible
        assert cluster.revocation_log[-1].emergency_worker_id == 1
        # the orphaned queue moved to the emergency worker
        in_service = len(emergency.pending_completion.jobs) if emergency.pending_completion else 0
        assert len(emergency.queue) + in_service == 2

    def test_back_to_back_revocations_chase_a_sticky_camera(self):
        """Revoke a sticky camera's worker twice in a row: the camera
        remaps deterministically each time and no jobs are lost."""
        session = spot_fleet_session([SPOT, SPOT, SPOT], placement="sticky")
        session.run()
        cluster = session.cluster
        scheduler = EventScheduler()
        scheduler.clock.advance_to(1000.0)
        placement = cluster.placement
        camera = 0
        first = placement.place(job(camera, 1000.0), cluster.active_workers, 1000.0)
        first_worker = cluster.active_workers[first]
        first_worker.queue.append(job(camera, 1000.0))
        cluster.on_revocation(
            RevocationEvent(time=1000.1, worker_id=first_worker.worker_id), scheduler
        )
        # the camera's job remapped to a surviving worker
        second = placement.place(job(camera, 1000.2), cluster.active_workers, 1000.2)
        second_worker = cluster.active_workers[second]
        assert second_worker is not first_worker
        holders = [
            worker
            for worker in cluster.workers
            if any(j.camera_id == camera for j in worker.queue)
            or (
                worker.pending_completion is not None
                and any(j.camera_id == camera for j in worker.pending_completion.jobs)
            )
        ]
        assert holders and all(not worker.revoked for worker in holders)
        # revoke the remapped worker too (back-to-back)
        cluster.on_revocation(
            RevocationEvent(time=1000.3, worker_id=holders[0].worker_id), scheduler
        )
        third = placement.place(job(camera, 1000.4), cluster.active_workers, 1000.4)
        survivor = cluster.active_workers[third]
        assert not survivor.revoked
        assert cluster.num_revocations == 2
        # migrations were recorded for the handoffs
        assert cluster._migrations.get(camera, 0) >= 1

    def test_checkpoint_resume_vs_relabel_accounting(self):
        """Checkpoint keeps the elapsed progress (no waste, shorter
        remaining service); relabel redoes everything (elapsed wasted)."""
        outcomes = {}
        for mode in REVOCATION_MODES:
            session = spot_fleet_session([ON_DEMAND, SPOT], revocation_mode=mode)
            session.run()
            cluster = session.cluster
            scheduler = EventScheduler()
            scheduler.clock.advance_to(1000.0)
            victim = cluster.workers[1]
            jobs = rebuild_busy_worker(
                victim, 1000.0, scheduler, camera_ids=(0, 1), service=0.5
            )
            # total wall = 0.02 + 2*0.5 = 1.02; revoke 75% through
            cluster.on_revocation(
                RevocationEvent(time=1000.765, worker_id=1), scheduler
            )
            outcomes[mode] = (cluster, jobs)

        relabel_cluster, relabel_jobs = outcomes["relabel"]
        checkpoint_cluster, checkpoint_jobs = outcomes["checkpoint"]
        assert relabel_cluster.num_relabeled_jobs == 2
        assert relabel_cluster.num_checkpoint_resumed_jobs == 0
        assert checkpoint_cluster.num_checkpoint_resumed_jobs == 2
        assert checkpoint_cluster.num_relabeled_jobs == 0
        # relabel: full nominal service again, elapsed wall wasted
        assert all(j.service_seconds == pytest.approx(0.5) for j in relabel_jobs)
        assert relabel_cluster.wasted_gpu_seconds == pytest.approx(0.765)
        # checkpoint: only the remaining fraction survives, nothing wasted
        assert all(
            j.service_seconds == pytest.approx(0.5 * 0.25)
            for j in checkpoint_jobs
        )
        assert checkpoint_cluster.wasted_gpu_seconds == 0.0
        # both modes re-place every interrupted job exactly once: the
        # handoff landed each on a surviving worker and restarted service
        for cluster, jobs in outcomes.values():
            assert all(not cluster.workers[j.worker_id].revoked for j in jobs)
            # the survivor restarted service with the first handoff; the
            # rest wait in its queue
            assert any(j.service_start is not None for j in jobs)
            assert cluster.revocation_log[-1].jobs_in_flight == 2

    def test_relabel_keeps_training_results_no_double_train_or_charge(self):
        """A relabel-preempted training job redoes its wall-clock but
        keeps the stashed result: the tenant's student is not fine-tuned
        a second time and per-tenant GPU-seconds are not charged twice
        (labeling jobs charge once at completion — training must too)."""
        session = spot_fleet_session([ON_DEMAND, SPOT])
        session.run()
        cluster = session.cluster
        victim = cluster.workers[1]
        scheduler = EventScheduler()
        scheduler.clock.advance_to(3000.0)
        training = job(1, 2999.9, service=0.4, kind=TRAINING)
        sentinel = object()
        training.result = sentinel  # filled when the busy period started
        training.service_start = 3000.0
        wall = (victim.batch_overhead_seconds + 0.4) / victim.spec.speed
        victim.busy_until = 3000.0 + wall
        victim.busy_seconds += wall
        victim.pending_completion = scheduler.schedule(
            LabelingDone(time=victim.busy_until, jobs=[training], worker_id=1)
        )
        charged_before = dict(cluster.gpu_seconds_by_camera)
        cluster.on_revocation(RevocationEvent(time=3000.2, worker_id=1), scheduler)
        # the result survived the relabel kill and the restart on the
        # surviving worker did not re-run _train_tenant
        assert training.result is sentinel
        assert training.service_seconds == pytest.approx(0.4)
        assert cluster.gpu_seconds_by_camera == charged_before
        # but the wall-clock redo is still paid: the survivor is busy
        survivor = cluster.workers[training.worker_id]
        assert survivor is not victim
        assert survivor.busy_until > 3000.2

    def test_trace_targeting_never_provisioned_worker_is_ignored(self):
        """A scripted entry for a worker the autoscaler never added is a
        stale scenario line, not a mid-run crash."""
        session = spot_fleet_session(
            [ON_DEMAND, SPOT],
            revocations=RevocationProcess(trace=[(2.0, 1), (3.0, 7)]),
        )
        result = session.run()
        assert result.num_revocations == 1
        assert result.revocation_records[0].worker_id == 1
        sent = sum(entry.session.num_uploads for entry in result.cameras)
        assert len(result.queue_waits) + result.num_rejected_uploads == sent

    def test_checkpoint_mode_does_not_retrain_resumed_training_jobs(self):
        session = self.run_session()
        cluster = session.cluster
        worker = cluster.workers[0]
        scheduler = EventScheduler()
        scheduler.clock.advance_to(2000.0)
        sentinel = object()
        training = job(1, 1999.9, service=0.4, kind=TRAINING)
        training.result = sentinel  # pretend the checkpoint kept it
        worker.queue.append(training)
        worker._maybe_start_service(2000.0, scheduler)
        # the stashed result survived: no second fine-tuning pass ran
        assert training.result is sentinel
        assert training.service_seconds == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# end to end: scripted revocations inside a running fleet
# ---------------------------------------------------------------------------
class TestSpotFleetEndToEnd:
    def run_traced(self, mode="relabel"):
        session = spot_fleet_session(
            [ON_DEMAND, SPOT, SPOT],
            revocations=RevocationProcess(trace=[(3.0, 1), (5.0, 2)]),
            revocation_mode=mode,
        )
        return session, session.run()

    @pytest.mark.parametrize("mode", REVOCATION_MODES)
    def test_no_upload_loses_its_labels_across_revocations(self, mode):
        _, result = self.run_traced(mode)
        assert result.num_revocations == 2
        sent = sum(entry.session.num_uploads for entry in result.cameras)
        rejected = result.num_rejected_uploads
        assert len(result.queue_waits) + rejected == sent
        # both spot workers died; the on-demand worker carried the tail
        assert [record.worker_id for record in result.revocation_records] == [1, 2]
        assert all(record.time in (3.0, 5.0) for record in result.revocation_records)

    def test_cost_accounting_splits_by_tier(self):
        _, result = self.run_traced()
        duration = result.duration_seconds
        by_tier = result.gpu_seconds_by_tier
        # on-demand worker billed the whole run; each spot worker until
        # its revocation instant
        assert by_tier["on_demand"] == pytest.approx(duration)
        assert by_tier["spot"] == pytest.approx(3.0 + 5.0)
        assert result.gpu_seconds_provisioned == pytest.approx(
            sum(by_tier.values())
        )
        expected_cost = (
            ON_DEMAND.cost_per_gpu_second * duration
            + SPOT.cost_per_gpu_second * 8.0
        )
        assert result.dollar_cost == pytest.approx(expected_cost)
        assert 0.0 < result.spot_fraction < 1.0
        # cheaper than provisioning the same three workers on-demand
        assert result.dollar_cost < 3 * duration

    def test_seeded_revocations_are_deterministic(self):
        def run():
            session = spot_fleet_session(
                [ON_DEMAND, SPOT, SPOT],
                revocations=RevocationProcess(mean_uptime_seconds=4.0, seed=11),
            )
            return session.run()

        first, second = run(), run()
        assert first.num_revocations == second.num_revocations
        assert [r.time for r in first.revocation_records] == [
            r.time for r in second.revocation_records
        ]
        assert first.queue_waits == second.queue_waits
        assert first.dollar_cost == pytest.approx(second.dollar_cost)

    def test_spot_preferring_slo_scaler_provisions_spot_capacity(self):
        session = spot_fleet_session([ON_DEMAND])
        # monkey-ish: construct a fresh session with the autoscaler knob
        cameras = session.cameras
        scaler = SloScaler(
            slo_seconds=0.05,
            interval_seconds=0.5,
            window_seconds=2.0,
            cooldown_seconds=0.5,
            min_gpus=1,
            max_gpus=4,
            scale_out_spec=SPOT,
            revocation_headroom=1,
        )
        fleet = FleetSession(
            cameras,
            student=StudentDetector(StudentConfig(seed=5)),
            teacher=TeacherDetector(TeacherConfig(seed=9)),
            config=small_config(),
            autoscaler=scaler,
        )
        result = fleet.run()
        assert result.num_scale_outs >= 1
        added = result.worker_specs[1:]
        assert added and all(spec.preemptible for spec in added)
        assert result.spot_gpu_seconds > 0
        # headroom: the first breach added two spot workers at once
        first_out = [e for e in result.scaling_events if e.action == "scale_out"]
        assert len(first_out) >= 2
        assert first_out[0].time == first_out[1].time

    def test_headroom_validation(self):
        with pytest.raises(ValueError, match="revocation_headroom"):
            SloScaler(revocation_headroom=-1)
        with pytest.raises(ValueError, match="preemptible scale_out_spec"):
            SloScaler(revocation_headroom=1)
        with pytest.raises(ValueError, match="preemptible scale_out_spec"):
            SloScaler(revocation_headroom=1, scale_out_spec=ON_DEMAND)


# ---------------------------------------------------------------------------
# golden: spec-less behaviour is the all-on-demand WorkerSpec behaviour
# ---------------------------------------------------------------------------
class TestSpotGoldenCollapse:
    def test_fleet_without_spot_reports_zero_revocation_metrics(self):
        result = make_mixed_fleet().run()
        assert result.num_revocations == 0
        assert result.revocation_records == []
        assert result.num_relabeled_jobs == 0
        assert result.num_checkpoint_resumed_jobs == 0
        assert result.wasted_gpu_seconds == 0.0
        assert result.spot_fraction == 0.0
        assert result.worker_specs == [WorkerSpec()]
        assert result.gpu_seconds_by_tier == {
            "on_demand": pytest.approx(result.gpu_seconds_provisioned)
        }
        # default rate 1.0: dollars == provisioned GPU-seconds
        assert result.dollar_cost == pytest.approx(result.gpu_seconds_provisioned)


# ---------------------------------------------------------------------------
# spot under a federation
# ---------------------------------------------------------------------------
#: (fingerprint, journal sha256) of the traced spot fleet below, recorded
#: before the federation layer existed; the one-region federation must
#: reproduce them bit for bit
SPOT_PIN = {
    "relabel": (
        "5fa84c060b245bbaba5876c02688f85b68ba96ed82a5ec092e93d995bd8c121d",
        "8f1d865445063dee1a595a8e3a4420d92a816fd82289e518b665df5f3e5a09b2",
    ),
    "checkpoint": (
        "2a225fcdc5222c1771f3857c2e00d2e9bef66c6e2ef4e58fa2b144e5ace7af2b",
        "0b534856d23f93e80e082ff0e23e99fdf376c489be98114f24dd3d6a73e64dec",
    ),
}


class TestSpotUnderFederation:
    TRACE = [(2.5, 1), (4.5, 2)]

    @pytest.mark.parametrize("mode", REVOCATION_MODES)
    def test_one_region_spot_pin(self, mode):
        """``regions=None`` and an explicit one-region ``RegionSpec``
        are the same run: same journal bytes, same fingerprint — and
        both match the pre-federation digests."""
        specs = [ON_DEMAND, SPOT, SPOT]
        plain_journal, region_journal = EventJournal(), EventJournal()
        plain = spot_fleet_session(
            specs,
            revocations=RevocationProcess(trace=self.TRACE),
            revocation_mode=mode,
        ).run(journal=plain_journal)
        one_region = spot_fleet_session(
            placement=None,
            regions=[
                RegionSpec(
                    name="solo",
                    worker_specs=specs,
                    placement="least_loaded",
                    revocations=RevocationProcess(trace=self.TRACE),
                    revocation_mode=mode,
                )
            ],
        ).run(journal=region_journal)
        assert plain_journal.serialize() == region_journal.serialize()
        assert plain.fingerprint() == one_region.fingerprint()
        # one revocation killed in-flight work, recovered per the mode
        assert [r.jobs_in_flight for r in plain.revocation_records] == [0, 1]
        digest = hashlib.sha256(plain_journal.serialize()).hexdigest()
        assert (plain.fingerprint(), digest) == SPOT_PIN[mode]

    def test_revocation_routes_to_its_own_region(self):
        """A trace in region 1 revokes region 1's spot worker only."""
        session = spot_fleet_session(
            placement=None,
            regions=[
                RegionSpec(name="near", worker_specs=[ON_DEMAND, SPOT]),
                RegionSpec(
                    name="far",
                    worker_specs=[ON_DEMAND, SPOT],
                    revocations=RevocationProcess(trace=[(2.5, 1)]),
                ),
            ],
            region_selector="least_loaded",
            faults=FaultPlan(seed=3, loss_rate=0.05, retry_timeout_seconds=0.6),
        )
        result = session.run()
        near, far = session.federation.regions
        assert near.cluster.revocation_log == []
        assert [r.worker_id for r in far.cluster.revocation_log] == [1]
        assert result.revocation_records == far.cluster.revocation_log
        assert not near.cluster.workers[1].revoked
        assert far.cluster.workers[1].revoked
        sent = result.sends_by_kind["upload"]
        assert (
            len(result.queue_waits)
            + result.num_rejected_uploads
            + result.num_abandoned_uploads
            == sent
        )
        assert check_invariants(session, result) is None
