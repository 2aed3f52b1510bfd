"""Cluster-wide teacher batching tests: policies, batcher, golden pin.

The unit tests drive :class:`~repro.core.batching.BatchPolicy` objects
and the :class:`~repro.core.batching.FleetBatcher` directly with stub
workers/clusters (hold + flush decisions, SLO sizing, drift jumps,
admission against the forming batch).  The integration tests run real
fleets per policy and pin two equivalences:

* ``batching=None`` (the default) is bit-for-bit the PR 1 golden
  metrics — the batching layer is invisible until opted into;
* ``batching="greedy"`` on the single-GPU FIFO fleet is *also*
  bit-for-bit the golden metrics: the per-worker FIFO busy period
  already merged everything queued behind it, so cluster-wide greedy
  coalescing changes nothing there.

Determinism of batched runs (byte-identical journals, exact replay)
rides on the same :class:`~repro.runtime.journal.EventJournal`
machinery ``tests/core/test_determinism.py`` gates.
"""

from __future__ import annotations

import pytest

from repro.core import FleetSession
from repro.core.batching import (
    BATCH_POLICIES,
    BatchPolicy,
    FleetBatcher,
    GreedyBatchPolicy,
    LatencyBudgetBatchPolicy,
    SizeCappedBatchPolicy,
    build_batch_policy,
    build_batcher,
    projected_batch_service,
)
from repro.core.scheduling import (
    LABELING,
    TRAINING,
    AdmissionControlScheduler,
    FifoScheduler,
    GpuJob,
    WorkerSpec,
)
from repro.runtime.events import BatchTimeout, EventScheduler
from repro.runtime.journal import EventJournal

from test_scheduling import PR1_GOLDEN, make_mixed_fleet


def job(
    camera_id: int,
    arrival: float,
    service: float = 0.1,
    kind: str = LABELING,
    frames: int = 2,
) -> GpuJob:
    return GpuJob(
        kind=kind,
        camera_id=camera_id,
        arrival=arrival,
        service_seconds=service,
        batch=[object()] * frames if kind == LABELING else [],
    )


class StubWorker:
    """Just enough of :class:`~repro.core.actors.CloudActor` to batch onto."""

    def __init__(self, worker_id=0, spec=None, scheduler=None, busy_until=0.0):
        self.worker_id = worker_id
        self.spec = spec or WorkerSpec()
        self.scheduler = scheduler or FifoScheduler()
        self.queue: list[GpuJob] = []
        self.rejected_jobs: list[GpuJob] = []
        self.busy_until = busy_until
        self.batch_overhead_seconds = 0.02
        self.batches: list[list[GpuJob]] = []

    def pending_gpu_seconds(self, now: float) -> float:
        backlog = sum(j.service_seconds for j in self.queue)
        return max(0.0, self.busy_until - now) + backlog

    def accept_batch(self, jobs, now, scheduler) -> None:
        for item in jobs:
            item.worker_id = self.worker_id
        self.batches.append(list(jobs))
        self.busy_until = now + 1.0  # busy: the next flush must wait


class StubCluster:
    def __init__(self, workers):
        self.active_workers = list(workers)
        self.placements: list[tuple[int, int]] = []

    def _record_placement(self, camera_id: int, worker_id: int) -> None:
        self.placements.append((camera_id, worker_id))


def bound_batcher(policy, workers) -> tuple[FleetBatcher, StubCluster, EventScheduler]:
    batcher = FleetBatcher(policy)
    cluster = StubCluster(workers)
    batcher.bind(cluster)
    return batcher, cluster, EventScheduler()


# ---------------------------------------------------------------------------
# policy registry + parameter validation
# ---------------------------------------------------------------------------
class TestBatchPolicyRegistry:
    def test_build_by_name_and_passthrough(self):
        assert isinstance(build_batch_policy(None), GreedyBatchPolicy)
        assert isinstance(build_batch_policy("latency_budget"), LatencyBudgetBatchPolicy)
        capped = build_batch_policy("size_capped", max_batch_jobs=3)
        assert capped.max_batch_jobs == 3
        instance = GreedyBatchPolicy()
        assert build_batch_policy(instance) is instance

    def test_unknown_name_and_bad_options_raise(self):
        with pytest.raises(ValueError, match="unknown batch policy"):
            build_batch_policy("nagle")
        with pytest.raises(ValueError, match="kwargs"):
            build_batch_policy(GreedyBatchPolicy(), max_batch_jobs=3)
        with pytest.raises(ValueError):
            SizeCappedBatchPolicy(max_batch_jobs=0)
        with pytest.raises(ValueError):
            LatencyBudgetBatchPolicy(max_batch_delay_seconds=-0.1)
        with pytest.raises(ValueError):
            LatencyBudgetBatchPolicy(slo_seconds=0.0)

    def test_registry_covers_all_three_policies(self):
        assert set(BATCH_POLICIES) == {"greedy", "size_capped", "latency_budget"}

    def test_build_batcher_resolution(self):
        assert build_batcher(None) is None
        batcher = build_batcher("size_capped")
        assert isinstance(batcher, FleetBatcher)
        assert batcher.policy.name == "size_capped"
        assert build_batcher(batcher) is batcher
        from_policy = build_batcher(LatencyBudgetBatchPolicy(slo_seconds=0.9))
        assert from_policy.policy.slo_seconds == 0.9

    def test_describe_names_the_parameters(self):
        assert GreedyBatchPolicy().describe() == "greedy"
        assert "max_batch_jobs=5" in SizeCappedBatchPolicy(5).describe()
        text = LatencyBudgetBatchPolicy(0.04, 0.5, phi_threshold=0.6).describe()
        assert "0.04" in text and "0.5" in text and "0.6" in text

    def test_worker_spec_batch_scaling_validation(self):
        assert WorkerSpec(batch_scaling=0.7).batch_scaling == 0.7
        assert WorkerSpec().batch_scaling == 1.0  # linear: pre-batching model
        with pytest.raises(ValueError, match="batch_scaling"):
            WorkerSpec(batch_scaling=0.0)
        with pytest.raises(ValueError, match="batch_scaling"):
            WorkerSpec(batch_scaling=1.5)


# ---------------------------------------------------------------------------
# the batch-aware service projection (the SLO sizing oracle)
# ---------------------------------------------------------------------------
class TestProjectedBatchService:
    def test_sublinear_discount_and_speed(self):
        worker = StubWorker(spec=WorkerSpec(speed=2.0, batch_scaling=0.7))
        jobs = [job(0, 0.0, service=0.10, frames=2), job(1, 0.0, service=0.20, frames=4)]
        expected = (0.02 + 0.30 * 6 ** (0.7 - 1.0)) / 2.0
        assert projected_batch_service(jobs, worker) == pytest.approx(expected)

    def test_linear_spec_and_single_frame_skip_the_discount(self):
        linear = StubWorker(spec=WorkerSpec())
        jobs = [job(0, 0.0, service=0.10, frames=2), job(1, 0.0, service=0.20, frames=4)]
        assert projected_batch_service(jobs, linear) == pytest.approx(0.32)
        scaled = StubWorker(spec=WorkerSpec(batch_scaling=0.5))
        one = [job(0, 0.0, service=0.10, frames=1)]
        assert projected_batch_service(one, scaled) == pytest.approx(0.12)

    def test_training_jobs_are_charged_nominally(self):
        worker = StubWorker(spec=WorkerSpec(batch_scaling=0.7))
        jobs = [
            job(0, 0.0, service=0.10, frames=4),
            job(1, 0.0, service=0.30, kind=TRAINING),
        ]
        expected = 0.02 + 0.30 + 0.10 * 4 ** (0.7 - 1.0)
        assert projected_batch_service(jobs, worker) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# latency-budget policy decisions
# ---------------------------------------------------------------------------
class TestLatencyBudgetPolicy:
    def test_holds_until_the_delay_bound(self):
        policy = LatencyBudgetBatchPolicy(max_batch_delay_seconds=0.05)
        pending = [job(0, arrival=1.0)]
        assert not policy.ready(pending, now=1.0)
        assert not policy.ready(pending, now=1.04)
        assert policy.ready(pending, now=1.05)
        assert policy.deadline(pending, now=1.0) == pytest.approx(1.05)

    def test_take_sizes_the_batch_against_the_slo(self):
        policy = LatencyBudgetBatchPolicy(max_batch_delay_seconds=0.0, slo_seconds=0.3)
        worker = StubWorker(spec=WorkerSpec())
        # each extra job adds 0.1s of projected service; the oldest job's
        # wait (0.05) + overhead (0.02) leaves room for exactly two jobs
        pending = [job(i, arrival=0.0, service=0.1, frames=1) for i in range(5)]
        assert policy.take(pending, now=0.05, worker=worker) == 2
        # once the oldest job can't meet the SLO even alone, the sizing
        # flips to take-everything (shrinking batches can't win it back)
        huge = [job(0, arrival=0.0, service=9.0)] + pending
        assert policy.take(huge, now=0.05, worker=worker) == len(huge)
        assert policy.take(pending, now=5.0, worker=worker) == len(pending)

    def test_drift_jump_requires_a_measured_phi(self):
        policy = LatencyBudgetBatchPolicy(phi_threshold=0.5)
        hot, cold = job(0, 0.0), job(1, 0.0)
        # never-measured cameras rely on the delay bound, not the jump
        assert not policy.jump(hot, now=0.0)
        policy.on_labeled(0, phi=0.9, now=0.0)
        policy.on_labeled(1, phi=0.1, now=0.0)
        assert policy.jump(hot, now=1.0)
        assert not policy.jump(cold, now=1.0)
        policy.reset()
        assert not policy.jump(hot, now=2.0)

    def test_jump_disabled_without_a_threshold(self):
        policy = LatencyBudgetBatchPolicy()
        policy.on_labeled(0, phi=99.0, now=0.0)
        assert not policy.jump(job(0, 0.0), now=1.0)


# ---------------------------------------------------------------------------
# FleetBatcher unit behaviour (stub cluster)
# ---------------------------------------------------------------------------
class TestFleetBatcher:
    def test_greedy_flushes_to_the_fastest_idle_worker(self):
        slow = StubWorker(worker_id=0, spec=WorkerSpec(speed=1.0))
        fast = StubWorker(worker_id=1, spec=WorkerSpec(speed=2.0))
        batcher, cluster, sched = bound_batcher("greedy", [slow, fast])
        batcher.on_job(job(0, 0.0), 0.0, sched)
        # fastest idle worker first; it is then busy, so the next flush
        # falls back to the slow worker
        assert [len(batch) for batch in fast.batches] == [1]
        batcher.on_job(job(1, 0.0), 0.0, sched)
        assert [len(batch) for batch in slow.batches] == [1]
        assert cluster.placements == [(0, 1), (1, 0)]
        assert batcher.num_batches == 2 and batcher.num_batched_jobs == 2

    def test_jobs_merge_while_all_workers_are_busy(self):
        worker = StubWorker(busy_until=5.0)
        batcher, _, sched = bound_batcher("greedy", [worker])
        for camera in range(3):
            batcher.on_job(job(camera, float(camera)), float(camera), sched)
        assert len(batcher.pending) == 3 and not worker.batches
        worker.busy_until = 5.0  # still busy at t=4: nothing dispatches
        batcher.on_worker_idle(4.0, sched)
        assert not worker.batches
        worker.busy_until = 5.0 - 5.0  # idle now
        worker.busy_until = 0.0
        batcher.on_worker_idle(5.0, sched)
        assert [len(batch) for batch in worker.batches] == [3]
        assert batcher.mean_batch_jobs == pytest.approx(3.0)

    def test_size_cap_splits_the_flush(self):
        worker = StubWorker(busy_until=1.0)
        batcher, _, sched = bound_batcher(
            SizeCappedBatchPolicy(max_batch_jobs=2), [worker]
        )
        for camera in range(5):
            batcher.on_job(job(camera, 0.0), 0.0, sched)
        worker.busy_until = 0.0
        batcher.on_worker_idle(1.0, sched)
        # one worker: first flush takes 2, then the worker is busy again
        assert [len(batch) for batch in worker.batches] == [2]
        assert len(batcher.pending) == 3

    def test_rejected_job_never_enters_the_forming_batch(self):
        # the admission worker is busy for far longer than the budget
        worker = StubWorker(
            scheduler=AdmissionControlScheduler(delay_budget_seconds=0.2),
            busy_until=10.0,
        )
        batcher, _, sched = bound_batcher("greedy", [worker])
        rejected = job(0, arrival=0.0)
        assert batcher.on_job(rejected, 0.0, sched) is False
        assert worker.rejected_jobs == [rejected]
        assert not batcher.pending and batcher.num_batched_jobs == 0
        # a job whose projected wait fits the budget is admitted and
        # joins the forming batch (the worker is still busy, so it waits)
        worker.busy_until = 0.2
        accepted = job(1, arrival=0.1)
        assert batcher.on_job(accepted, 0.1, sched) is True
        assert list(batcher.pending) == [accepted]
        assert accepted not in worker.rejected_jobs

    def test_latency_budget_holds_then_timeout_flushes(self):
        worker = StubWorker()
        policy = LatencyBudgetBatchPolicy(max_batch_delay_seconds=0.05)
        batcher, _, sched = bound_batcher(policy, [worker])
        batcher.on_job(job(0, 0.0), 0.0, sched)
        # worker is idle but the hold is young: nothing dispatches yet
        assert not worker.batches and len(batcher.pending) == 1
        timer = batcher._timer
        assert isinstance(timer, BatchTimeout)
        assert timer.time == pytest.approx(0.05)
        # a second arrival inside the hold merges without re-arming
        batcher.on_job(job(1, 0.02), 0.02, sched)
        assert batcher._timer is timer and len(batcher.pending) == 2
        batcher.on_timeout(timer, sched)
        assert [len(batch) for batch in worker.batches] == [2]
        assert batcher.num_timeout_flushes == 1 and not batcher.pending

    def test_stale_timer_generations_are_ignored(self):
        worker = StubWorker()
        batcher, _, sched = bound_batcher(
            LatencyBudgetBatchPolicy(max_batch_delay_seconds=0.05), [worker]
        )
        batcher.on_job(job(0, 0.0), 0.0, sched)
        stale = BatchTimeout(time=0.05, generation=batcher._generation - 1)
        batcher.on_timeout(stale, sched)
        assert not worker.batches and len(batcher.pending) == 1

    def test_drift_jump_overrides_the_hold(self):
        worker = StubWorker()
        policy = LatencyBudgetBatchPolicy(
            max_batch_delay_seconds=10.0, slo_seconds=100.0, phi_threshold=0.5
        )
        batcher, _, sched = bound_batcher(policy, [worker])
        batcher.on_job(job(0, 0.0), 0.0, sched)
        assert not worker.batches  # held: φ never measured, long delay bound
        batcher.on_labeled(0, phi=0.9, now=0.5)  # the cluster's φ broadcast
        batcher.on_job(job(0, 1.0), 1.0, sched)
        # the hot camera's arrival jumps the hold and flushes everything
        assert [len(batch) for batch in worker.batches] == [2]
        assert batcher.num_drift_jumps == 1

    def test_bind_resets_per_run_state(self):
        worker = StubWorker()
        batcher, cluster, sched = bound_batcher("greedy", [worker])
        batcher.on_job(job(0, 0.0), 0.0, sched)
        assert batcher.num_batches == 1
        batcher.bind(cluster)
        assert batcher.num_batches == 0 and batcher.num_batched_jobs == 0
        assert not batcher.pending and batcher._timer is None


# ---------------------------------------------------------------------------
# fleet integration: golden pins + conservation per policy
# ---------------------------------------------------------------------------
def assert_matches_pr1_golden(result) -> None:
    golden = PR1_GOLDEN
    assert result.mean_queue_delay == golden["mean_queue_delay"]
    assert result.max_queue_delay == golden["max_queue_delay"]
    assert result.cloud_gpu_seconds == golden["cloud_gpu_seconds"]
    assert result.cloud_busy_seconds == golden["cloud_busy_seconds"]
    assert result.num_labeling_batches == golden["num_labeling_batches"]
    assert result.gpu_seconds_by_camera == golden["gpu_seconds_by_camera"]
    for entry in result.cameras:
        assert entry.session.num_uploads == golden["num_uploads"][entry.camera]
        assert entry.mean_upload_latency == golden["mean_upload_latency"]


class TestBatchingGoldenPin:
    def test_batching_off_is_bitforbit_pr1(self):
        result = make_mixed_fleet(batching=None).run()
        assert result.batching == "none"
        assert result.num_merged_batches == 0 and result.num_batched_jobs == 0
        assert_matches_pr1_golden(result)

    def test_greedy_on_single_gpu_fifo_is_bitforbit_pr1(self):
        # the per-worker FIFO busy period already merges everything that
        # queues behind it, so cluster-wide greedy coalescing on one GPU
        # reproduces the per-worker timings exactly — while actually
        # routing every job through the batcher
        result = make_mixed_fleet(batching="greedy").run()
        assert result.batching == "greedy"
        assert result.num_merged_batches > 0
        assert result.num_batched_jobs == len(result.queue_waits)
        assert result.num_labeled_frames > 0
        assert_matches_pr1_golden(result)


class TestBatchedFleetConservation:
    @pytest.mark.parametrize("policy", sorted(BATCH_POLICIES))
    def test_every_upload_is_labeled_exactly_once(self, policy):
        specs = [WorkerSpec(batch_scaling=0.7), WorkerSpec(batch_scaling=0.7)]
        session = make_mixed_fleet(
            batching=policy,
            num_gpus=2,
            placement="least_loaded",
            worker_specs=specs,
        )
        result = session.run()
        assert result.batching == policy
        # faults-off conservation: every camera upload was labeled (or
        # explicitly rejected), none stranded in a forming batch
        sent = sum(entry.session.num_uploads for entry in result.cameras)
        labeled = len(result.queue_waits)
        assert labeled + result.num_rejected_uploads == sent
        # exactly-once: no job appears in two workers' completion logs
        completed = [
            item
            for worker in session.cluster.workers
            for item in worker.completed_jobs
        ]
        assert len({id(item) for item in completed}) == len(completed)
        assert result.num_batched_jobs >= result.num_merged_batches > 0
        assert result.num_labeled_frames > 0
        assert result.labels_per_busy_second > 0
        # the batcher drained: nothing is still forming at the end
        assert not session.cluster.batcher.pending

    def test_batch_scaling_shrinks_busy_time_not_accounting(self):
        linear = make_mixed_fleet(batching="greedy", num_gpus=2).run()
        scaled = make_mixed_fleet(
            batching="greedy",
            num_gpus=2,
            worker_specs=[WorkerSpec(batch_scaling=0.7)] * 2,
        ).run()
        assert scaled.cloud_busy_seconds < linear.cloud_busy_seconds
        # nominal per-tenant accounting is the work represented, unchanged
        assert scaled.cloud_gpu_seconds == pytest.approx(linear.cloud_gpu_seconds)


class TestBatchedDeterminism:
    def test_batched_runs_journal_identically_and_replay(self, fleet_factory):
        def build() -> FleetSession:
            return fleet_factory(
                3,
                90,
                datasets=["detrac", "kitti", "waymo"],
                strategies=["shoggoth", "ams", "shoggoth"],
                seed_base=11,
                num_gpus=2,
                placement="least_loaded",
                batching=LatencyBudgetBatchPolicy(
                    max_batch_delay_seconds=0.04, phi_threshold=0.6
                ),
            )

        first, second = EventJournal(), EventJournal()
        build().run(journal=first)
        build().run(journal=second)
        assert first.serialize() == second.serialize()
        assert b'"batching"' in first.serialize()  # meta records the policy
        report = first.replay(build)
        assert not report.halted and report.events_checked == first.num_events

    def test_batching_knob_is_incompatible_with_regions(self):
        from repro.core.federation import RegionSpec

        with pytest.raises(ValueError, match="batching"):
            make_mixed_fleet(regions=[RegionSpec(name="a")], batching="greedy")
