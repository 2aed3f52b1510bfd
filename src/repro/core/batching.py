"""Cluster-wide continuous teacher batching (the serving-path layer).

Before this module, each GPU worker of a
:class:`~repro.core.cluster.CloudCluster` batched only its *own* queue:
an upload was placed onto one worker the instant it arrived and could
never be merged with uploads that landed on (or were queued behind)
other workers.  At 16–64 cameras that burns one
``batch_overhead_seconds`` per tiny per-worker busy period while other
GPUs sit idle — the classic serving throughput/latency trade-off.

The :class:`FleetBatcher` sits between the cluster's
:class:`~repro.core.scheduling.PlacementPolicy` and the per-worker
:class:`~repro.core.scheduling.GpuScheduler`: labeling jobs accumulate
in one cluster-wide *forming batch*, and a pluggable
:class:`BatchPolicy` decides when to flush it — as one merged teacher
batch — to the first idle worker (fastest spec first, then lowest id).
Merged batches are genuinely cheaper than serial small ones under the
:class:`~repro.core.scheduling.WorkerSpec` batch-aware service model:
one overhead per busy period plus sub-linear
(``frames ** (batch_scaling - 1)``) per-frame cost.

Policies (registry :data:`BATCH_POLICIES`, names accepted anywhere a
``batching=...`` knob is):

* ``greedy`` — flush whatever is pending whenever a worker is idle.
  On a single-GPU FIFO cluster this is bit-for-bit the per-worker
  behaviour (the worker's whole-queue FIFO service already merged
  everything that queued behind a busy period), which the golden pin
  in ``tests/core/test_batching.py`` holds it to.
* ``size_capped`` — greedy, but never more than ``max_batch_jobs``
  jobs per merged batch (bounds worst-case service burst).
* ``latency_budget`` — *hold* the forming batch up to
  ``max_batch_delay_seconds`` (a :class:`~repro.runtime.events
  .BatchTimeout` bounds the hold), sized so the oldest held job's
  projected queue delay — wait so far plus the merged batch's
  projected service — stays under ``slo_seconds``; cameras whose last
  measured drift φ reaches ``phi_threshold`` jump the hold and force
  an immediate flush, reusing the cluster's φ broadcast.

Training jobs never route through the batcher (they are already
coalesced per tenant), and neither do crash/revocation handoffs —
recovered jobs must not wait on a forming batch.  Rejected jobs
(admission control) never enter the forming batch and never count
toward its size.  With ``batching=None`` (the default everywhere) the
cluster bypasses this module entirely, bit-for-bit.

See ``docs/serving.md`` for the full serving model and
``benchmarks/bench_serving_throughput.py`` for the labels/sec vs p95
measurement this layer exists for.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import TYPE_CHECKING, Sequence

from repro.core.scheduling import LABELING, GpuJob
from repro.runtime.events import BatchTimeout, EventScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.actors import CloudActor

__all__ = [
    "BatchPolicy",
    "GreedyBatchPolicy",
    "SizeCappedBatchPolicy",
    "LatencyBudgetBatchPolicy",
    "BATCH_POLICIES",
    "build_batch_policy",
    "build_batcher",
    "projected_batch_service",
    "FleetBatcher",
]


def projected_batch_service(jobs: Sequence[GpuJob], worker: "CloudActor") -> float:
    """Projected wall-clock service of ``jobs`` as one merged busy period.

    Mirrors the worker's batch-aware service model (one
    ``batch_overhead_seconds``, labeling frames discounted by the
    spec's ``batch_scaling`` exponent, everything divided by the spec
    speed) without mutating any state — the sizing oracle
    :class:`LatencyBudgetBatchPolicy` uses to keep a forming batch
    under its SLO.  Training jobs whose service is not yet known
    (``result`` unset) are projected at their current nominal service.
    """
    spec = worker.spec
    service = worker.batch_overhead_seconds
    nominal_labeling = 0.0
    frames = 0
    for job in jobs:
        if job.kind == LABELING:
            nominal_labeling += job.service_seconds
            frames += len(job.batch)
        else:
            service += job.service_seconds
    if spec.batch_scaling != 1.0 and frames > 1:
        nominal_labeling *= frames ** (spec.batch_scaling - 1.0)
    return (service + nominal_labeling) / spec.speed


# ---------------------------------------------------------------------------
# batch policies: when does the forming batch flush, and how big is it
# ---------------------------------------------------------------------------
class BatchPolicy:
    """Decides when/how the cluster-wide forming batch dispatches.

    Subclasses override :meth:`ready` (may the batch flush now?),
    :meth:`take` (how many FIFO-ordered pending jobs form the merged
    batch), :meth:`deadline` (absolute time at which the hold must be
    force-flushed; ``None`` = no timer) and optionally :meth:`jump`
    / :meth:`on_labeled` to react to the cluster's φ drift broadcast.
    The base class is maximally eager: always ready, take everything,
    never hold — i.e. ``greedy``.
    """

    #: registry key / journal-meta name of the policy
    name = "batch"

    def reset(self) -> None:
        """Clear per-run state (called when the batcher binds a cluster)."""

    def ready(self, pending: Sequence[GpuJob], now: float) -> bool:
        """Whether the forming batch may dispatch to an idle worker now."""
        return True

    def take(self, pending: Sequence[GpuJob], now: float, worker: "CloudActor") -> int:
        """How many pending jobs (FIFO prefix) form the next merged batch."""
        return len(pending)

    def deadline(self, pending: Sequence[GpuJob], now: float) -> float | None:
        """Absolute time the hold must be force-flushed (None = no hold)."""
        return None

    def jump(self, job: GpuJob, now: float) -> bool:
        """Whether this arriving job forces an immediate flush (drift jump)."""
        return False

    def on_labeled(self, camera_id: int, phi: float, now: float) -> None:
        """Observe a measured scene-change signal φ for ``camera_id``."""

    def describe(self) -> str:
        """Human/journal-readable policy identity (name + parameters)."""
        return self.name


class GreedyBatchPolicy(BatchPolicy):
    """Merge whatever is pending whenever a worker goes idle.

    Adds no hold delay, so on a single-GPU FIFO cluster it reproduces
    the per-worker batching bit-for-bit (PR-equivalent) — the golden
    pin in ``tests/core/test_batching.py``.
    """

    name = "greedy"


class SizeCappedBatchPolicy(BatchPolicy):
    """Greedy merging with a hard cap on merged-batch size.

    Bounds the worst-case busy-period length (and hence the head-of-
    line blocking a huge merged batch would inflict on jobs arriving
    just after the flush) at the cost of amortising the per-period
    overhead over fewer jobs.
    """

    name = "size_capped"

    def __init__(self, max_batch_jobs: int = 8) -> None:
        if max_batch_jobs < 1:
            raise ValueError(f"max_batch_jobs must be >= 1, got {max_batch_jobs}")
        #: hard cap on jobs per merged batch
        self.max_batch_jobs = max_batch_jobs

    def take(self, pending: Sequence[GpuJob], now: float, worker: "CloudActor") -> int:
        """Take at most ``max_batch_jobs`` of the FIFO prefix."""
        return min(self.max_batch_jobs, len(pending))

    def describe(self) -> str:
        """Name plus the cap, e.g. ``size_capped(max_batch_jobs=8)``."""
        return f"{self.name}(max_batch_jobs={self.max_batch_jobs})"


class LatencyBudgetBatchPolicy(BatchPolicy):
    """SLO-bounded continuous batching: hold, but never past the budget.

    The forming batch is *held* while young — up to
    ``max_batch_delay_seconds`` past its oldest job's arrival — so more
    jobs can merge into one cheap busy period.  The hold is bounded
    three ways:

    * a :class:`~repro.runtime.events.BatchTimeout` at
      ``oldest.arrival + max_batch_delay_seconds`` force-flushes;
    * :meth:`take` sizes each merged batch so the oldest held job's
      projected queue delay (wait so far + the merged batch's
      projected service on the dispatching worker) stays under
      ``slo_seconds`` — the p95-under-SLO sizing proxy (past-budget
      jobs flip to take-everything; see :meth:`take`);
    * a job from a camera whose last measured φ is at least
      ``phi_threshold`` jumps the hold entirely (drifting cameras need
      fresh labels *now*; never-measured cameras are covered by the
      delay bound instead, mirroring how
      :class:`~repro.core.scheduling.DriftAwareScheduler` treats them
      as maximally urgent once queued).
    """

    name = "latency_budget"

    def __init__(
        self,
        max_batch_delay_seconds: float = 0.05,
        slo_seconds: float = 0.5,
        phi_threshold: float | None = None,
    ) -> None:
        if max_batch_delay_seconds < 0:
            raise ValueError(
                f"max_batch_delay_seconds must be >= 0, got {max_batch_delay_seconds}"
            )
        if slo_seconds <= 0:
            raise ValueError(f"slo_seconds must be > 0, got {slo_seconds}")
        #: longest a forming batch may be held past its oldest arrival
        self.max_batch_delay_seconds = max_batch_delay_seconds
        #: queue-delay budget the batch sizing must stay under
        self.slo_seconds = slo_seconds
        #: measured φ at which a camera's jobs jump the hold (None = off)
        self.phi_threshold = phi_threshold
        self._phi: dict[int, float] = {}

    def reset(self) -> None:
        """Forget every camera's measured φ."""
        self._phi.clear()

    def ready(self, pending: Sequence[GpuJob], now: float) -> bool:
        """Flush once the oldest held job has waited the full hold delay."""
        return now + 1e-12 >= pending[0].arrival + self.max_batch_delay_seconds

    def deadline(self, pending: Sequence[GpuJob], now: float) -> float | None:
        """Force-flush time: the oldest job's arrival plus the hold delay."""
        return pending[0].arrival + self.max_batch_delay_seconds

    def take(self, pending: Sequence[GpuJob], now: float, worker: "CloudActor") -> int:
        """Largest FIFO prefix keeping the oldest job's delay under the SLO.

        When the oldest job can no longer meet the SLO even served alone
        (the cluster is saturated past the budget), the sizing flips to
        take-everything: shrinking batches can't win the SLO back, it
        only multiplies per-period overheads and deepens the backlog —
        amortising maximally is what drains the queue fastest.
        """
        jobs = list(pending)
        wait = max(0.0, now - jobs[0].arrival)
        if wait + projected_batch_service(jobs[:1], worker) > self.slo_seconds + 1e-9:
            return len(jobs)
        count = 1
        while count < len(jobs):
            projected = wait + projected_batch_service(jobs[: count + 1], worker)
            if projected > self.slo_seconds + 1e-9:
                break
            count += 1
        return count

    def jump(self, job: GpuJob, now: float) -> bool:
        """Measured-φ drift jump: hot cameras do not wait out the hold."""
        if self.phi_threshold is None:
            return False
        phi = self._phi.get(job.camera_id)
        return phi is not None and phi >= self.phi_threshold

    def on_labeled(self, camera_id: int, phi: float, now: float) -> None:
        """Record the camera's latest measured φ for the drift jump."""
        self._phi[camera_id] = phi

    def describe(self) -> str:
        """Name plus the hold/SLO/φ parameters (journal-meta identity)."""
        return (
            f"{self.name}(max_batch_delay_seconds={self.max_batch_delay_seconds}, "
            f"slo_seconds={self.slo_seconds}, phi_threshold={self.phi_threshold})"
        )


#: registry of batch-policy names accepted by ``batching=...`` knobs
BATCH_POLICIES: dict[str, type[BatchPolicy]] = {
    "greedy": GreedyBatchPolicy,
    "size_capped": SizeCappedBatchPolicy,
    "latency_budget": LatencyBudgetBatchPolicy,
}


def build_batch_policy(policy: "BatchPolicy | str | None" = None, **kwargs) -> BatchPolicy:
    """Resolve a policy name (or pass through an instance) to a policy.

    ``None`` means ``greedy``.  Keyword arguments go to the policy
    constructor, mirroring :func:`~repro.core.scheduling.build_scheduler`.
    """
    if isinstance(policy, BatchPolicy):
        if kwargs:
            raise ValueError("cannot pass kwargs with a ready BatchPolicy instance")
        return policy
    name = "greedy" if policy is None else policy
    factory = BATCH_POLICIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown batch policy {name!r} (known: {sorted(BATCH_POLICIES)})"
        )
    return factory(**kwargs)


def build_batcher(
    batching: "FleetBatcher | BatchPolicy | str | None",
) -> "FleetBatcher | None":
    """Resolve the ``batching=...`` config knob to a batcher (or None).

    ``None`` keeps the per-worker path (bit-for-bit the pre-batching
    cluster); a policy name or :class:`BatchPolicy` wraps into a fresh
    :class:`FleetBatcher`; a ready batcher passes through.
    """
    if batching is None:
        return None
    if isinstance(batching, FleetBatcher):
        return batching
    return FleetBatcher(batching)


# ---------------------------------------------------------------------------
# the batcher: one cluster-wide forming batch between placement and workers
# ---------------------------------------------------------------------------
class FleetBatcher:
    """Coalesces per-camera labeling jobs into cluster-wide teacher batches.

    The cluster routes every *admitted* labeling job here instead of
    enqueueing it on its placed worker; the batcher keeps one FIFO
    forming batch and flushes policy-sized merged batches to the first
    idle worker (fastest spec, then lowest id — "the first worker that
    goes idle").  Flushes are re-attempted on every arrival, every
    busy-period completion, every crash/revocation recovery and every
    :class:`~repro.runtime.events.BatchTimeout`, so pending jobs can
    only wait for a worker or for the policy's bounded hold.

    Admission control still happens per job at arrival — against the
    least-loaded active worker, the one a rejected job would otherwise
    have raced for — so a rejected job never enters the forming batch
    and never counts toward a merged batch's size.

    One batcher drives one bound cluster per run; :meth:`bind` resets
    all forming-batch state (mirroring how
    :class:`~repro.core.cluster.CloudCluster` refuses to re-bind).
    """

    def __init__(self, policy: "BatchPolicy | str | None" = "greedy", **policy_kwargs) -> None:
        #: the flush/sizing policy (name or instance; see BATCH_POLICIES)
        self.policy = build_batch_policy(policy, **policy_kwargs)
        self._cluster = None
        #: FIFO forming batch of admitted, not-yet-dispatched labeling jobs
        self.pending: deque[GpuJob] = deque()
        self._due = False
        self._generation = 0
        self._timer: BatchTimeout | None = None
        #: merged batches dispatched to workers
        self.num_batches = 0
        #: labeling jobs dispatched inside merged batches
        self.num_batched_jobs = 0
        #: times a BatchTimeout force-flushed a held forming batch
        self.num_timeout_flushes = 0
        #: times a drifting camera's arrival jumped the hold
        self.num_drift_jumps = 0

    def describe(self) -> str:
        """The policy's parameterised identity (journal-meta string)."""
        return self.policy.describe()

    @property
    def cluster(self):
        """The bound cluster (None before :meth:`bind`)."""
        return None if self._cluster is None else self._cluster()

    def bind(self, cluster) -> "FleetBatcher":
        """Attach to a (duck-typed) cluster and reset per-run state.

        The cluster owns its batcher, so the batcher refers back to it
        weakly.
        """
        self._cluster = weakref.ref(cluster)
        self.policy.reset()
        self.pending.clear()
        self._due = False
        self._generation = 0
        self._timer = None
        self.num_batches = 0
        self.num_batched_jobs = 0
        self.num_timeout_flushes = 0
        self.num_drift_jumps = 0
        return self

    # -- cluster-facing hooks -------------------------------------------------
    def on_job(self, job: GpuJob, now: float, scheduler: EventScheduler) -> bool:
        """Admit a labeling job into the forming batch; False = rejected.

        Admission is delegated to the least-loaded active worker's
        :class:`~repro.core.scheduling.GpuScheduler` (the worker the
        job would have raced for without batching); a rejection lands
        on that worker's ``rejected_jobs`` ledger exactly as the
        per-worker path would record it.
        """
        worker = self._admission_worker(now)
        if worker is not None and not worker.scheduler.admit(
            job, worker.queue, now, worker.busy_until
        ):
            worker.rejected_jobs.append(job)
            return False
        self.pending.append(job)
        if self.policy.jump(job, now):
            self._due = True
            self.num_drift_jumps += 1
        self._dispatch(now, scheduler)
        self._arm_timer(now, scheduler)
        return True

    def on_worker_idle(self, now: float, scheduler: EventScheduler) -> None:
        """A worker may have gone idle: try to flush the forming batch."""
        if not self.pending:
            return
        self._dispatch(now, scheduler)
        self._arm_timer(now, scheduler)

    def on_timeout(self, event: BatchTimeout, scheduler: EventScheduler) -> None:
        """The hold expired: force-flush to the next idle worker(s)."""
        if event.generation != self._generation:
            return  # stale timer from an earlier forming batch
        self._timer = None
        if not self.pending:
            return
        self._due = True
        self.num_timeout_flushes += 1
        self._dispatch(event.time, scheduler)
        self._arm_timer(event.time, scheduler)

    def on_labeled(self, camera_id: int, phi: float, now: float) -> None:
        """Relay the cluster's φ broadcast to the policy (drift jumps)."""
        self.policy.on_labeled(camera_id, phi, now)

    # -- internals ------------------------------------------------------------
    def _admission_worker(self, now: float) -> "CloudActor | None":
        """The least-loaded active worker: where admission is judged."""
        workers = self.cluster.active_workers
        if not workers:
            return None
        return min(workers, key=lambda w: (w.pending_gpu_seconds(now), w.worker_id))

    def _idle_workers(self, now: float) -> "list[CloudActor]":
        """Idle active workers, fastest spec first (then lowest id)."""
        idle = [
            worker
            for worker in self.cluster.active_workers
            if worker.busy_until <= now + 1e-12 and not worker.queue
        ]
        idle.sort(key=lambda w: (-w.spec.speed, w.worker_id))
        return idle

    def _dispatch(self, now: float, scheduler: EventScheduler) -> None:
        """Flush policy-sized merged batches while workers are idle."""
        while self.pending:
            idle = self._idle_workers(now)
            if not idle:
                return  # a forced flush stays due until a worker frees up
            if not (self._due or self.policy.ready(self.pending, now)):
                return
            worker = idle[0]
            count = self.policy.take(self.pending, now, worker)
            count = max(1, min(len(self.pending), count))
            jobs = [self.pending.popleft() for _ in range(count)]
            for job in jobs:
                self.cluster._record_placement(job.camera_id, worker.worker_id)
            worker.accept_batch(jobs, now, scheduler)
            self.num_batches += 1
            self.num_batched_jobs += count
        self._due = False

    def _arm_timer(self, now: float, scheduler: EventScheduler) -> None:
        """(Re-)arm the BatchTimeout guarding the current forming batch.

        No timer is armed while a forced flush is pending (``_due``):
        the flush is already as forced as it can get, and re-arming a
        past deadline would spin the kernel at the current instant.
        """
        deadline = None
        if self.pending and not self._due:
            deadline = self.policy.deadline(self.pending, now)
        if self._timer is not None:
            if (
                deadline is not None
                and not self._timer.cancelled
                and abs(self._timer.time - deadline) <= 1e-12
            ):
                return  # already armed for exactly this deadline
            scheduler.cancel(self._timer)
            self._timer = None
        if deadline is None:
            return
        self._generation += 1
        self._timer = scheduler.schedule(
            BatchTimeout(time=max(now, deadline), generation=self._generation)
        )
