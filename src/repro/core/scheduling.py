"""Pluggable cloud GPU scheduling for multi-camera fleets.

PR 1 gave the fleet a single shared teacher GPU with a strictly-FIFO
labeling queue, and cloud-side fine-tuning (AMS) bypassed that queue
entirely.  This module turns the policy into a first-class,
swappable component: the :class:`~repro.core.actors.CloudActor` keeps
one *unified* queue of :class:`GpuJob` entries — labeling uploads and
AMS cloud-training sessions alike — and delegates three decisions to a
:class:`GpuScheduler`:

* **admission** (:meth:`GpuScheduler.admit`) — may this job join the
  queue at all, given the current backlog?
* **selection** (:meth:`GpuScheduler.select`) — when the GPU frees up,
  which queued jobs form the next busy period?
* **accounting** (:meth:`GpuScheduler.on_served`) — observe what was
  served so stateful policies (fair-share deficits, staleness clocks)
  can update themselves.

Four policies ship:

* :class:`FifoScheduler` — the PR 1 behaviour and the default: every
  queued upload is served as one merged multi-tenant teacher batch,
  and training jobs run immediately on spare capacity
  (``queue_training = False``), which is exactly what the fleet did
  before this module existed.  The regression test in
  ``tests/core/test_scheduling.py`` pins this equivalence.
* :class:`StalenessPriorityScheduler` — serve the camera whose student
  has gone longest without a label batch.  Under contention this
  bounds the *worst* per-camera model staleness instead of the mean.
* :class:`WeightedFairScheduler` — deficit-based weighted fair
  sharing of GPU-seconds: always serve the tenant with the smallest
  weight-normalised GPU consumption, so a heavy tenant (e.g. an AMS
  camera that also trains in the cloud) cannot starve light ones.
* :class:`AdmissionControlScheduler` — FIFO service order, but uploads
  whose projected queue delay exceeds a budget are rejected outright;
  the edge simply keeps its stale weights and sampling rate.  Trades
  label freshness *coverage* for a hard latency guarantee.
* :class:`DriftAwareScheduler` — φ-aware: serve the camera whose most
  recently *measured* scene-change signal φ (computed by the cloud from
  teacher labels, :func:`~repro.core.sampling.compute_phi` over the
  drift schedules of :mod:`repro.video.drift`) is largest, instead of
  the camera that has merely waited longest.  Under contention the GPU
  chases the cameras that are actually drifting.

With the sharded cloud (:class:`~repro.core.cluster.CloudCluster`) a
second policy axis appears *in front of* the per-GPU schedulers: a
:class:`PlacementPolicy` maps each arriving :class:`GpuJob` to one of N
GPU workers, generalising scheduling from "which queued jobs next?" to
(gpu, jobs) assignments — placement picks the gpu, that worker's
:class:`GpuScheduler` picks the jobs.  Five placements ship:
round-robin, least-loaded (by speed-weighted pending wall-seconds),
sticky camera-affinity hashing, power-of-two-choices, and
cheapest-feasible (cost-aware: the cheapest worker whose backlog still
fits a wait budget).

Workers are no longer interchangeable: every worker carries a
:class:`WorkerSpec` — a speed multiplier (mixed GPU generations), a
cost rate (dollars per provisioned GPU-second) and a ``preemptible``
flag marking spot capacity the provider may revoke mid-run
(:class:`~repro.runtime.events.RevocationEvent`).  Placement policies
see the spec through the :class:`GpuWorkerView` protocol, which is how
least-loaded weighs backlog by speed and cheapest-feasible reads the
cost rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Protocol, Sequence

import numpy as np

__all__ = [
    "LABELING",
    "TRAINING",
    "GpuJob",
    "GpuScheduler",
    "FifoScheduler",
    "StalenessPriorityScheduler",
    "WeightedFairScheduler",
    "AdmissionControlScheduler",
    "DriftAwareScheduler",
    "SCHEDULERS",
    "build_scheduler",
    "WorkerSpec",
    "WORKER_TIERS",
    "GpuWorkerView",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "LeastLoadedPlacement",
    "StickyPlacement",
    "PowerOfTwoPlacement",
    "CheapestFeasiblePlacement",
    "PLACEMENTS",
    "build_placement",
    "jain_fairness",
]

#: job kinds flowing through the unified GPU queue
LABELING = "labeling"
TRAINING = "training"


@dataclass
class GpuJob:
    """One unit of work waiting for (or being served by) the cloud GPU.

    Labeling jobs carry the uploaded ``batch`` plus the edge-reported
    α/λ signals; training jobs carry the ``pool`` of labeled frames to
    fine-tune on.  ``service_seconds`` is the job's GPU cost: exact for
    labeling, a step-count estimate for queued training jobs (no
    shipped policy reads it before service, but it is kept meaningful
    for cost-aware policies such as shortest-job-first), replaced by
    the measured cost when the busy period starts.
    """

    kind: str
    camera_id: int
    arrival: float
    service_seconds: float
    #: labeling payload
    batch: list = field(default_factory=list)
    alpha: float = 0.0
    lambda_usage: float = 0.0
    #: training payload (labeled frames pooled per tenant)
    pool: list = field(default_factory=list)
    service_start: float | None = None
    #: stashed :class:`~repro.core.cloud.CloudTrainingResult` for
    #: training jobs, filled in when the busy period starts
    result: Any = None
    #: GPU worker the job was placed on (cluster sessions tag this at
    #: enqueue time; single-GPU clouds leave it at worker 0)
    worker_id: int = 0
    #: when the busy period serving this job completed
    completion: float | None = None

    @property
    def wait_seconds(self) -> float:
        """Queue delay in seconds (0.0 until the job enters service)."""
        if self.service_start is None:
            return 0.0
        return self.service_start - self.arrival


class GpuScheduler:
    """Policy interface the :class:`~repro.core.actors.CloudActor` drains.

    Subclasses override :meth:`select` (mandatory) and optionally
    :meth:`admit` / :meth:`on_served` / :meth:`register_tenant`.  The
    contract for :meth:`select`: return a non-empty subset of ``queue``
    to serve as one GPU busy period; the caller removes the returned
    jobs from the queue and schedules their completion.
    """

    name: str = "base"
    #: whether AMS cloud-training jobs occupy the queued GPU.  ``False``
    #: reproduces the PR 1 semantics where training ran instantly on
    #: spare capacity and only labeling queued.
    queue_training: bool = True

    def __init__(self) -> None:
        self.weights: dict[int, float] = {}

    def register_tenant(self, camera_id: int, weight: float = 1.0) -> None:
        """Attach one camera with its relative GPU share (must be > 0)."""
        if weight <= 0:
            raise ValueError(f"tenant weight must be positive, got {weight}")
        self.weights[camera_id] = weight

    def reset(self) -> None:
        """Clear per-run state so one instance can serve successive fleets.

        :meth:`FleetSession.run` calls this before registering tenants;
        stateful subclasses must clear their clocks/deficits too (and
        call ``super().reset()``).
        """
        self.weights.clear()

    # -- policy hooks -------------------------------------------------------
    def admit(
        self,
        job: GpuJob,
        queue: Sequence[GpuJob],
        now: float,
        busy_until: float,
    ) -> bool:
        """Whether ``job`` may join the queue (default: always)."""
        return True

    def select(self, queue: Sequence[GpuJob], now: float) -> list[GpuJob]:
        """Pick the jobs forming the next busy period (GPU is idle)."""
        raise NotImplementedError

    def on_served(self, jobs: Sequence[GpuJob], completion: float) -> None:
        """Observe a finished busy period (for stateful policies)."""

    def on_labeled(self, camera_id: int, phi: float, now: float) -> None:
        """Observe the measured scene-change signal φ of a served batch.

        The cloud computes φ from the teacher's labels while serving a
        labeling job; φ-aware policies (:class:`DriftAwareScheduler`)
        use it to prioritise drifting cameras.  Default: ignore it.
        """

    # -- shared helpers -----------------------------------------------------
    @staticmethod
    def _jobs_by_camera(queue: Sequence[GpuJob]) -> dict[int, list[GpuJob]]:
        grouped: dict[int, list[GpuJob]] = {}
        for job in queue:
            grouped.setdefault(job.camera_id, []).append(job)
        return grouped


class FifoScheduler(GpuScheduler):
    """PR 1 behaviour (the default): merge the whole queue per busy period.

    Every queued upload is served as one multi-tenant teacher batch in
    arrival order, and cloud-training jobs do *not* occupy the queued
    GPU — they run the instant their label pool fills, exactly as
    before the scheduler subsystem existed.
    """

    name = "fifo"
    queue_training = False

    def select(self, queue: Sequence[GpuJob], now: float) -> list[GpuJob]:
        """Serve the whole queue as one merged batch, in arrival order."""
        return list(queue)


class StalenessPriorityScheduler(GpuScheduler):
    """Serve the camera whose student has drifted longest unserved.

    Staleness of a tenant is the time since its last label batch
    completed (session start for never-served tenants).  Each busy
    period serves *all* queued jobs of the single most-stale tenant,
    so under saturation the scheduler round-robins in
    longest-starved-first order and bounds worst-case staleness.
    """

    name = "staleness"

    def __init__(self) -> None:
        super().__init__()
        self._last_labeled: dict[int, float] = {}

    def reset(self) -> None:
        """Clear weights and per-tenant staleness clocks."""
        super().reset()
        self._last_labeled.clear()

    def staleness(self, camera_id: int, now: float) -> float:
        """Seconds since the tenant's last label batch completed."""
        return now - self._last_labeled.get(camera_id, 0.0)

    def select(self, queue: Sequence[GpuJob], now: float) -> list[GpuJob]:
        """Serve every queued job of the single most-stale tenant."""
        grouped = self._jobs_by_camera(queue)
        if not grouped:
            return []
        chosen = min(
            grouped,
            key=lambda cam: (-self.staleness(cam, now), grouped[cam][0].arrival, cam),
        )
        return list(grouped[chosen])

    def on_served(self, jobs: Sequence[GpuJob], completion: float) -> None:
        """Reset the staleness clock of tenants whose labels just landed."""
        for job in jobs:
            if job.kind == LABELING:
                self._last_labeled[job.camera_id] = completion


class WeightedFairScheduler(GpuScheduler):
    """Deficit-based weighted fair sharing of GPU-seconds.

    Each tenant accumulates the GPU-seconds it has consumed; the next
    busy period goes to the queued tenant with the smallest
    weight-normalised consumption.  With equal weights and sustained
    demand the per-tenant GPU-seconds spread stays bounded by one busy
    period's service time; unequal weights tilt capacity accordingly.
    """

    name = "weighted_fair"

    def __init__(self) -> None:
        super().__init__()
        self.consumed: dict[int, float] = {}

    def reset(self) -> None:
        """Clear weights and accumulated per-tenant GPU consumption."""
        super().reset()
        self.consumed.clear()

    def normalized_consumption(self, camera_id: int) -> float:
        """GPU-seconds consumed so far, divided by the tenant's weight."""
        return self.consumed.get(camera_id, 0.0) / self.weights.get(camera_id, 1.0)

    def select(self, queue: Sequence[GpuJob], now: float) -> list[GpuJob]:
        """Serve the queued tenant with the least weight-normalised usage."""
        grouped = self._jobs_by_camera(queue)
        if not grouped:
            return []
        chosen = min(
            grouped,
            key=lambda cam: (
                self.normalized_consumption(cam),
                grouped[cam][0].arrival,
                cam,
            ),
        )
        return list(grouped[chosen])

    def on_served(self, jobs: Sequence[GpuJob], completion: float) -> None:
        """Charge each served job's GPU-seconds to its tenant."""
        for job in jobs:
            self.consumed[job.camera_id] = (
                self.consumed.get(job.camera_id, 0.0) + job.service_seconds
            )


class AdmissionControlScheduler(GpuScheduler):
    """FIFO service with a hard queue-delay budget at the door.

    An upload is rejected when the projected wait — the residual busy
    time of the period running when it arrives — exceeds
    ``delay_budget_seconds``.  A rejected upload is simply dropped: no
    labels flow back, so the edge keeps its stale weights and sampling
    rate until a later upload is admitted.  Because admitted jobs are
    served whole-queue FIFO, the actual wait of every admitted job is
    bounded by the budget, which the policy tests assert.

    Training jobs are always admitted (rejecting them would silently
    discard labeled frames the tenant already paid bandwidth for).
    """

    name = "admission"

    def __init__(self, delay_budget_seconds: float = 0.25) -> None:
        super().__init__()
        if delay_budget_seconds <= 0:
            raise ValueError("delay_budget_seconds must be positive")
        self.delay_budget_seconds = delay_budget_seconds

    def admit(
        self,
        job: GpuJob,
        queue: Sequence[GpuJob],
        now: float,
        busy_until: float,
    ) -> bool:
        """Admit unless the projected wait would blow the delay budget."""
        if job.kind != LABELING:
            return True
        projected_wait = max(0.0, busy_until - now)
        return projected_wait <= self.delay_budget_seconds + 1e-9

    def select(self, queue: Sequence[GpuJob], now: float) -> list[GpuJob]:
        """Serve the whole (admitted) queue FIFO, as one merged batch."""
        return list(queue)


class DriftAwareScheduler(GpuScheduler):
    """Serve the camera whose *measured* drift signal φ is largest.

    :class:`StalenessPriorityScheduler` assumes every camera degrades
    at the same rate, so elapsed time since the last label batch is a
    proxy for model error.  It is a poor proxy for heterogeneous
    fleets: a stationary parking-lot camera that waited 10 s needs the
    GPU far less than a dawn-transition highway camera that waited 2 s.
    This policy keeps, per tenant, the most recent φ the cloud measured
    while labeling that tenant's frames (fed back through
    :meth:`GpuScheduler.on_labeled`) and each busy period serves all
    queued jobs of the tenant with the largest φ.

    Tenants that were never labeled have unknown drift and are served
    first (φ defaults to ``+inf``), so every camera gets measured
    before the measured signal starts to rule; ties fall back to
    staleness, then arrival order.
    """

    name = "drift"

    def __init__(self) -> None:
        super().__init__()
        self._phi: dict[int, float] = {}
        self._last_labeled: dict[int, float] = {}

    def reset(self) -> None:
        """Clear weights, measured φ signals and staleness clocks."""
        super().reset()
        self._phi.clear()
        self._last_labeled.clear()

    def phi(self, camera_id: int) -> float:
        """Last measured scene-change signal (``+inf`` = never measured)."""
        return self._phi.get(camera_id, float("inf"))

    def staleness(self, camera_id: int, now: float) -> float:
        """Seconds since the tenant was last labeled (the tie-break signal)."""
        return now - self._last_labeled.get(camera_id, 0.0)

    def on_labeled(self, camera_id: int, phi: float, now: float) -> None:
        """Record the measured φ (and labeled-at time) for the camera."""
        # both signals update here — not in on_served — because a
        # cluster broadcasts this hook to every shard: φ AND staleness
        # are properties of the camera, not of the worker that happened
        # to label it, so the tie-break clock must not fork either
        self._phi[camera_id] = phi
        self._last_labeled[camera_id] = now

    def select(self, queue: Sequence[GpuJob], now: float) -> list[GpuJob]:
        """Serve every queued job of the tenant with the largest measured φ."""
        grouped = self._jobs_by_camera(queue)
        if not grouped:
            return []
        chosen = min(
            grouped,
            key=lambda cam: (
                -self.phi(cam),
                -self.staleness(cam, now),
                grouped[cam][0].arrival,
                cam,
            ),
        )
        return list(grouped[chosen])


#: registry threaded through ``RegionSpec(scheduler=...)`` and
#: ``run_fleet(scheduler=...)``
SCHEDULERS: dict[str, type[GpuScheduler]] = {
    FifoScheduler.name: FifoScheduler,
    StalenessPriorityScheduler.name: StalenessPriorityScheduler,
    WeightedFairScheduler.name: WeightedFairScheduler,
    AdmissionControlScheduler.name: AdmissionControlScheduler,
    DriftAwareScheduler.name: DriftAwareScheduler,
}


def build_scheduler(
    scheduler: GpuScheduler | str | None, **kwargs: Any
) -> GpuScheduler:
    """Resolve a scheduler instance from a policy name (or pass one through)."""
    if scheduler is None:
        return FifoScheduler()
    if isinstance(scheduler, GpuScheduler):
        if kwargs:
            raise ValueError("keyword options only apply when building by name")
        return scheduler
    try:
        factory = SCHEDULERS[scheduler]
    except KeyError:
        known = ", ".join(sorted(SCHEDULERS))
        raise ValueError(f"unknown scheduler {scheduler!r} (known: {known})") from None
    return factory(**kwargs)


# ---------------------------------------------------------------------------
# worker specs: heterogeneous + preemptible (spot) GPU capacity
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerSpec:
    """Resource profile of one GPU worker: speed, cost rate, spot flag.

    ``speed`` is a service-rate multiplier relative to the nominal GPU
    the service model (:class:`~repro.core.cloud.CloudServer`) assumes:
    a worker with speed 2.0 finishes a busy period in half the nominal
    wall-clock time.  Per-tenant GPU-second accounting stays *nominal*
    (the work done), while busy/provisioned clocks are wall-clock —
    which is what the cost rate bills.  ``cost_per_gpu_second`` is
    charged for every provisioned wall-second, busy or idle, until the
    worker retires (a revoked spot worker stops charging the instant
    its capacity is pulled).  ``preemptible`` marks spot capacity a
    :class:`~repro.core.cluster.RevocationProcess` may revoke mid-run.

    ``batch_scaling`` is the batch-aware service exponent: a busy
    period labeling ``F`` frames in total costs
    ``nominal_seconds * F ** (batch_scaling - 1)`` GPU-seconds of
    labeling work (plus the one ``batch_overhead_seconds`` every busy
    period pays), so merged teacher batches are *sub-linearly* cheaper
    than the same frames served as many small periods.  1.0 (the
    default) is exactly the linear model every prior PR used — the
    adjustment is skipped entirely, keeping the golden pins bit-for-bit
    — while e.g. 0.7 models a teacher whose kernels amortise well over
    large batches.  Per-tenant GPU-second accounting stays nominal (the
    work represented); only the wall-clock busy time contracts.

    The defaults (speed 1.0, cost 1.0, on-demand, linear batching) make
    every worker of a spec-less cluster bit-for-bit the pre-spec
    worker, which is what the golden pin in
    ``tests/core/test_cluster.py`` holds the refactor to.
    """

    #: service-rate multiplier vs. the nominal service model (> 0)
    speed: float = 1.0
    #: dollars charged per provisioned wall-clock GPU-second (>= 0)
    cost_per_gpu_second: float = 1.0
    #: spot capacity: the provider may revoke this worker mid-run
    preemptible: bool = False
    #: batch-efficiency exponent in (0, 1]; 1.0 = linear (pre-batching)
    batch_scaling: float = 1.0

    def __post_init__(self) -> None:
        if not self.speed > 0:
            raise ValueError(f"worker speed must be positive, got {self.speed}")
        if self.cost_per_gpu_second < 0:
            raise ValueError(
                f"cost_per_gpu_second must be >= 0, got {self.cost_per_gpu_second}"
            )
        if not 0 < self.batch_scaling <= 1:
            raise ValueError(
                f"batch_scaling must be in (0, 1], got {self.batch_scaling}"
            )

    @property
    def tier(self) -> str:
        """Billing tier the cost accounting buckets this worker under."""
        return "spot" if self.preemptible else "on_demand"


#: reference tiers for demos/benchmarks: spot capacity at the typical
#: ~70% discount, plus a faster premium on-demand generation
WORKER_TIERS: dict[str, WorkerSpec] = {
    "on_demand": WorkerSpec(),
    "spot": WorkerSpec(cost_per_gpu_second=0.3, preemptible=True),
    "on_demand_fast": WorkerSpec(speed=2.0, cost_per_gpu_second=2.2),
    "spot_fast": WorkerSpec(speed=2.0, cost_per_gpu_second=0.66, preemptible=True),
}


# ---------------------------------------------------------------------------
# placement: which GPU worker gets each job (the sharded-cloud axis)
# ---------------------------------------------------------------------------
class GpuWorkerView(Protocol):
    """What a :class:`PlacementPolicy` may inspect about a GPU worker.

    :class:`~repro.core.actors.CloudActor` satisfies this; tests drive
    the policies with lightweight stubs.
    """

    #: the worker's resource profile (speed / cost rate / spot flag)
    spec: WorkerSpec

    def pending_gpu_seconds(self, now: float) -> float:
        """Pending wall-seconds: residual busy time plus queued service.

        Queued *nominal* service must be divided by the worker's
        :class:`WorkerSpec` speed, so placements compare the completion
        times workers would actually deliver, not raw GPU-seconds.
        """
        ...


class PlacementPolicy:
    """Maps each arriving :class:`GpuJob` to one of N GPU workers.

    Together with the per-worker :class:`GpuScheduler` this generalises
    ``select`` to (gpu, jobs) assignments: :meth:`place` fixes the gpu
    when the job arrives, the chosen worker's scheduler later picks the
    jobs forming each busy period.  Subclasses override :meth:`place`
    (and :meth:`reset` when stateful); the contract is a worker index
    in ``range(len(workers))``, deterministic for a given job/load
    history so cluster runs stay reproducible.
    """

    name: str = "base"

    def reset(self) -> None:
        """Clear per-run state so one instance can serve successive fleets."""

    def place(
        self, job: GpuJob, workers: Sequence[GpuWorkerView], now: float
    ) -> int:
        """Index of the worker that shall queue ``job`` (GPU assignment)."""
        raise NotImplementedError


class RoundRobinPlacement(PlacementPolicy):
    """Cycle through the workers in order, ignoring load.

    The degenerate 1-worker cluster under this placement routes every
    job to worker 0, which is how the sharded cloud reproduces the
    single-GPU fleet bit-for-bit (pinned by the golden regression test).
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        """Restart the cycle at worker 0."""
        self._next = 0

    def place(
        self, job: GpuJob, workers: Sequence[GpuWorkerView], now: float
    ) -> int:
        """Return the next worker in cyclic order."""
        index = self._next % len(workers)
        self._next += 1
        return index


class LeastLoadedPlacement(PlacementPolicy):
    """Send the job to the worker with the fewest pending wall-seconds.

    Load is the worker's residual busy time plus the service estimates
    of everything already queued, so a single long training job counts
    for what it costs, not as one queue slot.  Queued service is
    weighed by the worker's :class:`WorkerSpec` speed (a 2× GPU clears
    the same nominal backlog in half the wall time), so heterogeneous
    clusters balance *completion time*, not raw GPU-seconds.  Ties
    break on the lower worker index (deterministic).
    """

    name = "least_loaded"

    def place(
        self, job: GpuJob, workers: Sequence[GpuWorkerView], now: float
    ) -> int:
        """Return the worker with the fewest pending GPU-seconds."""
        return min(
            range(len(workers)),
            key=lambda index: (workers[index].pending_gpu_seconds(now), index),
        )


class StickyPlacement(PlacementPolicy):
    """Camera-affinity hashing: every job of a camera lands on one worker.

    The first job of a camera is hashed (Knuth multiplicative, stable
    across runs and processes — unlike :func:`hash`) onto a worker and
    the assignment is cached, so a camera never migrates while the
    worker set is stable.  Affinity keeps any per-tenant GPU state
    (e.g. a cloud-resident AMS student) on a single shard at the cost
    of ignoring load imbalance.

    When the cluster is resized online (elastic autoscaling), the
    cached assignments are keyed to the *identity* of the active worker
    set they were computed against — not merely its size, which a
    drain-then-grow sequence leaves unchanged while the set differs.
    The first placement after any resize deterministically **remaps**
    every camera by rehashing against the new set, so two runs with
    the same scaling timeline produce the same assignments (and the
    remaps are visible as recorded migrations).
    """

    name = "sticky"

    def __init__(self) -> None:
        self._assigned: dict[int, int] = {}
        #: identity signature of the worker set the cache was hashed for
        self._signature: tuple[int, ...] | None = None

    def reset(self) -> None:
        """Forget every cached camera-to-worker assignment."""
        self._assigned.clear()
        self._signature = None

    @staticmethod
    def _stable_hash(camera_id: int) -> int:
        # keep the HIGH half of the 32-bit product: the multiplier is
        # ≡ 1 (mod 16), so the low bits of camera_id * m are just
        # camera_id's own low bits and "% num_workers" would degenerate
        # to camera_id % num_workers for power-of-two clusters
        return ((camera_id * 2654435761) & 0xFFFFFFFF) >> 16

    def place(
        self, job: GpuJob, workers: Sequence[GpuWorkerView], now: float
    ) -> int:
        """Hash the camera onto a worker; rehash if the worker set changed."""
        signature = tuple(id(worker) for worker in workers)
        if signature != self._signature:
            # the active set changed (resize): every cached index may now
            # point at a different physical worker, so drop them all
            self._signature = signature
            self._assigned.clear()
        camera_id = job.camera_id
        if camera_id not in self._assigned:
            self._assigned[camera_id] = self._stable_hash(camera_id) % len(workers)
        return self._assigned[camera_id]


class PowerOfTwoPlacement(PlacementPolicy):
    """Power-of-two-choices: sample two workers, pick the less loaded.

    The classic load-balancing result — two random choices already
    collapse the maximum queue length exponentially compared to one —
    at O(1) cost per job instead of least-loaded's O(N) scan.  The
    sampling RNG is seeded so cluster runs stay deterministic.
    """

    name = "power_of_two"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        """Re-seed the sampling RNG so successive runs are identical."""
        self._rng = np.random.default_rng(self.seed)

    def place(
        self, job: GpuJob, workers: Sequence[GpuWorkerView], now: float
    ) -> int:
        """Sample two workers, return the less loaded of the pair."""
        if len(workers) == 1:
            return 0
        first, second = (
            int(i) for i in self._rng.choice(len(workers), size=2, replace=False)
        )
        if workers[second].pending_gpu_seconds(now) < workers[first].pending_gpu_seconds(now):
            return second
        return first


class CheapestFeasiblePlacement(PlacementPolicy):
    """Cost-aware placement: the cheapest worker whose backlog still fits.

    A worker is *feasible* for a job when its pending wall-seconds
    (residual busy time plus speed-weighted queued service) do not
    exceed ``max_pending_seconds`` — i.e. the job would start within
    the wait budget.  Among feasible workers the one with the lowest
    :class:`WorkerSpec` cost rate wins (ties: less loaded, then lower
    index), which steers steady-state traffic onto cheap spot capacity
    while latency headroom lasts.  When *no* worker is feasible the
    policy degrades to least-loaded — under overload, spending more on
    an equally-backlogged premium worker buys nothing.
    """

    name = "cheapest_feasible"

    def __init__(self, max_pending_seconds: float = 0.5) -> None:
        if max_pending_seconds <= 0:
            raise ValueError(
                f"max_pending_seconds must be positive, got {max_pending_seconds}"
            )
        self.max_pending_seconds = max_pending_seconds

    def place(
        self, job: GpuJob, workers: Sequence[GpuWorkerView], now: float
    ) -> int:
        """Cheapest worker inside the wait budget; least-loaded fallback."""
        pending = [worker.pending_gpu_seconds(now) for worker in workers]
        feasible = [
            index
            for index in range(len(workers))
            if pending[index] <= self.max_pending_seconds + 1e-9
        ]
        if feasible:
            return min(
                feasible,
                key=lambda index: (
                    workers[index].spec.cost_per_gpu_second,
                    pending[index],
                    index,
                ),
            )
        return min(range(len(workers)), key=lambda index: (pending[index], index))


#: registry threaded through ``CloudCluster(placement=...)``,
#: ``RegionSpec(placement=...)`` and ``run_fleet(placement=...)``
PLACEMENTS: dict[str, type[PlacementPolicy]] = {
    RoundRobinPlacement.name: RoundRobinPlacement,
    LeastLoadedPlacement.name: LeastLoadedPlacement,
    StickyPlacement.name: StickyPlacement,
    PowerOfTwoPlacement.name: PowerOfTwoPlacement,
    CheapestFeasiblePlacement.name: CheapestFeasiblePlacement,
}


def build_placement(
    placement: PlacementPolicy | str | None, **kwargs: Any
) -> PlacementPolicy:
    """Resolve a placement instance from a policy name (or pass one through)."""
    if placement is None:
        return RoundRobinPlacement()
    if isinstance(placement, PlacementPolicy):
        if kwargs:
            raise ValueError("keyword options only apply when building by name")
        return placement
    try:
        factory = PLACEMENTS[placement]
    except KeyError:
        known = ", ".join(sorted(PLACEMENTS))
        raise ValueError(f"unknown placement {placement!r} (known: {known})") from None
    return factory(**kwargs)


def jain_fairness(values: Iterable[float]) -> float:
    """Jain's fairness index over per-tenant allocations (1.0 = equal)."""
    vals = [float(v) for v in values]
    total = sum(vals)
    if not vals or total <= 0:
        return 1.0
    return total * total / (len(vals) * sum(v * v for v in vals))
