"""Sharded multi-GPU cloud: N GPU workers behind one placement policy.

The PR 1/PR 2 fleet served every camera from a single shared teacher
GPU (:class:`~repro.core.actors.CloudActor`).  This module scales that
labeling tier out: a :class:`CloudCluster` runs ``num_gpus`` cloud
actors as **GPU workers** — each with its own job queue, busy clock and
:class:`~repro.core.scheduling.GpuScheduler` — behind one pluggable
:class:`~repro.core.scheduling.PlacementPolicy`.  Scheduling thereby
generalises to (gpu, jobs) assignments: placement fixes the *gpu* when
a job arrives, the chosen worker's scheduler later picks the *jobs*
that form each of its busy periods, and completions carry the worker's
tag (:class:`~repro.runtime.events.LabelingDone.worker_id`) so the
event kernel routes them back to the right shard.

What is shared and what is not:

* **shared** — the :class:`~repro.core.cloud.CloudServer` (one teacher
  model; a real deployment replicates read-only weights per GPU), the
  tenant registry (camera schedules, rate controllers, AMS label pools
  and cloud-resident students) and the per-tenant GPU-seconds
  accounting.  Sharing the registry is what lets a camera's jobs land
  on *different* workers without forking its training state.
* **per worker** — the job queue, the busy clock, the scheduler
  instance (stateful policies must not couple shards) and the served /
  rejected job logs, from which the cluster reports per-GPU utilisation
  and load imbalance.

A 1-worker cluster under round-robin placement routes every job to
worker 0 through exactly the code paths of the single-GPU cloud, which
is why it reproduces the PR 2 FIFO fleet metrics bit-for-bit (pinned by
``tests/core/test_cluster.py``).

The cluster can also be resized **online** (the elastic-autoscaling
subsystem, :mod:`repro.core.autoscaling`, drives this from a queue-delay
signal): :meth:`add_worker` brings up a new GPU worker mid-run — it
inherits the shared tenant registry and accounting, gets a fresh
scheduler instance pre-seeded with tenant weights and the last measured
per-camera φ, and starts taking placements immediately —
while :meth:`remove_worker` *drains* a worker: it stops accepting
placements at once, its queued jobs are handed off to the surviving
workers through the placement policy (without re-running admission —
those jobs already paid for their uplink), and its in-flight busy
period finishes normally before the worker retires.  Worker ids are
never reused or renumbered, so in-flight
:class:`~repro.runtime.events.LabelingDone` completions always route
back to the worker that started them.  Every resize is appended to a
provision log from which :meth:`provisioned_gpu_seconds` integrates the
capacity the fleet actually paid for (GPU-seconds), the currency the
autoscaling benchmark compares against a fixed-size cluster.

Workers need not be identical: each carries a
:class:`~repro.core.scheduling.WorkerSpec` (speed multiplier, cost
rate, ``preemptible`` flag), and a cluster may attach a
:class:`RevocationProcess` — a seeded stochastic model (exponential
spot uptimes) or a scripted trace — that fires
:class:`~repro.runtime.events.RevocationEvent`\\ s killing spot workers
mid-run.  A revocation is an *involuntary* scale-in:
:meth:`on_revocation` retires the worker at the revocation instant
(capacity stops charging immediately), kills its in-flight busy period
(the interrupted jobs are checkpoint-resumed or re-labeled from
scratch, per ``revocation_mode``), hands its queue off through the
existing drain path, and — when the fleet would otherwise be left with
no active worker — provisions an emergency on-demand replacement.
:meth:`dollar_cost` integrates each worker's cost rate over its
provisioned lifetime, the currency the spot-preemption benchmark
trades against queue delay.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.actors import CloudActor, InstantTransport, SharedLinkTransport
from repro.core.batching import BatchPolicy, FleetBatcher, build_batcher
from repro.core.cloud import CloudServer
from repro.core.faults import CrashRecord, FaultPlan
from repro.core.labeling import LabeledFrame
from repro.core.sampling import SamplingRateController
from repro.core.scheduling import (
    GpuJob,
    GpuScheduler,
    PlacementPolicy,
    WorkerSpec,
    build_placement,
    build_scheduler,
)
from repro.runtime.events import (
    BatchTimeout,
    EventScheduler,
    LabelingDone,
    RevocationEvent,
    UploadComplete,
    WorkerCrashEvent,
)
from repro.video.drift import DriftSchedule

__all__ = [
    "CloudCluster",
    "RevocationProcess",
    "RevocationRecord",
    "REVOCATION_MODES",
]

#: how a revoked worker's in-flight jobs recover: resume from a
#: checkpoint (remaining service only) or redo the work from scratch
REVOCATION_MODES = ("relabel", "checkpoint")


class RevocationProcess:
    """When does the provider pull each spot worker's capacity?

    Two mutually exclusive forms:

    * **seeded stochastic** (``mean_uptime_seconds``): every
      preemptible worker draws an exponential uptime from a seeded RNG
      the moment it is provisioned (bind order, then add order — fully
      deterministic for a given cluster history), and a
      :class:`~repro.runtime.events.RevocationEvent` is scheduled at
      provision time + uptime.  On-demand workers never draw.
    * **scripted trace** (``trace``): explicit ``(time, worker_id)``
      pairs, scheduled up-front — the reproducible-scenario form the
      revocation edge-case tests use.

    One instance serves one run (:meth:`reset` re-seeds the RNG).
    """

    def __init__(
        self,
        mean_uptime_seconds: float | None = None,
        seed: int = 0,
        trace: Sequence[tuple[float, int]] | None = None,
    ) -> None:
        if (mean_uptime_seconds is None) == (trace is None):
            raise ValueError(
                "pass exactly one of mean_uptime_seconds (seeded draws) or "
                "trace (scripted revocations)"
            )
        if mean_uptime_seconds is not None and mean_uptime_seconds <= 0:
            raise ValueError(
                f"mean_uptime_seconds must be positive, got {mean_uptime_seconds}"
            )
        self.mean_uptime_seconds = mean_uptime_seconds
        self.seed = seed
        self.trace = None if trace is None else [
            (float(time), int(worker_id)) for time, worker_id in trace
        ]
        if self.trace is not None:
            for time, worker_id in self.trace:
                if time < 0:
                    raise ValueError(f"trace times must be >= 0, got {time}")
                if worker_id < 0:
                    raise ValueError(
                        f"trace worker ids must be >= 0, got {worker_id}"
                    )
        self._rng = np.random.default_rng(seed)

    @property
    def scripted(self) -> bool:
        """Whether this process replays a fixed trace (no random draws)."""
        return self.trace is not None

    def reset(self) -> None:
        """Re-seed so successive runs draw identical uptimes."""
        self._rng = np.random.default_rng(self.seed)

    def draw_uptime(self) -> float:
        """Sample one spot worker's uptime (seconds until revocation)."""
        if self.scripted:
            raise RuntimeError("a scripted trace does not draw uptimes")
        return float(self._rng.exponential(self.mean_uptime_seconds))


@dataclass(frozen=True)
class RevocationRecord:
    """One spot revocation that actually hit: what was lost and recovered."""

    time: float
    worker_id: int
    #: recovery mode applied to the in-flight jobs
    mode: str
    #: jobs killed mid-busy-period (checkpoint-resumed or relabeled)
    jobs_in_flight: int
    #: queued jobs handed off untouched through the drain path
    jobs_queued: int
    #: wall-clock GPU work thrown away (0.0 under checkpoint resume)
    wasted_gpu_seconds: float
    #: id of the emergency on-demand worker provisioned because the
    #: revocation would have left no active capacity (None otherwise)
    emergency_worker_id: int | None = None

    @property
    def reason(self) -> str:
        """Human-readable one-liner for timelines and demo output."""
        tail = (
            f", emergency worker {self.emergency_worker_id} provisioned"
            if self.emergency_worker_id is not None
            else ""
        )
        return (
            f"t={self.time:7.2f}s revoked   worker {self.worker_id} "
            f"({self.jobs_in_flight} in-flight -> {self.mode}, "
            f"{self.jobs_queued} queued handed off, "
            f"{self.wasted_gpu_seconds:.3f}s wasted{tail})"
        )

#: how a cluster accepts its per-worker schedulers: a policy name, a
#: single instance (1-GPU clusters only), a zero-arg factory, or None
SchedulerSpec = GpuScheduler | str | Callable[[], GpuScheduler] | None


class CloudCluster:
    """N GPU workers (cloud actors) behind one placement policy.

    Construct with the *policies* (``num_gpus``, ``placement``,
    ``scheduler``), then :meth:`bind` once to the runtime pieces (the
    shared :class:`CloudServer` and the fleet transport) — binding is
    what creates the worker actors, so a cluster, like a
    :class:`~repro.core.fleet.FleetSession`, serves exactly one run.

    ``scheduler`` accepts a registered policy name (each worker gets
    its own instance), a zero-arg factory (called once per worker), or
    — for 1-GPU clusters only — a ready :class:`GpuScheduler` instance;
    sharing one stateful instance across workers would couple their
    deficit/staleness clocks, so multi-GPU clusters reject it.

    ``worker_specs`` describes the hardware mix: one
    :class:`~repro.core.scheduling.WorkerSpec` applied to every worker
    (also the template for autoscale scale-outs), or a sequence with
    one spec per worker (``num_gpus`` may then be omitted — the
    sequence length fixes the cluster size).  ``revocations`` attaches
    the spot-revocation process and ``revocation_mode`` picks how
    jobs killed mid-busy-period recover (``"relabel"`` from scratch —
    the default — or ``"checkpoint"`` resume).
    """

    def __init__(
        self,
        num_gpus: int = 1,
        placement: PlacementPolicy | str | None = None,
        scheduler: SchedulerSpec = None,
        worker_specs: WorkerSpec | Sequence[WorkerSpec] | None = None,
        revocations: RevocationProcess | None = None,
        revocation_mode: str = "relabel",
        batching: "FleetBatcher | BatchPolicy | str | None" = None,
    ) -> None:
        if num_gpus < 1:
            raise ValueError(f"a cluster needs at least one GPU, got {num_gpus}")
        if revocation_mode not in REVOCATION_MODES:
            raise ValueError(
                f"revocation_mode must be one of {REVOCATION_MODES}, "
                f"got {revocation_mode!r}"
            )
        #: cluster-wide forming-batch layer (None = per-worker batching,
        #: bit-for-bit the pre-batching serving path)
        self.batcher = build_batcher(batching)
        self.worker_specs, self._default_spec = self._resolve_specs(
            worker_specs, num_gpus
        )
        num_gpus = len(self.worker_specs)
        self.num_gpus = num_gpus
        self.placement = build_placement(placement)
        self.revocations = revocations
        self.revocation_mode = revocation_mode
        #: revocations that actually hit, in time order
        self.revocation_log: list[RevocationRecord] = []
        #: wall-clock GPU work thrown away by relabel-mode revocations
        self.wasted_gpu_seconds = 0.0
        #: in-flight jobs recovered per mode, across all revocations
        self.num_relabeled_jobs = 0
        self.num_checkpoint_resumed_jobs = 0
        #: injected worker crashes that hit, in time order
        self.crash_log: list[CrashRecord] = []
        #: jobs killed by crashes and re-placed (in-flight, either mode)
        self.num_crash_recovered_jobs = 0
        #: wall-clock GPU work crashes threw away (relabel recovery only)
        self.crash_wasted_gpu_seconds = 0.0
        #: wall-clock GPU work a whole-region outage threw away (kept
        #: separate from the crash/revocation counters so the fault
        #: invariants tying those to their logs stay exact)
        self.outage_wasted_gpu_seconds = 0.0
        #: region outages that tore this cluster down (federation)
        self.num_outages = 0
        #: the fault plan armed by :meth:`arm_faults` (None = no faults)
        self._fault_plan: FaultPlan | None = None
        #: the event scheduler of the running fleet (set by
        #: :meth:`start_revocations`; revocation draws need it)
        self._event_scheduler: EventScheduler | None = None
        self._revocation_horizon = float("inf")
        #: revocation events this cluster scheduled, keyed by ``id()``:
        #: a federation routes each one back here by identity, so the
        #: event payload needs no region tag
        self.armed_revocations: dict[int, RevocationEvent] = {}
        #: how new workers get their scheduler (kept for online resizes)
        self._scheduler_spec = scheduler
        self.schedulers = self._resolve_schedulers(scheduler, num_gpus)
        self.workers: list[CloudActor] = []
        #: shared across workers (see module docstring)
        self.tenants: dict = {}
        self.gpu_seconds_by_camera: dict[int, float] = {}
        self._last_worker: dict[int, int] = {}
        self._migrations: dict[int, int] = {}
        #: capacity deltas as (time, +/-workers); integrated by
        #: :meth:`provisioned_gpu_seconds`
        self._provision_log: list[tuple[float, int]] = []
        #: last measured (φ, time) per camera, replayed into the
        #: scheduler of a worker added mid-run so no shard ever treats
        #: an already-measured camera as unmeasured drift
        self._last_phi: dict[int, tuple[float, float]] = {}

    @staticmethod
    def _resolve_specs(
        worker_specs: WorkerSpec | Sequence[WorkerSpec] | None, num_gpus: int
    ) -> tuple[list[WorkerSpec], WorkerSpec]:
        """Per-worker specs plus the template for workers added later."""
        if worker_specs is None:
            return [WorkerSpec() for _ in range(num_gpus)], WorkerSpec()
        if isinstance(worker_specs, WorkerSpec):
            return [worker_specs] * num_gpus, worker_specs
        specs = list(worker_specs)
        if not specs or any(not isinstance(spec, WorkerSpec) for spec in specs):
            raise ValueError(
                "worker_specs must be a WorkerSpec or a non-empty sequence "
                f"of them, got {worker_specs!r}"
            )
        if num_gpus not in (1, len(specs)):
            raise ValueError(
                f"worker_specs lists {len(specs)} workers but num_gpus is "
                f"{num_gpus}; list one spec per worker (or omit num_gpus)"
            )
        # scale-outs on a mixed cluster default to plain on-demand: the
        # list pins the *starting* mix, not a growth recipe
        return specs, WorkerSpec()

    @staticmethod
    def _resolve_schedulers(
        scheduler: SchedulerSpec, num_gpus: int
    ) -> list[GpuScheduler]:
        if isinstance(scheduler, GpuScheduler):
            if num_gpus > 1:
                raise ValueError(
                    "a single GpuScheduler instance cannot be shared across "
                    f"{num_gpus} GPU workers (stateful policies would couple "
                    "shards); pass a policy name or a zero-arg factory instead"
                )
            return [scheduler]
        if scheduler is None or isinstance(scheduler, str):
            return [build_scheduler(scheduler) for _ in range(num_gpus)]
        if callable(scheduler):
            built = [scheduler() for _ in range(num_gpus)]
            bad = [s for s in built if not isinstance(s, GpuScheduler)]
            if bad:
                raise ValueError(
                    f"scheduler factory must produce GpuScheduler instances, got {bad[0]!r}"
                )
            if len({id(s) for s in built}) != num_gpus:
                raise ValueError(
                    "scheduler factory returned the same instance for several "
                    "workers; each GPU needs its own scheduler state"
                )
            return built
        raise ValueError(
            f"scheduler must be a name, instance or factory, got {scheduler!r}"
        )

    # -- identity ------------------------------------------------------------
    @property
    def scheduler_name(self) -> str:
        """Registered name of the per-worker GPU scheduling policy."""
        return self.schedulers[0].name

    @property
    def placement_name(self) -> str:
        """Registered name of the placement policy in front of the workers."""
        return self.placement.name

    @property
    def batching_name(self) -> str:
        """Registered name of the cluster-wide batch policy (``"none"`` = off)."""
        return "none" if self.batcher is None else self.batcher.policy.name

    @property
    def active_workers(self) -> list[CloudActor]:
        """Workers currently accepting placements (excludes draining ones)."""
        return [worker for worker in self.workers if not worker.draining]

    @property
    def num_active(self) -> int:
        """How many GPU workers currently accept placements."""
        return len(self.active_workers)

    @property
    def can_grow(self) -> bool:
        """Whether :meth:`add_worker` can mint schedulers for new workers.

        False only for clusters built around a single ready
        :class:`GpuScheduler` instance — there is no recipe to build
        another one, so online scale-out is impossible.
        """
        return not isinstance(self._scheduler_spec, GpuScheduler)

    def num_charging(self, now: float) -> int:
        """Workers currently charging provisioned capacity at ``now``.

        Active workers, plus draining ones that are still finishing —
        an in-flight busy period, or (no-drain removals) a kept queue.
        This is the count the autoscaler bounds with ``max_gpus``: a
        drained worker's tail is still paid for, so replacing it early
        would exceed the spend bound.
        """
        return self.num_active + sum(
            1
            for worker in self.workers
            if worker.draining and (worker.busy_until > now + 1e-12 or worker.queue)
        )

    @property
    def queue_training(self) -> bool:
        """Whether AMS fine-tuning occupies the queued GPUs (policy trait)."""
        return self.schedulers[0].queue_training

    # -- wiring --------------------------------------------------------------
    def bind(
        self,
        cloud: CloudServer,
        transport: InstantTransport | SharedLinkTransport,
        batch_overhead_seconds: float = 0.02,
    ) -> "CloudCluster":
        """Create the GPU workers around the shared server (once per run)."""
        if self.workers:
            raise RuntimeError(
                "CloudCluster is already bound (its workers accumulate queue "
                "state); construct a new cluster per fleet run"
            )
        self.cloud = cloud
        self.transport = transport
        self.batch_overhead_seconds = batch_overhead_seconds
        self.placement.reset()
        self._provision_log.append((0.0, self.num_gpus))
        for worker_id, scheduler in enumerate(self.schedulers):
            scheduler.reset()
            self.workers.append(
                CloudActor(
                    cloud,
                    transport,
                    batch_overhead_seconds=batch_overhead_seconds,
                    scheduler=scheduler,
                    worker_id=worker_id,
                    tenants=self.tenants,
                    gpu_seconds_by_camera=self.gpu_seconds_by_camera,
                    # φ is a property of the camera, not of the worker
                    # that happened to label it: broadcast every
                    # measurement so no shard's φ-aware scheduler treats
                    # an already-measured camera as unmeasured drift
                    label_observer=self._label_observer(),
                    spec=self.worker_specs[worker_id],
                )
            )
        if self.batcher is not None:
            self.batcher.bind(self)
        return self

    def start_revocations(
        self, scheduler: EventScheduler, horizon: float = float("inf")
    ) -> None:
        """Arm the revocation process against the running fleet's kernel.

        Called once per run (after :meth:`bind`): scripted traces are
        scheduled verbatim, and every already-provisioned preemptible
        worker draws its seeded uptime.  Workers added later
        (autoscaling) draw at :meth:`add_worker` time.  Draws landing
        beyond ``horizon`` are dropped — the capacity outlives the
        episode, so the revocation can never be observed.  No-op
        without a process: clusters that do not opt in schedule zero
        revocation events.
        """
        self._event_scheduler = scheduler
        self._revocation_horizon = horizon
        if self.revocations is None:
            return
        self.revocations.reset()
        if self.revocations.scripted:
            for time, worker_id in self.revocations.trace:
                if time <= horizon + 1e-9:
                    self._schedule_revocation(time, worker_id)
            return
        for worker in self.workers:
            self._arm_revocation(worker, now=0.0)

    def _arm_revocation(self, worker: CloudActor, now: float) -> None:
        """Draw and schedule one spot worker's revocation (seeded mode)."""
        if (
            self.revocations is None
            or self.revocations.scripted
            or self._event_scheduler is None
            or not worker.spec.preemptible
        ):
            return
        fires_at = now + self.revocations.draw_uptime()
        if fires_at <= self._revocation_horizon + 1e-9:
            self._schedule_revocation(fires_at, worker.worker_id)

    def _schedule_revocation(self, time: float, worker_id: int) -> None:
        event = RevocationEvent(time=time, worker_id=worker_id)
        self.armed_revocations[id(event)] = event
        self._event_scheduler.schedule(event)

    def _label_observer(self) -> Callable[[int, float, float], None]:
        """:meth:`_broadcast_label` for a worker, holding this cluster weakly.

        The cluster owns its workers; a bound method in a worker would
        refer back to its owner, and a finished run could then only be
        freed by the cyclic collector.
        """
        broadcast = weakref.WeakMethod(self._broadcast_label)
        return lambda camera_id, phi, now: broadcast()(camera_id, phi, now)

    def _broadcast_label(self, camera_id: int, phi: float, now: float) -> None:
        self._last_phi[camera_id] = (phi, now)
        for scheduler in self.schedulers:
            scheduler.on_labeled(camera_id, phi, now)
        if self.batcher is not None:
            self.batcher.on_labeled(camera_id, phi, now)

    def register_camera(
        self,
        actor,
        schedule: DriftSchedule,
        controller: SamplingRateController,
        seed: int = 0,
        replay_seed: tuple | None = None,
        weight: float = 1.0,
    ) -> None:
        """Attach one camera to every worker (shared tenant, per-GPU weights)."""
        self.workers[0].register_camera(
            actor,
            schedule=schedule,
            controller=controller,
            seed=seed,
            replay_seed=replay_seed,
            weight=weight,
        )
        for worker in self.workers[1:]:
            worker.scheduler.register_tenant(actor.camera_id, weight=weight)

    # -- elastic resize (online autoscaling) ----------------------------------
    def _new_scheduler(self) -> GpuScheduler:
        """Build one more per-worker scheduler from the construction spec."""
        spec = self._scheduler_spec
        if isinstance(spec, GpuScheduler):
            raise ValueError(
                "cannot grow a cluster built around a single GpuScheduler "
                "instance; construct it with a policy name or a zero-arg "
                "factory so new workers can get their own scheduler state"
            )
        if spec is None or isinstance(spec, str):
            return build_scheduler(spec)
        built = spec()
        if not isinstance(built, GpuScheduler) or any(
            built is existing for existing in self.schedulers
        ):
            raise ValueError(
                "scheduler factory must produce a fresh GpuScheduler "
                f"instance per worker, got {built!r}"
            )
        return built

    def add_worker(
        self, now: float = 0.0, spec: WorkerSpec | None = None
    ) -> CloudActor:
        """Bring one more GPU worker online mid-run (scale-out).

        The worker shares the tenant registry and per-tenant accounting,
        gets a fresh scheduler pre-registered with every tenant's weight
        and replayed with the last measured φ per camera, and starts
        taking placements from the next arriving job.  ``spec`` picks
        its hardware profile (default: the cluster's template spec — a
        spot-preferring autoscaler passes its own); a preemptible spec
        immediately draws its seeded revocation uptime.  Returns the
        new worker (its ``worker_id`` is the next never-reused index).
        """
        if not self.workers:
            raise RuntimeError("bind the cluster before resizing it")
        scheduler = self._new_scheduler()
        scheduler.reset()
        for camera_id, weight in self.schedulers[0].weights.items():
            scheduler.register_tenant(camera_id, weight=weight)
        for camera_id, (phi, measured_at) in self._last_phi.items():
            scheduler.on_labeled(camera_id, phi, measured_at)
        spec = spec or self._default_spec
        worker = CloudActor(
            self.cloud,
            self.transport,
            batch_overhead_seconds=self.batch_overhead_seconds,
            scheduler=scheduler,
            worker_id=len(self.workers),
            tenants=self.tenants,
            gpu_seconds_by_camera=self.gpu_seconds_by_camera,
            label_observer=self._label_observer(),
            spec=spec,
        )
        worker.provisioned_since = now
        self.workers.append(worker)
        self.schedulers.append(scheduler)
        self.worker_specs.append(spec)
        self._provision_log.append((now, +1))
        self._arm_revocation(worker, now)
        if self.batcher is not None and self._event_scheduler is not None:
            # the new worker starts idle: offer it the forming batch
            self.batcher.on_worker_idle(now, self._event_scheduler)
        return worker

    def remove_worker(
        self,
        worker_id: int | None = None,
        *,
        now: float = 0.0,
        scheduler: EventScheduler | None = None,
        drain: bool = True,
    ) -> CloudActor:
        """Take one GPU worker offline (scale-in), draining it by default.

        The worker stops accepting placements immediately.  With
        ``drain`` (the default) its *queued* jobs are handed off to the
        surviving workers through the placement policy — admission is
        not re-run, because a handed-off upload already paid its uplink
        and dropping it would silently strand the edge on stale weights
        — while its in-flight busy period finishes normally (the
        completion event still routes back via the worker's never-reused
        id).  Without ``drain`` the worker keeps its queue and simply
        retires once it runs dry; its provision-log retirement stamp is
        then an *estimate* (``now`` + pending GPU-seconds), a lower
        bound that excludes the per-batch overhead of busy periods it
        has not started yet.  ``worker_id`` picks the victim; by
        default the active worker with the least pending GPU-seconds
        (ties: the newest) is drained.  Refuses to remove the last
        active worker.  Returns the drained worker.
        """
        active = self.active_workers
        if len(active) <= 1:
            raise ValueError(
                "cannot remove the last active GPU worker; a cluster needs "
                "at least one"
            )
        if worker_id is None:
            victim = min(
                active,
                key=lambda worker: (worker.pending_gpu_seconds(now), -worker.worker_id),
            )
        else:
            if not 0 <= worker_id < len(self.workers):
                raise ValueError(
                    f"no worker {worker_id} in a cluster of {len(self.workers)}"
                )
            victim = self.workers[worker_id]
            if victim.draining:
                raise ValueError(f"worker {worker_id} is already draining")
        # validate BEFORE mutating: raising after marking the victim
        # draining would strand it half-removed (no placements, yet
        # charging provisioned capacity forever, and unremovable)
        if drain and victim.queue and scheduler is None:
            raise ValueError("draining a worker's queue needs the event scheduler")
        victim.draining = True
        if drain and victim.queue:
            handoff, victim.queue = list(victim.queue), deque()
            for job in handoff:
                self._place_handoff(job, now, scheduler)
        # provisioned until its in-flight busy period ends (with drain the
        # queue is gone; without, an estimated run-dry time: the kept
        # backlog's service, excluding overheads of unstarted periods)
        retired_at = (
            max(now, victim.busy_until)
            if drain
            else now + victim.pending_gpu_seconds(now)
        )
        victim.retired_at = retired_at
        self._provision_log.append((retired_at, -1))
        return victim

    def _place_handoff(
        self, job: GpuJob, now: float, scheduler: EventScheduler
    ) -> None:
        worker = self._active_at(self.placement.place(job, self.active_workers, now))
        self._record_placement(job.camera_id, worker.worker_id)
        worker.accept_handoff(job, now, scheduler)

    # -- provisioned capacity -------------------------------------------------
    def provisioned_gpu_seconds(self, horizon: float) -> float:
        """Integrate provisioned capacity over [0, horizon], in GPU-seconds.

        A fixed cluster yields exactly ``num_gpus * horizon``; every
        online resize bends the step function (a draining worker counts
        until its in-flight busy period ends — capacity the operator is
        still paying for).
        """
        total = 0.0
        count = 0
        previous = 0.0
        for time, delta in sorted(self._provision_log):
            clipped = min(max(time, 0.0), horizon)
            total += count * (clipped - previous)
            previous = clipped
            count += delta
        total += count * (max(horizon, previous) - previous)
        return total

    def provision_timeline(self) -> list[tuple[float, int]]:
        """Cumulative (time, provisioned workers) steps, time-sorted."""
        timeline: list[tuple[float, int]] = []
        count = 0
        for time, delta in sorted(self._provision_log):
            count += delta
            timeline.append((time, count))
        return timeline

    def worker_provisioned_seconds(self, worker: CloudActor, horizon: float) -> float:
        """Wall-seconds one worker charged for over [0, horizon]."""
        end = horizon if worker.retired_at is None else min(worker.retired_at, horizon)
        return max(0.0, end - max(0.0, worker.provisioned_since))

    def dollar_cost(self, horizon: float) -> float:
        """What the run's capacity cost: Σ cost rate × provisioned seconds.

        Every worker bills its :class:`~repro.core.scheduling.WorkerSpec`
        cost rate for each provisioned wall-second — busy or idle —
        from when it came online until it retired (drain tail included;
        a revoked spot worker stops billing at the revocation instant).
        With the default spec (rate 1.0) this equals
        :meth:`provisioned_gpu_seconds`, which is what the golden pin
        asserts.
        """
        return sum(
            worker.spec.cost_per_gpu_second
            * self.worker_provisioned_seconds(worker, horizon)
            for worker in self.workers
        )

    def gpu_seconds_by_tier(self, horizon: float) -> dict[str, float]:
        """Provisioned GPU-seconds split by billing tier (spot/on-demand)."""
        by_tier: dict[str, float] = {}
        for worker in self.workers:
            tier = worker.spec.tier
            by_tier[tier] = by_tier.get(tier, 0.0) + self.worker_provisioned_seconds(
                worker, horizon
            )
        return by_tier

    @property
    def num_revocations(self) -> int:
        """Spot revocations that actually hit a provisioned worker."""
        return len(self.revocation_log)

    @property
    def num_crashes(self) -> int:
        """Injected crashes that actually took down an active worker."""
        return len(self.crash_log)

    # -- placement ------------------------------------------------------------
    def _worker_at(self, index: int) -> CloudActor:
        if not 0 <= index < len(self.workers):
            raise ValueError(
                f"no worker {index} in a cluster of {len(self.workers)}"
            )
        return self.workers[index]

    def _active_at(self, index: int) -> CloudActor:
        active = self.active_workers
        if not 0 <= index < len(active):
            raise ValueError(
                f"placement {self.placement_name!r} chose worker {index} of "
                f"{len(active)} active"
            )
        return active[index]

    def _record_placement(self, camera_id: int, worker_id: int) -> None:
        previous = self._last_worker.get(camera_id)
        if previous is not None and previous != worker_id:
            self._migrations[camera_id] = self._migrations.get(camera_id, 0) + 1
        self._last_worker[camera_id] = worker_id

    def _enqueue_labeling_placed(
        self, job: GpuJob, now: float, scheduler: EventScheduler
    ) -> None:
        # with a fleet batcher, labeling jobs join the cluster-wide
        # forming batch instead of being pinned to a worker at arrival;
        # placement records happen at flush time, when the worker is known
        if self.batcher is not None:
            self.batcher.on_job(job, now, scheduler)
            return
        worker = self._active_at(self.placement.place(job, self.active_workers, now))
        if worker.enqueue_labeling(job, now, scheduler):
            self._record_placement(job.camera_id, worker.worker_id)

    def _enqueue_training_placed(
        self, job: GpuJob, now: float, scheduler: EventScheduler
    ) -> None:
        worker = self._active_at(self.placement.place(job, self.active_workers, now))
        self._record_placement(job.camera_id, worker.worker_id)
        worker.enqueue_training(job, now, scheduler)

    # -- event handlers (the cluster is cloud-addressable like one actor) -----
    # The control flow (latency accounting, pool / bypass-vs-queue
    # branches) lives ONCE in CloudActor; the cluster
    # only swaps the final enqueue step for a placement-aware one, so
    # the single-GPU and sharded clouds cannot drift apart.
    def on_upload(self, event: UploadComplete, scheduler: EventScheduler) -> None:
        """Route an arrived upload through placement onto one worker's queue."""
        self.workers[0].on_upload(
            event, scheduler, enqueue=self._enqueue_labeling_placed
        )

    def on_labeling_done(self, event: LabelingDone, scheduler: EventScheduler) -> None:
        """Route a busy-period completion back to the worker that ran it."""
        self._worker_at(event.worker_id).on_labeling_done(event, scheduler)
        if self.batcher is not None:
            # the worker (or another one freed at the same instant) may
            # now be idle: give the forming batch a flush opportunity
            self.batcher.on_worker_idle(event.time, scheduler)

    def on_batch_timeout(self, event: BatchTimeout, scheduler: EventScheduler) -> None:
        """A held forming batch hit its deadline: force-flush it."""
        if self.batcher is None:
            raise RuntimeError(
                "BatchTimeout fired on a cluster without a fleet batcher"
            )
        self.batcher.on_timeout(event, scheduler)

    def on_revocation(self, event: RevocationEvent, scheduler: EventScheduler) -> None:
        """A spot worker's capacity was pulled: retire it *right now*.

        Unlike the voluntary :meth:`remove_worker` drain, a revocation
        is involuntary and immediate:

        * the worker stops charging provisioned capacity at the
          revocation instant (a voluntary drain already in progress has
          its future retirement stamp moved up);
        * its in-flight busy period is killed
          (:meth:`~repro.core.actors.CloudActor.preempt`): the
          interrupted jobs re-enter placement carrying either their
          remaining service (``"checkpoint"`` mode) or their full
          service again (``"relabel"`` — the elapsed work is counted as
          wasted);
        * queued jobs hand off through the drain path (no re-admission
          — their uplink is paid for), and sticky placements remap
          against the shrunken worker set;
        * if no active worker would remain, an emergency on-demand
          worker is provisioned first — spot revocation must never
          leave admitted uploads with nowhere to go (this capacity
          floor deliberately ignores any autoscaler ``max_gpus`` spend
          bound).

        Stale events — a worker that already fully retired, was already
        revoked, or (scripted traces) was never provisioned by the time
        the entry fires — are ignored: a seeded draw can outlive a
        voluntary drain of the same worker, and a trace may target a
        worker the autoscaler was expected to add but did not.
        Revoking a non-preemptible worker is a scenario bug and raises.
        """
        if not 0 <= event.worker_id < len(self.workers):
            return  # the targeted worker never came online: stale entry
        worker = self.workers[event.worker_id]
        now = event.time
        if worker.revoked:
            return
        if not worker.spec.preemptible:
            raise ValueError(
                f"worker {worker.worker_id} is on-demand capacity and cannot "
                "be revoked; scripted traces may only target preemptible "
                "workers"
            )
        finished = worker.busy_until <= now + 1e-12 and not worker.queue
        if worker.retired_at is not None and finished:
            return  # already fully retired before the revocation fired
        worker.revoked = True
        worker.draining = True
        recovered, wasted = worker.preempt(now, scheduler, self.revocation_mode)
        if self.revocation_mode == "checkpoint":
            self.num_checkpoint_resumed_jobs += len(recovered)
        else:
            self.num_relabeled_jobs += len(recovered)
        self.wasted_gpu_seconds += wasted
        handoff = recovered + list(worker.queue)
        worker.queue = deque()
        # capacity stops charging NOW; a voluntary drain's future
        # retirement stamp (in-flight tail, or a no-drain run-dry
        # estimate) is superseded by the revocation
        if worker.retired_at is not None:
            self._provision_log.remove((worker.retired_at, -1))
        worker.retired_at = now
        self._provision_log.append((now, -1))
        emergency: CloudActor | None = None
        if not self.active_workers:
            # explicitly on-demand: falling back to the cluster template
            # could mint another spot worker into the same revocation storm
            emergency = self.add_worker(now, spec=WorkerSpec())
        for job in handoff:
            self._place_handoff(job, now, scheduler)
        self.revocation_log.append(
            RevocationRecord(
                time=now,
                worker_id=worker.worker_id,
                mode=self.revocation_mode,
                jobs_in_flight=len(recovered),
                jobs_queued=len(handoff) - len(recovered),
                wasted_gpu_seconds=wasted,
                emergency_worker_id=None if emergency is None else emergency.worker_id,
            )
        )
        if self.batcher is not None:
            # recovery handoffs bypassed the forming batch (re-placed
            # jobs must not wait out a hold), but a surviving or
            # emergency worker may now be idle for the pending jobs
            self.batcher.on_worker_idle(now, scheduler)

    def arm_faults(self, plan: FaultPlan) -> None:
        """Arm a fault plan without scheduling its crash process.

        The fleet schedules one *global* crash process and the
        federation routes each draw to the owning region's cluster (see
        :meth:`~repro.core.federation.Federation.on_crash`); the cluster
        still needs the plan armed so :meth:`on_crash` knows the
        recovery mode.
        """
        self._fault_plan = plan

    def fail_all_workers(
        self, now: float, scheduler: EventScheduler, mode: str = "relabel"
    ) -> tuple[list[GpuJob], list[WorkerSpec]]:
        """Region-outage teardown: stop every working GPU, return orphans.

        A whole-region outage (federation) differs from both a spot
        revocation and a single-worker crash: *every* worker still
        burning GPU cycles stops at once, no replacement is provisioned
        here (the region is down — the federation re-places the orphans
        in a healthy region and re-provisions on heal), and none of the
        crash/revocation counters or logs are touched — the fault
        invariants tie those exactly to their own events.  In-flight
        busy periods are killed under ``mode`` (``"relabel"`` redoes
        them and books the elapsed work as
        ``outage_wasted_gpu_seconds``); queued jobs, recovered jobs and
        the cluster batcher's *forming* batch — jobs admitted but not
        yet on any worker's queue — are all returned as orphans for the
        caller to re-place, so no upload is silently dropped.  Capacity
        stops charging at the outage instant: a draining worker's
        future retirement stamp is superseded exactly as a crash would.
        Worker ids stay append-only; :meth:`add_worker` re-grows the
        region on heal from the returned torn-down specs.
        """
        orphans: list[GpuJob] = []
        specs: list[WorkerSpec] = []
        for worker in self.workers:
            if worker.crashed or worker.revoked:
                continue
            still_working = (
                worker.retired_at is None
                or worker.busy_until > now + 1e-12
                or worker.queue
            )
            if not still_working:
                continue
            recovered, wasted = worker.preempt(now, scheduler, mode)
            self.outage_wasted_gpu_seconds += wasted
            orphans.extend(recovered)
            orphans.extend(worker.queue)
            worker.queue = deque()
            # only capacity that was still *placeable* is re-provisioned
            # on heal — a drain tail was leaving the cluster anyway
            if not worker.draining:
                specs.append(worker.spec)
            worker.draining = True
            if worker.retired_at is not None:
                self._provision_log.remove((worker.retired_at, -1))
            worker.retired_at = now
            self._provision_log.append((now, -1))
        if self.batcher is not None:
            orphans.extend(self.batcher.pending)
            self.batcher.pending.clear()
            if self.batcher._timer is not None:
                scheduler.cancel(self.batcher._timer)
                self.batcher._timer = None
            self.batcher._generation += 1
        self.num_outages += 1
        return orphans, specs

    def crash_eligible(self, now: float) -> list[CloudActor]:
        """Workers a crash draw may hit at ``now``, in worker-id order.

        Active workers, plus draining ones still finishing — a fully
        retired drain (nothing in flight, nothing queued) cannot crash,
        and neither can an already-crashed or revoked worker.  In runs
        that never drain (no autoscaler, no removals) this is exactly
        the active set, preserving the historical draw.  The federation
        concatenates these per-region lists (region order) to reduce a
        *global* crash draw.
        """
        return [
            worker
            for worker in self.workers
            if not worker.crashed
            and not worker.revoked
            and (
                not worker.draining
                or worker.busy_until > now + 1e-12
                or worker.queue
            )
        ]

    def on_crash(self, event: WorkerCrashEvent, scheduler: EventScheduler) -> None:
        """A worker process died mid-handler: supervise and recover.

        Unlike a spot revocation (capacity pulled by the provider), a
        crash is a *fault* the control plane must mask:

        * the victim — picked from the workers *crash-eligible* at fire
          time: every active worker, plus any draining worker still
          finishing work (an autoscaler scale-down's in-flight tail, or
          a no-drain removal's kept queue).  Capacity that fully
          retired can no longer crash; capacity still burning GPU
          cycles can, which is exactly the crash-during-drain race.
          The victim stops charging provisioned capacity at the crash
          instant;
        * its in-flight busy period is killed
          (:meth:`~repro.core.actors.CloudActor.preempt`) under the
          plan's ``crash_recovery`` mode: ``"checkpoint"`` resumes the
          interrupted jobs with their remaining service, ``"relabel"``
          redoes them from scratch and counts the elapsed work as
          ``crash_wasted_gpu_seconds`` (kept separate from the
          revocation counters so faults-off invariants are untouched);
        * the supervisor provisions a same-spec replacement *before*
          re-placing the orphaned jobs, so recovery never funnels the
          victim's whole backlog onto the survivors — *unless* the
          victim was already draining out of a scale-down: that
          capacity was leaving anyway, so no replacement is started
          (``CrashRecord.replacement_id`` is None) and the in-flight
          tail's recovered jobs simply hand off to the survivors
          (:meth:`remove_worker` guarantees at least one active worker
          outlives every drain);
        * queued jobs hand off through placement with no re-admission —
          their uplink is already paid for.

        The crash-vs-drain race resolves without double-preemption:
        a draining victim is only eligible while it still has work
        (its preempt is its first), a crashed worker is never eligible
        again, and the drain's future provision-log retirement stamp is
        superseded by the crash instant exactly once.  Worker ids are
        append-only throughout — no id is reused or renumbered.

        A crash landing on an empty cluster (every worker fully
        retired) is dropped: there is no process left to kill.
        """
        if self._fault_plan is None:
            raise RuntimeError("on_crash fired without an armed fault plan")
        now = event.time
        eligible = self.crash_eligible(now)
        if not eligible:
            return
        victim = eligible[event.victim_draw % len(eligible)]
        drain_race = victim.draining
        victim.crashed = True
        victim.draining = True
        mode = self._fault_plan.crash_recovery
        recovered, wasted = victim.preempt(now, scheduler, mode)
        self.num_crash_recovered_jobs += len(recovered)
        self.crash_wasted_gpu_seconds += wasted
        handoff = recovered + list(victim.queue)
        victim.queue = deque()
        # capacity stops charging NOW; supersede any future voluntary
        # drain stamp exactly as a revocation would
        if victim.retired_at is not None:
            self._provision_log.remove((victim.retired_at, -1))
        victim.retired_at = now
        self._provision_log.append((now, -1))
        # a draining victim's capacity was already leaving the cluster:
        # restarting it would undo the scale-down it lost the race to
        replacement = None if drain_race else self.add_worker(now, spec=victim.spec)
        for job in handoff:
            self._place_handoff(job, now, scheduler)
        self.crash_log.append(
            CrashRecord(
                time=now,
                worker_id=victim.worker_id,
                replacement_id=None if replacement is None else replacement.worker_id,
                mode=mode,
                jobs_in_flight=len(recovered),
                jobs_queued=len(handoff) - len(recovered),
                wasted_gpu_seconds=wasted,
            )
        )
        if self.batcher is not None:
            # the same-spec replacement starts idle: absorb any forming
            # batch the crashed worker's busy period was blocking
            self.batcher.on_worker_idle(now, scheduler)

    def on_labels_for_training(
        self,
        actor,
        labeled: list[LabeledFrame],
        now: float,
        scheduler: EventScheduler,
    ) -> None:
        """AMS path: pool in the shared registry, place the training job.

        Under the FIFO bypass (``queue_training`` false) the filled pool
        trains immediately on spare capacity — the accounting dicts and
        the server are shared, so no particular worker is charged busy
        time, exactly as in the single-GPU cloud.  Unified-queue
        policies wrap the pool into a :class:`GpuJob` and place it like
        any other work.
        """
        self.workers[0].on_labels_for_training(
            actor, labeled, now, scheduler, enqueue=self._enqueue_training_placed
        )

    def note_gpu(self, camera_id: int, seconds: float) -> None:
        """Attribute GPU time to the shared server and one tenant."""
        self.workers[0].note_gpu(camera_id, seconds)

    # -- aggregate accounting -------------------------------------------------
    @property
    def busy_seconds(self) -> float:
        """Total GPU busy time summed over all workers."""
        return sum(worker.busy_seconds for worker in self.workers)

    @property
    def gpu_busy_by_worker(self) -> list[float]:
        """Busy seconds per worker (every worker ever provisioned)."""
        return [worker.busy_seconds for worker in self.workers]

    @staticmethod
    def _merge_completed(per_worker: Sequence[list[GpuJob]]) -> list[GpuJob]:
        jobs = [job for worker_jobs in per_worker for job in worker_jobs]
        # stable sort: a 1-worker cluster keeps exact completion order
        return sorted(jobs, key=lambda job: (job.completion, job.worker_id))

    @property
    def completed_jobs(self) -> list[GpuJob]:
        """Served labeling jobs across all workers, in completion order."""
        return self._merge_completed([w.completed_jobs for w in self.workers])

    @property
    def completed_training_jobs(self) -> list[GpuJob]:
        """Served cloud-training jobs across all workers, in completion order."""
        return self._merge_completed([w.completed_training_jobs for w in self.workers])

    @property
    def queue_waits(self) -> list[float]:
        """Per-job labeling-queue delays (seconds), in completion order."""
        return [job.wait_seconds for job in self.completed_jobs]

    @property
    def training_waits(self) -> list[float]:
        """Queue delays (seconds) of cloud-training jobs, in completion order."""
        return [job.wait_seconds for job in self.completed_training_jobs]

    @property
    def rejections_by_camera(self) -> dict[int, int]:
        """Uploads admission control turned away, summed per tenant."""
        counts: dict[int, int] = {camera_id: 0 for camera_id in self.tenants}
        for worker in self.workers:
            for job in worker.rejected_jobs:
                counts[job.camera_id] = counts.get(job.camera_id, 0) + 1
        return counts

    @property
    def migrations_by_camera(self) -> dict[int, int]:
        """How often each camera's jobs moved to a different worker."""
        return {
            camera_id: self._migrations.get(camera_id, 0)
            for camera_id in self.tenants
        }

    @property
    def num_migrations(self) -> int:
        """Total cross-worker camera moves over the run."""
        return sum(self._migrations.values())

    @property
    def num_labeling_batches(self) -> int:
        """GPU busy periods that served at least one labeling job.

        Each worker counts its completed labeling periods as they finish
        (an O(1) increment per busy period), so this is a sum over
        workers rather than a re-scan of every completed job: jobs in
        one busy period share their ``(worker_id, service_start)``, and
        distinct periods never share one because every period's
        wall-clock length is positive (batch overhead).
        """
        return sum(worker.num_labeling_periods for worker in self.workers)
