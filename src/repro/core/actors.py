"""Actor decomposition of the collaborative session (event handlers).

The monolithic ``CollaborativeSession.run()`` loop is decomposed into
two actors driven by the :class:`~repro.runtime.events.EventScheduler`:

* :class:`EdgeActor` — wraps one :class:`~repro.core.edge.EdgeDevice`
  plus everything that was per-stream state in the old loop (encoder,
  bandwidth accountant, evaluation records, sampling-rate history) and
  handles :class:`FrameArrival`, :class:`LabelsReady`,
  :class:`TrainingDone` and :class:`ModelDownloadComplete` events;
* :class:`CloudActor` — one GPU worker around a (possibly shared)
  :class:`~repro.core.cloud.CloudServer`; it owns the typed per-tenant
  pools of labeled frames awaiting cloud-side training (AMS), each
  tenant's cloud-resident student and trainer (AMS), the unified GPU
  job queue (labeling uploads *and* cloud-training jobs), and
  per-tenant GPU-seconds accounting; which
  queued jobs form each GPU busy period — and whether a job is admitted
  at all — is decided by a pluggable
  :class:`~repro.core.scheduling.GpuScheduler` (FIFO by default); the
  actor handles :class:`UploadComplete` and :class:`LabelingDone`
  events.

How messages travel between them is a :class:`Transport` policy:

* :class:`InstantTransport` reproduces the original monolithic-loop
  semantics exactly — uploads and labels arrive in the same simulated
  instant they are sent (only *accounted*, never delayed) and model
  downloads use the closed-form point-to-point time.  The single-camera
  :class:`~repro.core.session.CollaborativeSession` facade pairs it
  with a worker whose service takes no simulated time, so each upload
  is labeled and answered in the instant it is sent.
* :class:`SharedLinkTransport` pushes every message through a
  processor-sharing :class:`~repro.network.link.SharedLink`, so
  transfer times stretch as more cameras contend for the same pipe.
  It re-projects and reschedules its pending completion event whenever
  the set of concurrent transfers changes.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.core.adaptive_training import AdaptiveTrainer
from repro.core.cloud import CloudServer, CloudTrainingResult, LabelingResponse
from repro.core.config import ShoggothConfig
from repro.core.edge import EdgeDevice
from repro.core.labeling import LabeledFrame
from repro.core.sampling import SamplingRateController
from repro.core.scheduling import (
    LABELING,
    TRAINING,
    FifoScheduler,
    GpuJob,
    GpuScheduler,
    WorkerSpec,
)
from repro.core.session import SessionOptions, SessionResult
from repro.detection.boxes import Detections
from repro.detection.teacher import TeacherDetector
from repro.network.accounting import BandwidthAccountant
from repro.network.link import LinkConfig, NetworkLink, SharedLink
from repro.network.messages import (
    FrameBatchUpload,
    LabelDownload,
    ModelDownload,
    ResultDownload,
)
from repro.runtime.device import EdgeComputeModel
from repro.runtime.events import (
    AutoscaleTick,
    BatchTimeout,
    Event,
    EventScheduler,
    FrameArrival,
    LabelingDone,
    LabelsReady,
    LinkPartitionEvent,
    ModelDownloadComplete,
    RegionOutageEvent,
    ReplicationTick,
    RetryTimer,
    RevocationEvent,
    TrainingDone,
    UploadComplete,
    WorkerCrashEvent,
)
from repro.video.datasets import DatasetSpec
from repro.video.drift import DriftSchedule
from repro.video.encoding import H264Encoder
from repro.video.scene import GroundTruthBox
from repro.video.stream import Frame

import numpy as np

__all__ = [
    "EdgeActor",
    "CloudActor",
    "GpuJob",
    "InstantTransport",
    "SharedLinkTransport",
    "SessionKernel",
]


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------
class InstantTransport:
    """Zero-latency transport: the monolithic loop's synchronous semantics.

    Uploads and label responses are delivered at the instant they are
    sent (bandwidth is accounted, time is not charged); AMS model
    downloads use the point-to-point :meth:`NetworkLink.downlink_seconds`
    exactly as the original loop did.
    """

    def __init__(self, link: NetworkLink) -> None:
        self.link = link
        # at most one model download in flight per camera: a newer one
        # replaces an undelivered predecessor (the monolithic loop kept a
        # single pending_model_update and overwrote it)
        self._pending_model: dict[int, Event] = {}

    def send_upload(
        self,
        scheduler: EventScheduler,
        actor: "EdgeActor",
        upload: FrameBatchUpload,
        batch: list[Frame],
        alpha: float,
        lambda_usage: float,
        now: float,
    ) -> None:
        """Deliver an upload at the instant it was sent (bandwidth accounted)."""
        actor.accountant.record_uplink(upload)
        scheduler.schedule(
            UploadComplete(
                time=now,
                camera_id=actor.camera_id,
                batch=batch,
                alpha=alpha,
                lambda_usage=lambda_usage,
                sent_at=now,
            )
        )

    def send_labels(
        self,
        scheduler: EventScheduler,
        actor: "EdgeActor",
        response: LabelingResponse,
        now: float,
    ) -> None:
        """Deliver teacher labels to the edge in the same simulated instant."""
        scheduler.schedule(
            LabelsReady(time=now, camera_id=actor.camera_id, response=response)
        )

    def send_model(
        self,
        scheduler: EventScheduler,
        actor: "EdgeActor",
        update: ModelDownload,
        model_state: dict,
        now: float,
    ) -> None:
        """Stream a model update over the closed-form point-to-point downlink."""
        actor.accountant.record_downlink(update)
        arrival = now + self.link.downlink_seconds(update)
        previous = self._pending_model.get(actor.camera_id)
        if previous is not None and not previous.cancelled:
            scheduler.cancel(previous)
        self._pending_model[actor.camera_id] = scheduler.schedule(
            ModelDownloadComplete(
                time=arrival, camera_id=actor.camera_id, model_state=model_state
            )
        )

    # delivery hooks: nothing in flight to retire for the instant transport
    def uplink_delivered(
        self, scheduler: EventScheduler, now: float, event: Event | None = None
    ) -> None:
        """No-op: instant uploads have nothing in flight to retire."""

    def downlink_delivered(
        self, scheduler: EventScheduler, now: float, event: Event | None = None
    ) -> None:
        """No-op: instant downloads have nothing in flight to retire."""


class SharedLinkTransport:
    """Transport over a processor-sharing :class:`SharedLink`.

    Keeps at most one pending completion event per direction; whenever a
    transfer starts or finishes, the previously projected completion
    time is stale, so the pending event is cancelled and re-projected
    from the link's current load.
    """

    def __init__(self, link: SharedLink) -> None:
        self.link = link
        self._pending_up: tuple[Event, object] | None = None
        self._pending_down: tuple[Event, object] | None = None

    # -- sending -----------------------------------------------------------
    def send_upload(
        self,
        scheduler: EventScheduler,
        actor: "EdgeActor",
        upload: FrameBatchUpload,
        batch: list[Frame],
        alpha: float,
        lambda_usage: float,
        now: float,
    ) -> None:
        """Start the upload on the shared uplink and re-project completions."""
        actor.accountant.record_uplink(upload)
        self.link.begin_uplink(
            upload,
            now,
            camera_id=actor.camera_id,
            payload=("upload", actor, batch, alpha, lambda_usage),
        )
        self._sync_uplink(scheduler, now)

    def send_labels(
        self,
        scheduler: EventScheduler,
        actor: "EdgeActor",
        response: LabelingResponse,
        now: float,
    ) -> None:
        """Start the label download on the shared downlink."""
        message = LabelDownload(
            num_frames=len(response.labeled_frames), num_boxes=response.num_boxes
        )
        self.link.begin_downlink(
            message, now, camera_id=actor.camera_id, payload=("labels", actor, response)
        )
        self._sync_downlink(scheduler, now)

    def send_model(
        self,
        scheduler: EventScheduler,
        actor: "EdgeActor",
        update: ModelDownload,
        model_state: dict,
        now: float,
    ) -> None:
        """Start a model-update download on the shared downlink."""
        actor.accountant.record_downlink(update)
        self.link.begin_downlink(
            update, now, camera_id=actor.camera_id, payload=("model", actor, model_state)
        )
        self._sync_downlink(scheduler, now)

    # -- delivery ------------------------------------------------------------
    def uplink_delivered(
        self, scheduler: EventScheduler, now: float, event: Event | None = None
    ) -> None:
        """Retire the finished uplink transfer and re-project the next one.

        ``event`` is the delivery event being handled — unused here (one
        link means one pending transfer), but a federated transport
        routes on it to find which region's uplink just finished.
        """
        if self._pending_up is not None:
            _, transfer = self._pending_up
            self._pending_up = None
            self.link.retire(transfer, now)
        self._sync_uplink(scheduler, now)

    def downlink_delivered(
        self, scheduler: EventScheduler, now: float, event: Event | None = None
    ) -> None:
        """Retire the finished downlink transfer and re-project the next one."""
        if self._pending_down is not None:
            _, transfer = self._pending_down
            self._pending_down = None
            self.link.retire(transfer, now)
        self._sync_downlink(scheduler, now)

    # -- completion projection ---------------------------------------------
    def _sync_uplink(self, scheduler: EventScheduler, now: float) -> None:
        if self._pending_up is not None:
            scheduler.cancel(self._pending_up[0])
            self._pending_up = None
        projected = self.link.next_uplink_completion(now)
        if projected is None:
            return
        transfer, completion = projected
        _, actor, batch, alpha, lam = transfer.payload
        event = scheduler.schedule(
            UploadComplete(
                time=max(completion, now),
                camera_id=transfer.camera_id,
                batch=batch,
                alpha=alpha,
                lambda_usage=lam,
                # a retransmission stamps its first attempt's send time
                # so latency statistics include the retry delay
                sent_at=(
                    transfer.start_time
                    if transfer.sent_at is None
                    else transfer.sent_at
                ),
                message_id=transfer.message_id,
            )
        )
        self._pending_up = (event, transfer)

    def _sync_downlink(self, scheduler: EventScheduler, now: float) -> None:
        if self._pending_down is not None:
            scheduler.cancel(self._pending_down[0])
            self._pending_down = None
        projected = self.link.next_downlink_completion(now)
        if projected is None:
            return
        transfer, completion = projected
        kind, actor, data = transfer.payload
        when = max(completion, now)
        if kind == "labels":
            event = scheduler.schedule(
                LabelsReady(
                    time=when,
                    camera_id=transfer.camera_id,
                    response=data,
                    message_id=transfer.message_id,
                )
            )
        else:  # "model"
            event = scheduler.schedule(
                ModelDownloadComplete(
                    time=when,
                    camera_id=transfer.camera_id,
                    model_state=data,
                    message_id=transfer.message_id,
                )
            )
        self._pending_down = (event, transfer)


# ---------------------------------------------------------------------------
# cloud actor
# ---------------------------------------------------------------------------
@dataclass
class _Tenant:
    """Per-camera state the shared cloud keeps."""

    actor: "EdgeActor"
    schedule: DriftSchedule
    controller: SamplingRateController
    #: typed pool of labeled frames awaiting cloud-side training (AMS)
    pool: list[LabeledFrame] = field(default_factory=list)
    #: cloud-resident student copy + trainer (AMS); None when the
    #: tenant trains at the edge
    trainer: AdaptiveTrainer | None = None
    student: object | None = None


class CloudActor:
    """One GPU worker around a (shared) :class:`CloudServer`.

    Uploads — and, for schedulers with ``queue_training`` set, AMS
    cloud-training jobs — join one unified GPU job queue; the pluggable
    :class:`GpuScheduler` decides which queued jobs form each GPU busy
    period and whether a job is admitted at all.  The default
    :class:`FifoScheduler` serves the whole queue as one merged
    multi-tenant teacher batch (batched teacher inference), exactly the
    pre-scheduler behaviour.  A worker with zero
    ``batch_overhead_seconds`` and infinite :class:`WorkerSpec` speed
    serves each upload in the instant it arrives; the single-camera
    facade uses one.

    A sharded cloud (:class:`~repro.core.cluster.CloudCluster`) runs N
    of these actors as GPU workers: each keeps its own queue, scheduler
    and busy clock but shares the tenant registry and the per-tenant
    GPU accounting dicts the cluster passes in, and stamps its
    ``worker_id`` onto the :class:`LabelingDone` events it schedules so
    completions route back to the right worker.
    """

    def __init__(
        self,
        cloud: CloudServer,
        transport: InstantTransport | SharedLinkTransport,
        batch_overhead_seconds: float = 0.02,
        scheduler: GpuScheduler | None = None,
        worker_id: int = 0,
        tenants: dict[int, "_Tenant"] | None = None,
        gpu_seconds_by_camera: dict[int, float] | None = None,
        label_observer: "Callable[[int, float, float], None] | None" = None,
        spec: WorkerSpec | None = None,
    ) -> None:
        self.cloud = cloud
        self.transport = transport
        self.batch_overhead_seconds = batch_overhead_seconds
        self.scheduler = scheduler or FifoScheduler()
        #: resource profile: speed multiplier, cost rate, spot flag.
        #: The default (speed 1.0, on-demand) reproduces the pre-spec
        #: worker bit-for-bit
        self.spec = spec or WorkerSpec()
        #: which GPU of a sharded cloud this actor is (0 standalone);
        #: stamped onto the :class:`LabelingDone` events it schedules
        self.worker_id = worker_id
        #: tenant registry and per-tenant GPU accounting — a
        #: :class:`~repro.core.cluster.CloudCluster` passes shared dicts
        #: so its workers see one registry and one set of totals
        self.tenants: dict[int, _Tenant] = tenants if tenants is not None else {}
        self.gpu_seconds_by_camera: dict[int, float] = (
            gpu_seconds_by_camera if gpu_seconds_by_camera is not None else {}
        )
        #: where measured φ signals go — defaults to this worker's own
        #: scheduler; a cluster installs a broadcast so *every* shard's
        #: φ-aware scheduler sees every measurement (φ is a property of
        #: the camera, not of the worker that happened to label it)
        self.label_observer = label_observer or self.scheduler.on_labeled
        #: set by a cluster when this worker is being scaled in: a
        #: draining worker takes no new placements, finishes (or hands
        #: off) what it has, then retires; its id is never reused
        self.draining = False
        #: provisioning lifetime stamps (simulated seconds), maintained
        #: by the cluster: when this worker started charging capacity,
        #: and when it stopped (None while provisioned)
        self.provisioned_since = 0.0
        self.retired_at: float | None = None
        #: set when this worker's spot capacity was revoked mid-run; a
        #: revoked worker is permanently retired (never restarts)
        self.revoked = False
        #: set when an injected fault crashed this worker mid-handler;
        #: the cluster supervisor restarts a *replacement* worker (new
        #: id) whose tenant state is recovered from the shared registry
        self.crashed = False
        self.queue: deque[GpuJob] = deque()
        #: handle on the busy period's scheduled completion, so a spot
        #: revocation can kill the period mid-flight (None while idle)
        self.pending_completion: LabelingDone | None = None
        #: every scheduled-but-undelivered completion this worker armed.
        #: ``pending_completion`` can be overwritten when a handoff (or
        #: merged batch) starts a new busy period at the exact instant
        #: the previous one ends, before its LabelingDone dispatches —
        #: benign on a single cluster (events route by worker id) but a
        #: federation routes by event identity, so it needs the full set
        self.armed_completions: list[LabelingDone] = []
        #: labeling jobs in completion order (queue-delay statistics)
        self.completed_jobs: list[GpuJob] = []
        #: completed busy periods that served >= 1 labeling job — an O(1)
        #: running count so fleet summaries never re-scan completed_jobs
        self.num_labeling_periods = 0
        #: cloud-training jobs in completion order (unified-queue policies)
        self.completed_training_jobs: list[GpuJob] = []
        #: uploads the scheduler turned away at the door
        self.rejected_jobs: list[GpuJob] = []
        self.busy_until = 0.0
        self.busy_seconds = 0.0

    # -- registration --------------------------------------------------------
    def register_camera(
        self,
        actor: "EdgeActor",
        schedule: DriftSchedule,
        controller: SamplingRateController,
        seed: int = 0,
        replay_seed: tuple | None = None,
        weight: float = 1.0,
    ) -> None:
        """Attach one camera with its own drift schedule and rate controller.

        Tenants whose options train in the cloud (AMS) get a
        cloud-resident copy of their student and a dedicated trainer.
        """
        tenant = _Tenant(actor=actor, schedule=schedule, controller=controller)
        options = actor.options
        if options.adapt and options.train_location == "cloud":
            tenant.student = actor.edge.student.clone()
            tenant.trainer = AdaptiveTrainer(
                tenant.student, actor.config.training, seed=seed
            )
            if replay_seed is not None:
                tenant.trainer.seed_replay(*replay_seed)
        self.tenants[actor.camera_id] = tenant
        self.gpu_seconds_by_camera.setdefault(actor.camera_id, 0.0)
        self.scheduler.register_tenant(actor.camera_id, weight=weight)

    # -- accounting ----------------------------------------------------------
    def note_gpu(self, camera_id: int, seconds: float) -> None:
        """Attribute GPU time to both the shared server and one tenant."""
        self.cloud.total_gpu_seconds += seconds
        self.gpu_seconds_by_camera[camera_id] = (
            self.gpu_seconds_by_camera.get(camera_id, 0.0) + seconds
        )

    # -- event handlers -----------------------------------------------------
    def make_labeling_job(self, event: UploadComplete) -> GpuJob:
        """Wrap an arrived upload into a labeling :class:`GpuJob`."""
        return GpuJob(
            kind=LABELING,
            camera_id=event.camera_id,
            arrival=event.time,
            service_seconds=self.cloud.labeler.gpu_seconds(len(event.batch)),
            batch=event.batch,
            alpha=event.alpha,
            lambda_usage=event.lambda_usage,
        )

    def enqueue_labeling(
        self, job: GpuJob, now: float, scheduler: EventScheduler
    ) -> bool:
        """Admit a labeling job to this worker's queue; False = rejected."""
        if not self.scheduler.admit(job, self.queue, now, self.busy_until):
            # rejected at the door: no labels flow back, the edge keeps
            # its stale weights and sampling rate
            self.rejected_jobs.append(job)
            return False
        job.worker_id = self.worker_id
        self.queue.append(job)
        self._maybe_start_service(now, scheduler)
        return True

    def enqueue_training(
        self, job: GpuJob, now: float, scheduler: EventScheduler
    ) -> None:
        """Queue a cloud-training job (never rejected: the labels are paid for)."""
        self.accept_handoff(job, now, scheduler)

    def accept_handoff(
        self, job: GpuJob, now: float, scheduler: EventScheduler
    ) -> None:
        """Queue a job without re-running admission (drain handoff path).

        Used when a draining worker's queued jobs move here: those jobs
        were already admitted once and their uplink is paid for, so a
        second admission decision could only wrongly drop them.  The
        job keeps its original ``arrival``, so its eventual queue-delay
        statistic honestly includes the time spent on the drained
        worker's queue.
        """
        job.worker_id = self.worker_id
        self.queue.append(job)
        self._maybe_start_service(now, scheduler)

    def accept_batch(
        self, jobs: "list[GpuJob]", now: float, scheduler: EventScheduler
    ) -> None:
        """Queue a merged cluster-wide batch from the fleet batcher.

        Admission already ran when each job entered the batcher's
        forming batch, so — like :meth:`accept_handoff` — no second
        admission decision is made here.  All jobs land on the queue
        *before* service starts, so a whole-queue scheduler (FIFO)
        serves the merged batch as one busy period paying one
        ``batch_overhead_seconds``; tenant-picking schedulers may still
        split it across periods, which is their prerogative.
        """
        for job in jobs:
            job.worker_id = self.worker_id
            self.queue.append(job)
        self._maybe_start_service(now, scheduler)

    def on_upload(
        self,
        event: UploadComplete,
        scheduler: EventScheduler,
        enqueue: "Callable[[GpuJob, float, EventScheduler], object] | None" = None,
    ) -> None:
        """Handle an arrived upload: queue its labeling job.

        ``enqueue`` overrides where the job queues (default: this
        worker) — a cluster passes its placement hook here so the
        single-GPU and sharded clouds share one control flow.
        """
        self.tenants[event.camera_id].actor.upload_latencies.append(
            event.time - event.sent_at
        )
        enqueue = enqueue or self.enqueue_labeling
        enqueue(self.make_labeling_job(event), event.time, scheduler)

    def on_labeling_done(self, event: LabelingDone, scheduler: EventScheduler) -> None:
        """Finish a busy period: send labels / trained weights back, restart."""
        if self.pending_completion is event:
            self.pending_completion = None
        self.armed_completions = [
            armed for armed in self.armed_completions if armed is not event
        ]
        served_labeling = False
        for job in event.jobs:
            job.completion = event.time
            actor = self.tenants[job.camera_id].actor
            if job.kind == LABELING:
                served_labeling = True
                response = self._label(
                    job.camera_id, job.batch, job.alpha, job.lambda_usage, event.time
                )
                self.completed_jobs.append(job)
                self.transport.send_labels(scheduler, actor, response, event.time)
            else:  # TRAINING: the fine-tuned weights stream back now
                self.completed_training_jobs.append(job)
                update = ModelDownload(
                    num_parameters=actor.edge.student.num_parameters()
                )
                self.transport.send_model(
                    scheduler, actor, update, job.result.model_state, event.time
                )
        if served_labeling:
            self.num_labeling_periods += 1
        self.scheduler.on_served(event.jobs, event.time)
        self._maybe_start_service(event.time, scheduler)

    def on_labels_for_training(
        self,
        actor: "EdgeActor",
        labeled: list[LabeledFrame],
        now: float,
        scheduler: EventScheduler,
        enqueue: "Callable[[GpuJob, float, EventScheduler], object] | None" = None,
    ) -> None:
        """AMS path: pool labels per tenant, then train + stream the model back.

        Under schedulers with ``queue_training`` the filled pool becomes
        a :class:`GpuJob` competing with labeling uploads for the same
        GPU; otherwise (the FIFO default) training runs immediately on
        spare capacity, which is the pre-scheduler behaviour.
        ``enqueue`` overrides where a queued training job lands (a
        cluster passes its placement hook).
        """
        pool = self.pool_labels(actor, labeled)
        if pool is None:
            return
        if not self.scheduler.queue_training:
            self.train_now(actor, pool, now, scheduler)
            return
        enqueue = enqueue or self.enqueue_training
        enqueue(self.make_training_job(actor, pool, now), now, scheduler)

    def pool_labels(
        self, actor: "EdgeActor", labeled: list[LabeledFrame]
    ) -> list[LabeledFrame] | None:
        """Pool labels for the tenant; return the pool once it fills.

        Tenant-level seam: touches only the (possibly cluster-shared)
        tenant registry — never this worker's queue or busy clock — so
        a :class:`~repro.core.cluster.CloudCluster` may call it on any
        worker.  The same contract holds for :meth:`train_now` and
        :meth:`make_training_job`.
        """
        tenant = self.tenants[actor.camera_id]
        tenant.pool.extend(labeled)
        if len(tenant.pool) < actor.config.training.train_batch_size:
            return None
        pool, tenant.pool = tenant.pool, []
        return pool

    def train_now(
        self,
        actor: "EdgeActor",
        pool: list[LabeledFrame],
        now: float,
        scheduler: EventScheduler,
    ) -> None:
        """Fine-tune immediately on spare capacity (the FIFO bypass)."""
        result = self._train_tenant(self.tenants[actor.camera_id], pool)
        update = ModelDownload(num_parameters=actor.edge.student.num_parameters())
        self.transport.send_model(scheduler, actor, update, result.model_state, now)

    def make_training_job(
        self, actor: "EdgeActor", pool: list[LabeledFrame], now: float
    ) -> GpuJob:
        """Wrap a filled label pool into a queued cloud-training job."""
        cfg = actor.config.training
        estimated_steps = cfg.epochs * max(
            1, -(-len(pool) // max(1, cfg.minibatch_size))
        )
        return GpuJob(
            kind=TRAINING,
            camera_id=actor.camera_id,
            arrival=now,
            service_seconds=self.cloud.compute.training_seconds(estimated_steps),
            pool=pool,
        )

    # -- internals ------------------------------------------------------------
    def _label(
        self,
        camera_id: int,
        batch: list[Frame],
        alpha: float,
        lambda_usage: float,
        now: float,
    ) -> LabelingResponse:
        tenant = self.tenants[camera_id]
        response = self.cloud.process_upload(
            batch,
            alpha=alpha,
            lambda_usage=lambda_usage,
            schedule=tenant.schedule,
            controller=tenant.controller,
        )
        self.gpu_seconds_by_camera[camera_id] = (
            self.gpu_seconds_by_camera.get(camera_id, 0.0) + response.gpu_seconds
        )
        # feed the measured scene-change signal back so φ-aware policies
        # can prioritise by drift rather than elapsed staleness
        self.label_observer(camera_id, response.phi, now)
        return response

    def pending_gpu_seconds(self, now: float) -> float:
        """Residual busy time plus queued service — the placement load signal.

        Wall-clock: queued *nominal* service is divided by the worker's
        :class:`WorkerSpec` speed, so a fast GPU generation advertises
        the completion time it would actually deliver and least-loaded
        placement balances finish times, not raw GPU-seconds.
        """
        backlog = max(0.0, self.busy_until - now)
        return backlog + sum(job.service_seconds for job in self.queue) / self.spec.speed

    def _maybe_start_service(self, now: float, scheduler: EventScheduler) -> None:
        """Start the next GPU busy period with the scheduler's pick.

        The scheduler returns the subset of queued jobs to serve as one
        merged batch; any jobs it leaves behind wait for the next busy
        period (that is how non-FIFO policies reorder service).
        Training jobs run their fine-tuning here — the simulation is
        deterministic either way — but their weights only stream back
        when the busy period completes.  A training job resumed from a
        revocation checkpoint keeps its stashed result and is not
        re-trained.  The busy period's wall-clock length is the nominal
        service divided by the worker's :class:`WorkerSpec` speed,
        after the spec's sub-linear ``batch_scaling`` discount on the
        period's merged labeling work (a no-op at the default 1.0 — the
        float operations of the linear path are untouched, keeping the
        golden pins bit-for-bit).
        """
        if not self.queue or now + 1e-12 < self.busy_until:
            return
        jobs = self.scheduler.select(self.queue, now)
        if not jobs:
            return
        selected = {id(job) for job in jobs}
        self.queue = deque(job for job in self.queue if id(job) not in selected)
        service = self.batch_overhead_seconds
        for job in jobs:
            job.service_start = now
            if job.kind == TRAINING and job.result is None:
                job.result = self._train_tenant(self.tenants[job.camera_id], job.pool)
                job.service_seconds = job.result.gpu_seconds
            service += job.service_seconds
        if self.spec.batch_scaling != 1.0:
            # sub-linear batch service: F frames of merged labeling work
            # cost nominal * F**(s-1); training service stays linear and
            # per-tenant accounting keeps charging the nominal work
            frames = sum(len(job.batch) for job in jobs if job.kind == LABELING)
            if frames > 1:
                labeling = sum(
                    job.service_seconds for job in jobs if job.kind == LABELING
                )
                service -= labeling * (
                    1.0 - frames ** (self.spec.batch_scaling - 1.0)
                )
        service /= self.spec.speed
        self.busy_until = now + service
        self.busy_seconds += service
        self.pending_completion = scheduler.schedule(
            LabelingDone(time=self.busy_until, jobs=jobs, worker_id=self.worker_id)
        )
        self.armed_completions.append(self.pending_completion)

    def preempt(
        self, now: float, scheduler: EventScheduler, mode: str
    ) -> tuple[list[GpuJob], float]:
        """Kill the in-flight busy period (spot revocation hit mid-service).

        Cancels the scheduled completion, rolls the un-run remainder
        back out of ``busy_seconds`` and returns ``(recovered jobs,
        wasted wall-seconds)`` for the cluster to re-place.  ``mode``
        decides what the recovered jobs carry:

        * ``"checkpoint"`` — the elapsed fraction of the period is kept
          as progress: each job resumes elsewhere with only the
          remaining fraction of its nominal service (nothing wasted);
        * ``"relabel"`` — everything restarts from scratch: full
          service again, and the elapsed wall-time is reported as
          wasted GPU work.

        A training job's stashed result survives either mode: the
        fine-tuning outcome is deterministic, so the redo costs
        wall-clock time (and, under relabel, wasted-work accounting) —
        not a second weight update on the tenant's student or a second
        per-tenant GPU charge, which would make training jobs account
        differently from labeling jobs.

        Either way the jobs keep their original ``arrival``, so their
        eventual queue-delay statistics honestly include the killed
        attempt.  No-op (empty recovery) when the worker is idle.
        """
        if self.pending_completion is None or self.busy_until <= now + 1e-12:
            return [], 0.0
        done = self.pending_completion
        scheduler.cancel(done)
        self.pending_completion = None
        self.armed_completions = [
            armed for armed in self.armed_completions if armed is not done
        ]
        jobs = list(done.jobs)
        start = min(job.service_start for job in jobs)
        total_wall = self.busy_until - start
        elapsed_wall = max(0.0, now - start)
        remaining_wall = max(0.0, self.busy_until - now)
        self.busy_seconds -= remaining_wall
        self.busy_until = now
        done_fraction = elapsed_wall / total_wall if total_wall > 0 else 1.0
        for job in jobs:
            job.service_start = None
            if mode == "checkpoint":
                job.service_seconds *= max(0.0, 1.0 - done_fraction)
        wasted = 0.0 if mode == "checkpoint" else elapsed_wall
        return jobs, wasted

    def _train_tenant(
        self, tenant: _Tenant, labeled: list[LabeledFrame]
    ) -> CloudTrainingResult:
        images = np.stack([item.frame.image for item in labeled])
        targets = [item.pseudo_labels for item in labeled]
        report = tenant.trainer.train_session(images, targets)
        gpu_seconds = self.cloud.compute.training_seconds(report.num_steps)
        self.note_gpu(tenant.actor.camera_id, gpu_seconds)
        return CloudTrainingResult(
            report=report,
            model_state=tenant.student.state_dict(),
            gpu_seconds=gpu_seconds,
        )


# ---------------------------------------------------------------------------
# edge actor
# ---------------------------------------------------------------------------
class EdgeActor:
    """Event-handling wrapper around one :class:`EdgeDevice` and its stream.

    Owns all the per-camera state the monolithic loop kept as locals:
    the H.264 encoder (single source of truth for the stream's pixel
    count), the bandwidth accountant, evaluation records, the
    sampling-rate history and upload counters.
    """

    def __init__(
        self,
        camera_id: int,
        edge: EdgeDevice,
        cloud_actor: CloudActor,
        teacher: TeacherDetector,
        options: SessionOptions,
        config: ShoggothConfig,
        encoder: H264Encoder,
        transport: InstantTransport | SharedLinkTransport,
        dataset: DatasetSpec,
        link_config: LinkConfig,
        edge_compute: EdgeComputeModel,
        accountant: BandwidthAccountant | None = None,
    ) -> None:
        self.camera_id = camera_id
        self.edge = edge
        # the cloud keeps its cameras' actors (the federation's camera
        # registry, each tenant's ``actor``): a strong reference back
        # would make a finished run a cycle
        self._cloud_actor = weakref.ref(cloud_actor)
        self.teacher = teacher
        self.options = options
        self.config = config
        self.encoder = encoder
        self.transport = transport
        self.dataset = dataset
        self.link_config = link_config
        self.edge_compute = edge_compute
        self.accountant = accountant or BandwidthAccountant()

        self.evaluated_indices: list[int] = []
        self.detections_per_frame: list[Detections] = []
        self.ground_truth_per_frame: list[list[GroundTruthBox]] = []
        self.domain_per_frame: list[str] = []
        self.rate_history: list[tuple[float, float]] = []
        self.num_uploads = 0
        self.frames_seen = 0
        self.motion_total = 0.0
        self.upload_latencies: list[float] = []

    @property
    def cloud_actor(self) -> CloudActor:
        """The cloud this camera uploads to (held weakly, owned elsewhere)."""
        return self._cloud_actor()

    # -- event handlers -----------------------------------------------------
    def on_frame(self, frame: Frame, now: float, scheduler: EventScheduler) -> None:
        """Process one frame: evaluate, maybe sample, maybe start an upload."""
        options = self.options
        self.frames_seen += 1
        self.motion_total += frame.motion

        # -- accuracy evaluation --------------------------------------------
        if frame.index % self.config.eval_stride == 0:
            if options.use_cloud_detections:
                domain = self.dataset.schedule.domain_at(frame.index)
                detections = self.teacher.detect(frame, domain)
            else:
                detections = self.edge.detect(frame)
            self.evaluated_indices.append(frame.index)
            self.detections_per_frame.append(detections)
            self.ground_truth_per_frame.append(list(frame.ground_truth))
            self.domain_per_frame.append(frame.domain_name)

        # -- Cloud-Only: continuous upload + per-frame results ----------------
        if options.upload_all_frames:
            fps = self.dataset.fps
            per_frame_bytes = self.encoder.stream_bytes_per_second(
                fps, mean_motion=frame.motion
            ) / fps
            self.accountant.record_uplink(
                FrameBatchUpload(num_frames=1, encoded_bytes=max(1, int(per_frame_bytes)))
            )
            self.accountant.record_downlink(ResultDownload(num_boxes=len(frame.ground_truth)))
            self.cloud_actor.note_gpu(self.camera_id, self.teacher.inference_seconds)

        # -- adaptive online learning path -------------------------------------
        if options.adapt and self.edge.maybe_sample(frame) and self.edge.upload_ready():
            self.num_uploads += 1
            batch = self.edge.take_upload_batch()
            encoded = self.encoder.encode_buffer(
                [f.motion for f in batch], contiguous=False
            )
            upload = FrameBatchUpload(
                num_frames=len(batch),
                encoded_bytes=encoded.total_bytes,
                first_frame_index=batch[0].index,
            )
            alpha = self.edge.estimated_alpha()
            lam = self.edge.utilization_at(now, self.dataset.fps)
            self.transport.send_upload(scheduler, self, upload, batch, alpha, lam, now)

    def on_labels(
        self, response: LabelingResponse, now: float, scheduler: EventScheduler
    ) -> None:
        """Apply labels: adjust sampling, train at the edge or pool for AMS."""
        options = self.options
        self.accountant.record_downlink(
            LabelDownload(
                num_frames=len(response.labeled_frames), num_boxes=response.num_boxes
            )
        )
        if options.adaptive_sampling:
            self.edge.set_sampling_rate(response.new_sampling_rate)
        self.rate_history.append((now, self.edge.sampling_rate))

        if options.train_location == "edge":
            self.edge.receive_labels(response.labeled_frames)
            if self.edge.training_ready():
                window = self.edge.run_training_session(now)
                scheduler.schedule(
                    TrainingDone(
                        time=window.end, camera_id=self.camera_id, window=window
                    )
                )
        else:  # AMS: fine-tune in the cloud, stream the model back
            self.cloud_actor.on_labels_for_training(
                self, response.labeled_frames, now, scheduler
            )

    def on_training_done(self, event: TrainingDone) -> None:
        """No state change: the window was recorded by :class:`EdgeDevice`
        when training started; this event only marks the device release
        on the timeline (schedulers can key off it)."""

    def on_model_download(self, event: ModelDownloadComplete) -> None:
        """Install freshly streamed student weights on the edge (AMS)."""
        self.edge.apply_model_update(event.model_state)

    # -- result assembly ------------------------------------------------------
    def build_result(self, cloud_gpu_seconds: float) -> SessionResult:
        """Assemble this camera's per-session metrics after the run."""
        duration = self.dataset.num_frames / self.dataset.fps
        mean_motion = self.motion_total / max(1, self.dataset.num_frames)
        fps_trace, util_trace = self._build_traces(duration, self.dataset.fps, mean_motion)
        return SessionResult(
            strategy_name=self.options.name,
            dataset_name=self.dataset.name,
            evaluated_frame_indices=self.evaluated_indices,
            detections_per_frame=self.detections_per_frame,
            ground_truth_per_frame=self.ground_truth_per_frame,
            domain_per_frame=self.domain_per_frame,
            bandwidth=self.accountant.summary(duration),
            fps_trace=fps_trace,
            utilization_trace=util_trace,
            sampling_rate_history=self.rate_history,
            training_reports=[w.report for w in self.edge.training_windows],
            training_windows=list(self.edge.training_windows),
            cloud_gpu_seconds=cloud_gpu_seconds,
            duration_seconds=duration,
            num_uploads=self.num_uploads,
        )

    # -- derived traces -----------------------------------------------------
    def _build_traces(
        self, duration: float, video_fps: float, mean_motion: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-second FPS and utilisation traces from the simulated timeline."""
        seconds = max(1, int(np.ceil(duration)))
        fps_trace = np.zeros(seconds)
        util_trace = np.zeros(seconds)

        if self.options.use_cloud_detections:
            # Cloud-Only: each frame waits for upload + teacher + download
            per_frame = (
                self.link_config.rtt_seconds
                + self.teacher.inference_seconds
                + self._cloud_only_transfer_seconds(mean_motion, video_fps)
            )
            cloud_fps = min(video_fps, 1.0 / per_frame)
            fps_trace[:] = cloud_fps
            util_trace[:] = 0.05  # the edge only forwards frames
            return fps_trace, util_trace

        busy_fps = min(video_fps, self.edge_compute.fps_while_training)
        idle_fps = min(video_fps, self.edge_compute.max_fps)
        overlap = self._training_overlap_trace(seconds)
        fps_trace[:] = overlap * busy_fps + (1 - overlap) * idle_fps
        for second in range(seconds):
            util_trace[second] = self.edge.utilization_at(second + 0.5, video_fps)
        return fps_trace, util_trace

    def _training_overlap(self, second: int) -> float:
        """Fraction of the interval [second, second+1) covered by training."""
        start, end = float(second), float(second + 1)
        overlap = 0.0
        for window in self.edge.training_windows:
            overlap += max(0.0, min(end, window.end) - max(start, window.start))
        return min(1.0, overlap)

    def _training_overlap_trace(self, seconds: int) -> np.ndarray:
        """Per-second training-overlap fractions for all ``seconds`` at once.

        Vectorised over seconds but accumulated window-by-window in the
        same order as :meth:`_training_overlap`, so each element sees the
        identical float additions (bit-for-bit with the scalar loop).
        """
        starts = np.arange(seconds, dtype=np.float64)
        ends = starts + 1.0
        overlap = np.zeros(seconds)
        for window in self.edge.training_windows:
            overlap += np.maximum(
                0.0, np.minimum(ends, window.end) - np.maximum(starts, window.start)
            )
        return np.minimum(1.0, overlap)

    def _cloud_only_transfer_seconds(self, mean_motion: float, video_fps: float) -> float:
        """Per-frame network time for the Cloud-Only strategy.

        Reuses the stream's own encoder so there is a single source of
        truth for the nominal pixel count.
        """
        frame_bytes = self.encoder.stream_bytes_per_second(video_fps, mean_motion) / video_fps
        up = frame_bytes * 8 / (self.link_config.uplink_kbps * 1000.0)
        down_bytes = ResultDownload(num_boxes=4).size_bytes()
        down = down_bytes * 8 / (self.link_config.downlink_kbps * 1000.0)
        return up + down


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------
class SessionKernel:
    """Drives edge/cloud actors over an event scheduler until streams drain.

    Frames are scheduled lazily — one in-flight :class:`FrameArrival`
    per camera — so a fleet of long streams never materialises more
    than one rendered frame per camera at a time.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        edge_actors: dict[int, EdgeActor],
        cloud_actor: "CloudActor",
        transport: InstantTransport | SharedLinkTransport,
        streams: dict[int, Iterator[Frame]],
        autoscaler: object | None = None,
        channel: object | None = None,
        journal: object | None = None,
    ) -> None:
        # ``cloud_actor`` may equally be a cluster
        # (:class:`~repro.core.cluster.CloudCluster`): anything exposing
        # the on_upload / on_labeling_done handlers routes here.
        # ``autoscaler`` is the fleet's AutoscaleController (None for
        # single-camera sessions, which never schedule ticks).
        # ``channel`` is the fleet's ReliableChannel under a fault plan
        # (None otherwise): tracked deliveries pass its idempotency gate
        # before reaching their handler, and RetryTimer events route to
        # it.  ``journal`` is an EventJournal (or replay cursor): every
        # dispatched event is recorded before it is handled.
        self.scheduler = scheduler
        self.edge_actors = edge_actors
        self.cloud_actor = cloud_actor
        self.transport = transport
        self.streams = streams
        self.autoscaler = autoscaler
        self.channel = channel
        self._journal = journal
        # a per-kernel copy of the dispatch table: _resolve_handler
        # caches event subclasses into it
        self._handlers: dict[type, Callable[[SessionKernel, Event], None]] = dict(
            self._HANDLERS
        )

    def _schedule_next_frame(self, camera_id: int) -> None:
        frame = next(self.streams[camera_id], None)
        if frame is not None:
            self.scheduler.schedule(
                FrameArrival(time=frame.timestamp, camera_id=camera_id, frame=frame)
            )

    def run(self, horizon: float | None = None) -> None:
        """Dispatch until drained; events strictly after ``horizon`` are dropped.

        The single-camera facade passes the last frame's timestamp as the
        horizon so that e.g. a model download still in flight when the
        stream ends is discarded — exactly what the monolithic loop did.
        The drive loop itself is :meth:`EventScheduler.run`, whose fused
        pop dispatches each event with a single heap traversal.
        """
        for camera_id in self.edge_actors:
            self._schedule_next_frame(camera_id)
        until = None if horizon is None else horizon + 1e-9
        self.scheduler.run(self.dispatch, until=until)

    def dispatch(self, event: Event) -> None:
        """Route one popped event to the actor (or controller) that handles it."""
        if self._journal is not None:
            self._journal.record_event(event)
        handler = self._handlers.get(type(event))
        if handler is None:
            handler = self._resolve_handler(event)
        handler(self, event)

    def _resolve_handler(
        self, event: Event
    ) -> "Callable[[SessionKernel, Event], None]":
        """isinstance fallback for Event subclasses; caches the concrete type."""
        for event_type, handler in list(self._handlers.items()):
            if isinstance(event, event_type):
                self._handlers[type(event)] = handler
                return handler
        raise TypeError(f"unroutable event: {event!r}")

    # -- per-type handlers ---------------------------------------------------
    def _handle_frame(self, event: FrameArrival) -> None:
        self.edge_actors[event.camera_id].on_frame(
            event.frame, event.time, self.scheduler
        )
        self._schedule_next_frame(event.camera_id)

    def _handle_upload(self, event: UploadComplete) -> None:
        # the transfer is retired (and the pipe re-projected) even when
        # dedup drops the delivery: the duplicate's bits really crossed
        self.transport.uplink_delivered(self.scheduler, event.time, event=event)
        if self.channel is not None and not self.channel.accept(
            event.message_id, self.scheduler
        ):
            return
        self.cloud_actor.on_upload(event, self.scheduler)

    def _handle_labeling_done(self, event: LabelingDone) -> None:
        self.cloud_actor.on_labeling_done(event, self.scheduler)

    def _handle_labels(self, event: LabelsReady) -> None:
        self.transport.downlink_delivered(self.scheduler, event.time, event=event)
        if self.channel is not None and not self.channel.accept(
            event.message_id, self.scheduler
        ):
            return
        self.edge_actors[event.camera_id].on_labels(
            event.response, event.time, self.scheduler
        )

    def _handle_model_download(self, event: ModelDownloadComplete) -> None:
        self.transport.downlink_delivered(self.scheduler, event.time, event=event)
        if self.channel is not None and not self.channel.accept(
            event.message_id, self.scheduler
        ):
            return
        self.edge_actors[event.camera_id].on_model_download(event)

    def _handle_training_done(self, event: TrainingDone) -> None:
        self.edge_actors[event.camera_id].on_training_done(event)

    def _handle_autoscale(self, event: AutoscaleTick) -> None:
        if self.autoscaler is None:
            raise TypeError(
                "AutoscaleTick scheduled but no autoscale controller "
                "is attached to this kernel"
            )
        self.autoscaler.on_tick(event, self.scheduler)

    def _handle_batch_timeout(self, event: "BatchTimeout") -> None:
        # only clusters with a FleetBatcher schedule these; the cluster
        # flushes the forming batch the timer was guarding
        on_batch_timeout = getattr(self.cloud_actor, "on_batch_timeout", None)
        if on_batch_timeout is None:
            raise TypeError(
                "BatchTimeout scheduled but no fleet batcher is attached "
                "to this kernel's cloud actor"
            )
        on_batch_timeout(event, self.scheduler)

    def _handle_revocation(self, event: RevocationEvent) -> None:
        # only clusters with a revocation process schedule these;
        # the cluster routes the kill to the tagged worker
        self.cloud_actor.on_revocation(event, self.scheduler)

    def _handle_crash(self, event: WorkerCrashEvent) -> None:
        # only clusters armed with a FaultPlan schedule these; the
        # cluster supervisor kills the victim and restarts a replacement
        self.cloud_actor.on_crash(event, self.scheduler)

    def _handle_link_partition(self, event: LinkPartitionEvent) -> None:
        # only fault plans with partitions enabled schedule these; the
        # fleet's federated transport pauses (cut) or resumes (heal) the
        # tagged region's link and re-projects its pending completions —
        # a cut cancels them (nothing can complete while partitioned), a
        # heal reschedules them from the preserved remaining bits
        on_partition = getattr(self.transport, "on_partition", None)
        if on_partition is None:
            raise TypeError(
                "LinkPartitionEvent scheduled but this kernel's transport "
                "cannot partition"
            )
        on_partition(event, self.scheduler)

    def _handle_retry_timer(self, event: RetryTimer) -> None:
        if self.channel is None:
            raise TypeError(
                "RetryTimer scheduled but no reliable channel is attached "
                "to this kernel"
            )
        self.channel.on_timer(event, self.scheduler)

    def _handle_region_outage(self, event: "RegionOutageEvent") -> None:
        # only federated sessions schedule these; the federation cuts
        # (or heals) the tagged region and fails cameras over
        on_region_outage = getattr(self.cloud_actor, "on_region_outage", None)
        if on_region_outage is None:
            raise TypeError(
                "RegionOutageEvent scheduled but this kernel's cloud actor "
                "is not a federation"
            )
        on_region_outage(event, self.scheduler)

    def _handle_replication_tick(self, event: "ReplicationTick") -> None:
        # only federated sessions schedule these; the federation
        # snapshots per-tenant student weights across regions
        on_replication_tick = getattr(self.cloud_actor, "on_replication_tick", None)
        if on_replication_tick is None:
            raise TypeError(
                "ReplicationTick scheduled but this kernel's cloud actor "
                "is not a federation"
            )
        on_replication_tick(event, self.scheduler)

    # exact-type dispatch table: one dict lookup per event instead of
    # an isinstance chain (the chain cost ~7 checks for the rarest
    # event types, millions of times per fleet run).  It holds plain
    # functions, called as handler(kernel, event): a table of bound
    # methods would make the kernel refer to itself, so a finished run
    # could only be freed by the cyclic collector
    _HANDLERS = {
        FrameArrival: _handle_frame,
        UploadComplete: _handle_upload,
        LabelingDone: _handle_labeling_done,
        LabelsReady: _handle_labels,
        ModelDownloadComplete: _handle_model_download,
        TrainingDone: _handle_training_done,
        AutoscaleTick: _handle_autoscale,
        BatchTimeout: _handle_batch_timeout,
        RevocationEvent: _handle_revocation,
        WorkerCrashEvent: _handle_crash,
        LinkPartitionEvent: _handle_link_partition,
        RetryTimer: _handle_retry_timer,
        RegionOutageEvent: _handle_region_outage,
        ReplicationTick: _handle_replication_tick,
    }
