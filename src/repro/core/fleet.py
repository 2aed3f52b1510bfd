"""Multi-camera fleet sessions: N streams sharing one cloud and one link.

This is where the event kernel pays off.  A :class:`FleetSession` runs N
heterogeneous camera streams — each with its own dataset, strategy and
student copy — against a *single* :class:`~repro.core.cloud.CloudServer`
and a *single* processor-sharing
:class:`~repro.network.link.SharedLink`:

* uploads from different cameras contend for the shared uplink, so
  transfer times stretch with fleet size;
* labeling requests — and, for unified-queue policies, AMS
  cloud-training jobs — are placed onto the GPU workers of a
  :class:`~repro.core.cluster.CloudCluster` (one worker by default) by
  a pluggable :class:`~repro.core.scheduling.PlacementPolicy`; each
  worker drains its own queue with a pluggable
  :class:`~repro.core.scheduling.GpuScheduler` (FIFO merged-batch by
  default; staleness-priority, weighted-fair, admission-control and
  drift-aware policies ship too), so labeling latency grows with load
  and the *shape* of that growth is a policy choice;
* GPU time is accounted per tenant and busy time per worker, which is
  what capacity planning (how many cameras can one V100 serve — and
  how many V100s does this fleet need?) requires.

The cloud is always reached through a
:class:`~repro.core.federation.Federation`: one region (one cluster
behind one link, as above) by default, several WAN-profiled regions
with ``regions=[...]``.  Both run the same code path.

Every camera still produces a full per-camera
:class:`~repro.core.session.SessionResult`, plus fleet-level aggregates
(queue delays, per-tenant GPU seconds, cloud busy time).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from functools import cached_property
from operator import attrgetter

import numpy as np

from repro.core.actors import EdgeActor, SessionKernel, SharedLinkTransport
from repro.core.adaptive_training import AdaptiveTrainer, ReplaySeed
from repro.core.autoscaling import AutoscalePolicy, ScalingEvent
from repro.core.cloud import CloudServer
from repro.core.batching import BatchPolicy, FleetBatcher
from repro.core.cluster import (
    CloudCluster,
    RevocationProcess,
    RevocationRecord,
    SchedulerSpec,
)
from repro.core.config import ShoggothConfig
from repro.core.edge import EdgeDevice
from repro.core.faults import CrashRecord, FaultPlan, FaultySharedLink, ReliableChannel
from repro.core.federation import Federation, RegionSelector, RegionSpec
from repro.core.sampling import SamplingRateController
from repro.core.scheduling import PlacementPolicy, WorkerSpec, jain_fairness
from repro.core.session import SessionOptions, SessionResult, resolve_session_config
from repro.core.strategies import build_strategy
from repro.detection.student import StudentDetector
from repro.detection.teacher import TeacherDetector
from repro.network.link import LinkConfig, SharedLink, WanProfile
from repro.runtime.device import CloudComputeModel, EdgeComputeModel
from repro.runtime.journal import stable_digest
from repro.runtime.metrics import reduce_metric
from repro.runtime.events import (
    EventScheduler,
    LinkPartitionEvent,
    RegionOutageEvent,
    ReplicationTick,
    WorkerCrashEvent,
)
from repro.video.datasets import DatasetSpec
from repro.video.encoding import H264Encoder
from repro.video.stream import VideoStream

__all__ = ["CameraSpec", "FleetCameraResult", "FleetResult", "FleetSession"]


@dataclass(frozen=True)
class CameraSpec:
    """One camera of the fleet: its stream, strategy, seeds and GPU share.

    Invalid specs are rejected at construction — a non-positive weight
    would otherwise corrupt per-tenant GPU accounting (division by the
    weight) mid-run.  Non-positive stream rates/lengths are already
    impossible: :class:`~repro.video.stream.StreamConfig` validates
    them before a :class:`DatasetSpec` can exist.
    """

    name: str
    dataset: DatasetSpec
    #: a registered strategy name ("shoggoth", "ams", ...) or explicit options
    strategy: str | SessionOptions = "shoggoth"
    config: ShoggothConfig | None = None
    seed: int = 0
    #: relative GPU share under :class:`WeightedFairScheduler` (ignored
    #: by the other policies)
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("camera name must be non-empty")
        if not self.weight > 0:
            raise ValueError(
                f"camera weights must be positive, got {self.weight!r} "
                f"for {self.name!r}"
            )

    def resolve_options(self) -> SessionOptions:
        """Resolve the strategy name (or explicit options) to run with."""
        if isinstance(self.strategy, SessionOptions):
            return self.strategy
        return build_strategy(self.strategy).options


@dataclass(frozen=True)
class FleetCameraResult:
    """One camera's outcome inside a fleet run."""

    camera: str
    session: SessionResult
    gpu_seconds: float
    upload_latencies: list[float] = field(default_factory=list)
    #: uploads the cloud scheduler rejected (admission control)
    rejected_uploads: int = 0

    @property
    def mean_upload_latency(self) -> float:
        """Mean uplink transfer time of this camera's uploads (seconds)."""
        return reduce_metric(self.upload_latencies)


@dataclass(frozen=True)
class FleetResult:
    """Everything a fleet run produces."""

    cameras: list[FleetCameraResult]
    queue_waits: list[float]
    cloud_gpu_seconds: float
    cloud_busy_seconds: float
    duration_seconds: float
    num_labeling_batches: int
    gpu_seconds_by_camera: dict[str, float]
    #: which GPU scheduling policy served the fleet (per worker)
    scheduler: str = "fifo"
    #: queue delays of AMS cloud-training jobs (empty under FIFO bypass)
    training_waits: list[float] = field(default_factory=list)
    #: sharded-cloud shape: GPU workers and the placement that fed them
    num_gpus: int = 1
    placement: str = "round_robin"
    #: per-GPU busy seconds (one entry per worker ever provisioned;
    #: sums to ``cloud_busy_seconds``)
    gpu_busy_by_worker: list[float] = field(default_factory=list)
    #: how often each camera's jobs moved between workers
    migrations_by_camera: dict[str, int] = field(default_factory=dict)
    #: which autoscale policy (if any) resized the cluster ("none" = fixed)
    autoscaler: str = "none"
    #: the scaling timeline: one entry per worker added or drained
    scaling_events: list[ScalingEvent] = field(default_factory=list)
    #: integral of provisioned GPUs over the run (GPU-seconds) — the
    #: capacity the operator paid for, as opposed to ``cloud_busy_seconds``
    #: (the capacity actually used)
    gpu_seconds_provisioned: float = 0.0
    #: the autoscale policy's queue-delay SLO (None = no latency target)
    slo_seconds: float | None = None
    #: fraction of labeling jobs whose queue delay exceeded the policy's
    #: SLO (0.0 when the policy has no latency target — check
    #: ``slo_seconds`` to tell "met the SLO" from "had none")
    slo_violation_fraction: float = 0.0
    #: hardware profile of every worker ever provisioned (index = id)
    worker_specs: list[WorkerSpec] = field(default_factory=list)
    #: what the run's capacity cost in dollars: Σ per-worker cost rate ×
    #: provisioned wall-seconds (equals ``gpu_seconds_provisioned`` for
    #: the default all-on-demand rate of 1.0)
    dollar_cost: float = 0.0
    #: provisioned GPU-seconds split by billing tier ("on_demand"/"spot")
    gpu_seconds_by_tier: dict[str, float] = field(default_factory=dict)
    #: spot revocations that hit, in time order (with recovery details)
    revocation_records: list[RevocationRecord] = field(default_factory=list)
    #: in-flight jobs killed by revocations and redone from scratch
    num_relabeled_jobs: int = 0
    #: in-flight jobs killed by revocations and checkpoint-resumed
    num_checkpoint_resumed_jobs: int = 0
    #: wall-clock GPU work thrown away by relabel-mode revocations
    wasted_gpu_seconds: float = 0.0
    #: short description of the injected fault plan ("none" = fault-free)
    fault_plan: str = "none"
    #: injected worker crashes that hit, in time order (recovery details)
    crash_records: list[CrashRecord] = field(default_factory=list)
    #: in-flight jobs killed by crashes and re-placed on the replacement
    num_crash_recovered_jobs: int = 0
    #: wall-clock GPU work crashes threw away (relabel recovery only)
    crash_wasted_gpu_seconds: float = 0.0
    #: messages the faulty link dropped / cloned / slowed down
    num_lost_messages: int = 0
    num_duplicated_messages: int = 0
    num_delayed_messages: int = 0
    #: retransmissions the edge retry timers fired
    num_retries: int = 0
    #: duplicate deliveries the cloud's dedup layer swallowed
    num_duplicate_drops: int = 0
    #: deliveries that arrived after their message was abandoned
    num_late_drops: int = 0
    #: distinct reliable messages sent / acknowledged over the run
    num_messages_sent: int = 0
    num_messages_delivered: int = 0
    #: messages still awaiting delivery when the run ended
    num_messages_in_flight: int = 0
    #: distinct messages sent / given up on, split by kind
    #: ("upload"/"labels"/"model"); empty without a fault plan
    sends_by_kind: dict[str, int] = field(default_factory=dict)
    abandoned_by_kind: dict[str, int] = field(default_factory=dict)
    #: cluster-wide batch policy that coalesced labeling jobs ("none" =
    #: per-worker batching, the pre-batching serving path)
    batching: str = "none"
    #: merged batches the fleet batcher dispatched / jobs inside them
    num_merged_batches: int = 0
    num_batched_jobs: int = 0
    #: frames that received teacher labels via the queued GPU path (the
    #: serving-throughput numerator: labels/sec = this / busy seconds)
    num_labeled_frames: int = 0
    #: per-region metrics dicts, in region-index order — empty for the
    #: degenerate 1-region federation (whose result is pinned
    #: bit-for-bit to the pre-federation single-cluster run)
    region_metrics: list[dict] = field(default_factory=list)
    #: which region-homing policy placed the cameras ("" = degenerate run)
    region_selector: str = ""
    #: cameras moved between regions (failover + heal re-homing)
    num_region_migrations: int = 0
    #: orphaned jobs handed off across regions by outage failover
    num_region_job_handoffs: int = 0
    #: region outage cuts that hit (failover or partition-only)
    num_region_outages: int = 0
    #: bytes that crossed any region's WAN (sends, retries, replication)
    wan_bytes: float = 0.0
    #: WAN egress spend; ``dollar_cost`` includes it for federated runs
    wan_dollar_cost: float = 0.0

    @property
    def num_crashes(self) -> int:
        """How many injected crashes took down an active worker."""
        return len(self.crash_records)

    @property
    def num_abandoned_messages(self) -> int:
        """Messages the edge gave up on after exhausting its retries."""
        return sum(self.abandoned_by_kind.values())

    @property
    def num_abandoned_uploads(self) -> int:
        """Frame-batch uploads lost for good (never labeled)."""
        return self.abandoned_by_kind.get("upload", 0)

    @property
    def label_loss_fraction(self) -> float:
        """Share of distinct uploads that never produced labels.

        0.0 both when every upload made it and when no fault plan was
        attached (check ``fault_plan`` to tell the two apart).
        """
        sent = self.sends_by_kind.get("upload", 0)
        return self.num_abandoned_uploads / sent if sent > 0 else 0.0

    def fingerprint(self) -> str:
        """Order-stable digest of every exact metric in the result.

        Two runs agree on this digest iff they agree on queue waits,
        GPU accounting, placement/migration behaviour, fault counters
        and per-camera outcomes — it is the journal's end-state check:
        replaying a journal must land on the live run's fingerprint.
        Only exact (event-driven) quantities participate; derived
        reductions (percentiles, fairness indices) would add float noise
        without adding discrimination.
        """
        payload = {
            "queue_waits": list(self.queue_waits),
            "training_waits": list(self.training_waits),
            "cloud_gpu_seconds": self.cloud_gpu_seconds,
            "cloud_busy_seconds": self.cloud_busy_seconds,
            "duration_seconds": self.duration_seconds,
            "num_labeling_batches": self.num_labeling_batches,
            "gpu_seconds_by_camera": self.gpu_seconds_by_camera,
            "gpu_busy_by_worker": list(self.gpu_busy_by_worker),
            "migrations_by_camera": self.migrations_by_camera,
            "gpu_seconds_provisioned": self.gpu_seconds_provisioned,
            "dollar_cost": self.dollar_cost,
            "gpu_seconds_by_tier": self.gpu_seconds_by_tier,
            "num_scaling_events": len(self.scaling_events),
            "num_revocations": self.num_revocations,
            "wasted_gpu_seconds": self.wasted_gpu_seconds,
            "fault_plan": self.fault_plan,
            "num_crashes": self.num_crashes,
            "num_crash_recovered_jobs": self.num_crash_recovered_jobs,
            "crash_wasted_gpu_seconds": self.crash_wasted_gpu_seconds,
            "num_lost_messages": self.num_lost_messages,
            "num_duplicated_messages": self.num_duplicated_messages,
            "num_delayed_messages": self.num_delayed_messages,
            "num_retries": self.num_retries,
            "num_duplicate_drops": self.num_duplicate_drops,
            "num_late_drops": self.num_late_drops,
            "num_messages_sent": self.num_messages_sent,
            "num_messages_delivered": self.num_messages_delivered,
            "num_messages_in_flight": self.num_messages_in_flight,
            "sends_by_kind": self.sends_by_kind,
            "abandoned_by_kind": self.abandoned_by_kind,
            "batching": self.batching,
            "num_merged_batches": self.num_merged_batches,
            "num_batched_jobs": self.num_batched_jobs,
            "num_labeled_frames": self.num_labeled_frames,
            "cameras": [
                {
                    "camera": entry.camera,
                    "gpu_seconds": entry.gpu_seconds,
                    "rejected_uploads": entry.rejected_uploads,
                    "upload_latencies": list(entry.upload_latencies),
                    "num_uploads": entry.session.num_uploads,
                }
                for entry in self.cameras
            ],
        }
        if self.region_metrics:
            # federated runs only: absent keys keep every pre-federation
            # (and degenerate 1-region) fingerprint byte-identical
            payload["region_metrics"] = list(self.region_metrics)
            payload["region_selector"] = self.region_selector
            payload["num_region_migrations"] = self.num_region_migrations
            payload["num_region_job_handoffs"] = self.num_region_job_handoffs
            payload["num_region_outages"] = self.num_region_outages
            payload["wan_bytes"] = self.wan_bytes
            payload["wan_dollar_cost"] = self.wan_dollar_cost
        return stable_digest(payload, length=64)

    @property
    def num_revocations(self) -> int:
        """How many spot workers lost their capacity mid-run."""
        return len(self.revocation_records)

    @property
    def spot_gpu_seconds(self) -> float:
        """Provisioned GPU-seconds billed at the spot tier."""
        return self.gpu_seconds_by_tier.get("spot", 0.0)

    @property
    def spot_fraction(self) -> float:
        """Share of provisioned capacity that ran on spot workers."""
        total = sum(self.gpu_seconds_by_tier.values())
        return self.spot_gpu_seconds / total if total > 0 else 0.0

    @property
    def num_cameras(self) -> int:
        """How many cameras the fleet ran."""
        return len(self.cameras)

    @property
    def labels_per_busy_second(self) -> float:
        """Serving throughput: labeled frames per GPU-busy wall-second.

        The saturation-robust labels/sec definition the serving
        benchmark compares batch policies on: unlike frames divided by
        episode duration, it does not flatter a configuration that was
        simply under-loaded.  0.0 for runs whose GPUs never went busy.
        """
        if self.cloud_busy_seconds <= 0:
            return 0.0
        return self.num_labeled_frames / self.cloud_busy_seconds

    @property
    def mean_merged_batch_jobs(self) -> float:
        """Mean labeling jobs per merged cluster-wide batch (0.0 = no batcher)."""
        if self.num_merged_batches == 0:
            return 0.0
        return self.num_batched_jobs / self.num_merged_batches

    @property
    def num_migrations(self) -> int:
        """Total cross-worker camera moves over the run."""
        return sum(self.migrations_by_camera.values())

    @property
    def num_scale_outs(self) -> int:
        """Workers added by the autoscaler over the run."""
        return sum(1 for event in self.scaling_events if event.action == "scale_out")

    @property
    def num_scale_ins(self) -> int:
        """Workers drained by the autoscaler over the run."""
        return sum(1 for event in self.scaling_events if event.action == "scale_in")

    @property
    def mean_gpu_count(self) -> float:
        """Time-weighted mean provisioned GPU count over the run."""
        if self.duration_seconds <= 0:
            return float(self.num_gpus)
        capacity = self.gpu_seconds_provisioned or (
            self.num_gpus * self.duration_seconds
        )
        return capacity / self.duration_seconds

    @property
    def peak_num_gpus(self) -> int:
        """Largest number of simultaneously active workers over the run."""
        count = peak = self.num_gpus
        for event in self.scaling_events:
            count = event.num_gpus_after
            peak = max(peak, count)
        return peak

    @property
    def final_num_gpus(self) -> int:
        """Active workers when the run ended (== ``num_gpus`` if fixed)."""
        if not self.scaling_events:
            return self.num_gpus
        return self.scaling_events[-1].num_gpus_after

    @cached_property
    def _waits(self) -> np.ndarray:
        """Queue delays as one cached float array.

        The p95/mean/max properties are called repeatedly by sweeps and
        autoscalers' reporting; converting ``queue_waits`` (a Python
        list, possibly millions of entries at fleet scale) once instead
        of per call keeps those reductions O(1) allocations.
        ``cached_property`` stores into the instance ``__dict__``
        directly, so it works on this frozen dataclass.
        """
        return np.asarray(self.queue_waits, dtype=np.float64)

    @property
    def p95_queue_delay(self) -> float:
        """95th-percentile labeling-queue delay over the whole run (seconds)."""
        return reduce_metric(
            self._waits, reducer=lambda w: np.percentile(w, 95.0)
        )

    @property
    def mean_queue_delay(self) -> float:
        """Mean labeling-queue delay over the whole run (seconds)."""
        return reduce_metric(self._waits)

    @property
    def max_queue_delay(self) -> float:
        """Worst labeling-queue delay over the whole run (seconds)."""
        return reduce_metric(self._waits, reducer=np.max)

    @property
    def mean_training_wait(self) -> float:
        """Mean queue delay of AMS cloud-training jobs (seconds)."""
        return reduce_metric(self.training_waits)

    @property
    def rejected_by_camera(self) -> dict[str, int]:
        """Uploads admission control turned away, per camera name."""
        return {entry.camera: entry.rejected_uploads for entry in self.cameras}

    @property
    def num_rejected_uploads(self) -> int:
        """Total uploads admission control turned away."""
        return sum(self.rejected_by_camera.values())

    @property
    def gpu_fairness(self) -> float:
        """Jain's index over per-tenant GPU-seconds (1.0 = perfectly even).

        Per-tenant seconds are summed across all GPU workers before the
        index is taken, so the sharded and single-GPU clouds report the
        same quantity (a per-shard index averaged over shards would
        overstate fairness whenever tenants concentrate on one worker).
        """
        return jain_fairness(self.gpu_seconds_by_camera.values())

    @property
    def worker_utilizations(self) -> list[float]:
        """Per-GPU busy fraction of the run (one entry per worker)."""
        if self.duration_seconds <= 0:
            return [0.0 for _ in self.gpu_busy_by_worker]
        return [
            min(1.0, busy / self.duration_seconds) for busy in self.gpu_busy_by_worker
        ]

    @property
    def cloud_utilization(self) -> float:
        """Busy fraction of the cloud's *provisioned* GPU capacity.

        Shard-aware: the denominator is the provisioned GPU-seconds
        integral (``num_gpus × duration`` for a fixed cluster), i.e.
        per-GPU busy time weighted into one capacity pool, so a 4-GPU
        cloud at 25% per worker reports 0.25 — not the sum of per-GPU
        fractions (>1) or their naive average over a wrong base.  With
        one fixed GPU this reduces exactly to the pre-sharding
        definition; under autoscaling the denominator follows the
        cluster's actual size over time.
        """
        if self.duration_seconds <= 0:
            return 0.0
        capacity = self.gpu_seconds_provisioned or (
            max(1, self.num_gpus) * self.duration_seconds
        )
        return min(1.0, self.cloud_busy_seconds / capacity)

    @property
    def load_imbalance(self) -> float:
        """Max over mean per-GPU busy time (1.0 = perfectly balanced)."""
        busy = self.gpu_busy_by_worker or [self.cloud_busy_seconds]
        mean = sum(busy) / len(busy)
        if mean <= 0:
            return 1.0
        return max(busy) / mean

    @property
    def gpu_load_fairness(self) -> float:
        """Jain's index over per-GPU busy seconds (load-balance quality)."""
        return jain_fairness(self.gpu_busy_by_worker or [self.cloud_busy_seconds])

    def session(self, camera: str) -> SessionResult:
        """Full per-camera :class:`SessionResult` looked up by camera name."""
        for entry in self.cameras:
            if entry.camera == camera:
                return entry.session
        raise KeyError(f"no camera named {camera!r}")


def _replay_seed_digest(images: np.ndarray, labels: list) -> str:
    """Journal-safe identity of the replay seed's images and labels."""
    images = np.ascontiguousarray(images)
    return stable_digest(
        {
            "images": hashlib.sha256(images.tobytes()).hexdigest(),
            "dtype": images.dtype.str,
            "shape": list(images.shape),
            "labels": [
                [[box.class_id, box.cx, box.cy, box.w, box.h] for box in boxes]
                for boxes in labels
            ],
        },
        length=64,
    )


class FleetSession:
    """N cameras, one cloud (1..N GPUs in 1..N regions), shared links.

    Each camera starts from a fresh clone of the pre-trained student and
    resolves its own strategy/config exactly as a standalone
    :class:`CollaborativeSession` would; only the *resources* (teacher
    GPUs, uplink/downlink) are shared.  ``scheduler`` picks the per-GPU
    sharing policy — a :class:`GpuScheduler` instance or a registered
    policy name (``"fifo"``, ``"staleness"``, ``"weighted_fair"``,
    ``"admission"``, ``"drift"``); the default FIFO policy reproduces
    the pre-scheduler fleet behaviour exactly.  ``num_gpus`` and
    ``placement`` (``"round_robin"``, ``"least_loaded"``, ``"sticky"``,
    ``"power_of_two"``) shard the cloud into a
    :class:`~repro.core.cluster.CloudCluster`.  ``autoscaler`` picks the
    elastic-scaling policy (``"none"`` — the default, fixed cluster —,
    ``"slo"``, ``"step"`` or an
    :class:`~repro.core.autoscaling.AutoscalePolicy` instance) that may
    grow/shrink the cluster online from the queue-delay signal.
    ``worker_specs`` describes the hardware mix (speed / cost rate /
    spot flag per worker), ``revocations`` attaches a
    :class:`~repro.core.cluster.RevocationProcess` that kills spot
    workers mid-run, and ``revocation_mode`` picks how interrupted jobs
    recover (``"relabel"`` from scratch or ``"checkpoint"`` resume).
    ``link_config`` shapes the shared link, or ``link`` passes a ready
    one.  ``faults`` attaches a seeded
    :class:`~repro.core.faults.FaultPlan`: the link is built to
    lose/duplicate/delay messages, the edge retransmits with
    exponential backoff through a
    :class:`~repro.core.faults.ReliableChannel` (the cloud dedups by
    message id), and the plan's Poisson crash process kills workers
    mid-handler with supervised recovery.

    Every fleet runs through a :class:`~repro.core.federation.Federation`.
    The per-cluster arguments above describe its one region, behind a
    free WAN; ``regions`` (a list of
    :class:`~repro.core.federation.RegionSpec`, which then carry those
    arguments per region), ``region_selector``, ``region_outages``,
    ``replication_interval_seconds`` and ``failover`` spread the cloud
    across WAN-profiled regions instead — see ``docs/federation.md``.
    ``run(journal=...)`` records the full event stream into an
    :class:`~repro.runtime.journal.EventJournal` for byte-stable
    determinism checks and exact replay.
    """

    def __init__(
        self,
        cameras: list[CameraSpec],
        student: StudentDetector,
        teacher: TeacherDetector,
        config: ShoggothConfig | None = None,
        link: SharedLink | None = None,
        link_config: LinkConfig | None = None,
        edge_compute: EdgeComputeModel | None = None,
        cloud_compute: CloudComputeModel | None = None,
        replay_seed: tuple | None = None,
        batch_overhead_seconds: float = 0.02,
        scheduler: SchedulerSpec = None,
        num_gpus: int = 1,
        placement: PlacementPolicy | str | None = None,
        autoscaler: AutoscalePolicy | str | None = None,
        worker_specs: WorkerSpec | list[WorkerSpec] | None = None,
        revocations: RevocationProcess | None = None,
        revocation_mode: str = "relabel",
        faults: FaultPlan | None = None,
        batching: "FleetBatcher | BatchPolicy | str | None" = None,
        regions: list[RegionSpec] | None = None,
        region_selector: "RegionSelector | str | None" = None,
        region_outages: list[tuple[float, float, int]] | None = None,
        replication_interval_seconds: float | None = None,
        failover: bool = True,
    ) -> None:
        if not cameras:
            raise ValueError("a fleet needs at least one camera")
        names = [spec.name for spec in cameras]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(f"camera names must be unique, duplicated: {duplicates}")
        if faults is not None and link is not None:
            raise ValueError(
                "pass either a ready link or a fault plan, not both: message "
                "faults are injected by wrapping the link the session builds"
            )
        if regions is None:
            if (
                region_selector is not None
                or region_outages
                or replication_interval_seconds is not None
            ):
                raise ValueError(
                    "region_selector / region_outages / "
                    "replication_interval_seconds require regions=[...]"
                )
            if link is not None:
                link_config = link.config
            regions = [
                RegionSpec(
                    name="default",
                    num_gpus=num_gpus,
                    wan=WanProfile(**asdict(link_config or LinkConfig())),
                    scheduler=scheduler,
                    placement=placement,
                    worker_specs=worker_specs,
                    batching=batching,
                    autoscaler=autoscaler,
                    revocations=revocations,
                    revocation_mode=revocation_mode,
                )
            ]
        elif (
            scheduler is not None
            or placement is not None
            or num_gpus != 1
            or worker_specs is not None
            or revocations is not None
            or revocation_mode != "relabel"
            or batching is not None
            or autoscaler is not None
            or link is not None
            or link_config is not None
        ):
            raise ValueError(
                "with regions=[...] the cluster/link knobs live on each "
                "RegionSpec; pass neither a ready link nor the scheduler/"
                "num_gpus/placement/worker_specs/revocations/revocation_mode/"
                "batching/autoscaler/link_config arguments"
            )
        self._scripted_region_outages: list[tuple[float, float, int]] = []
        for entry in region_outages or []:
            start, end, index = entry
            if not 0 <= int(index) < len(regions):
                raise ValueError(
                    f"region outage {entry!r} names region {index} of "
                    f"{len(regions)}"
                )
            if not float(start) < float(end):
                raise ValueError(
                    f"region outage {entry!r} must cut strictly before it heals"
                )
            self._scripted_region_outages.append(
                (float(start), float(end), int(index))
            )
        self.federation = Federation(
            regions,
            selector=region_selector,
            faults=faults,
            failover=failover,
            replication_interval_seconds=replication_interval_seconds,
        )
        if link is not None:
            self.federation.regions[0].link = link
        #: the cluster of a one-region session (None for several regions)
        self.cluster: CloudCluster | None = (
            self.federation.regions[0].cluster if len(regions) == 1 else None
        )
        # a degenerate federation — one region, zero-priced WAN, no
        # outage process, no replication — journals and fingerprints
        # without the region block, byte-identical to the runs recorded
        # before the federation layer existed; the golden pins hold it
        self._degenerate = (
            len(regions) == 1
            and self.federation.regions[0].wan.cost_per_gb == 0.0
            and not self._scripted_region_outages
            and (faults is None or not faults.injects_region_outages)
            and replication_interval_seconds is None
        )
        self.faults = faults
        self.cameras = list(cameras)
        self.student = student
        self.teacher = teacher
        self.config = config or ShoggothConfig()
        self.edge_compute = edge_compute or EdgeComputeModel()
        self.cloud_compute = cloud_compute or CloudComputeModel()
        self.replay_seed = replay_seed
        # every camera's student (and every AMS tenant's) starts as a
        # clone of ``student``, so they all share one seed forward pass
        self._shared_replay_seed = (
            None if replay_seed is None else ReplaySeed(*replay_seed, latents={})
        )
        self.batch_overhead_seconds = batch_overhead_seconds

        self.cloud = CloudServer(
            teacher,
            schedule=self.cameras[0].dataset.schedule,
            config=self.config,
            compute=self.cloud_compute,
        )
        self._ran = False

    # -- wiring ------------------------------------------------------------
    @property
    def clusters(self) -> list[CloudCluster]:
        """Every cluster in the session, in region order."""
        return self.federation.clusters

    @property
    def links(self) -> list[SharedLink]:
        """Every link in the session, in region order."""
        return [region.link for region in self.federation.regions]

    def _build_camera(
        self,
        camera_id: int,
        spec: CameraSpec,
        cloud_actor,
        transport: SharedLinkTransport,
    ) -> tuple[EdgeActor, "VideoStream"]:
        options = spec.resolve_options()
        cfg = resolve_session_config(spec.config or self.config, options)
        student = self.student.clone()

        trainer = None
        if options.adapt and options.train_location == "edge":
            trainer = AdaptiveTrainer(student, cfg.training, seed=spec.seed)
            if self._shared_replay_seed is not None:
                trainer.seed_replay(*self._shared_replay_seed)
        edge = EdgeDevice(
            student,
            config=cfg,
            compute=self.edge_compute,
            trainer=trainer,
            seed=spec.seed,
        )
        stream = spec.dataset.build()
        actor = EdgeActor(
            camera_id=camera_id,
            edge=edge,
            cloud_actor=cloud_actor,
            teacher=self.teacher,
            options=options,
            config=cfg,
            encoder=H264Encoder(stream.renderer.nominal_pixels),
            transport=transport,
            dataset=spec.dataset,
            link_config=self.federation.regions[0].link.config,
            edge_compute=self.edge_compute,
        )
        cloud_actor.register_camera(
            actor,
            schedule=spec.dataset.schedule,
            controller=SamplingRateController(cfg.sampling),
            seed=spec.seed,
            replay_seed=self._shared_replay_seed,
            weight=spec.weight,
        )
        # link_config only feeds derived (counterfactual) traces, so
        # re-pointing it at the camera's selected home region after
        # registration changes no event timing
        actor.link_config = self.federation.region_of(camera_id).link.config
        return actor, stream

    def _journal_meta(self) -> dict:
        """The run's full configuration, as canonical-JSON-safe data.

        Recorded as the journal header: replay refuses to start against
        a session whose configuration differs, and two runs can only
        produce byte-identical journals if they agree here first.
        """
        # the flat fields describe region 0: a degenerate federation
        # journals exactly the single-cluster header
        region = self.federation.regions[0]
        meta_cluster = region.cluster
        meta_link_config = region.link.config
        revocations = None
        if meta_cluster.revocations is not None:
            process = meta_cluster.revocations
            revocations = {
                "scripted": process.scripted,
                "seed": process.seed,
                "mean_uptime_seconds": process.mean_uptime_seconds,
                # seeded processes have no scripted trace to pin; their
                # draws are reproduced from (seed, provision history)
                "trace": (
                    None
                    if process.trace is None
                    else [list(entry) for entry in process.trace]
                ),
            }
        meta = {
            "kind": "fleet",
            "cameras": [
                {
                    "name": spec.name,
                    "dataset": spec.dataset.name,
                    "frames": spec.dataset.num_frames,
                    "fps": spec.dataset.fps,
                    "strategy": spec.resolve_options().name,
                    "seed": spec.seed,
                    "weight": spec.weight,
                }
                for spec in self.cameras
            ],
            "scheduler": meta_cluster.scheduler_name,
            "placement": meta_cluster.placement_name,
            "num_gpus": meta_cluster.num_gpus,
            "worker_specs": [
                {
                    "tier": spec.tier,
                    "speed": spec.speed,
                    "cost_per_gpu_second": spec.cost_per_gpu_second,
                    "preemptible": spec.preemptible,
                    "batch_scaling": spec.batch_scaling,
                }
                for spec in meta_cluster.worker_specs
            ],
            "batching": (
                None if meta_cluster.batcher is None else meta_cluster.batcher.describe()
            ),
            "revocations": revocations,
            "revocation_mode": meta_cluster.revocation_mode,
            "autoscaler": region.autoscaler.name,
            "faults": None if self.faults is None else self.faults.fingerprint(),
            "batch_overhead_seconds": self.batch_overhead_seconds,
            "link": {
                "uplink_kbps": meta_link_config.uplink_kbps,
                "downlink_kbps": meta_link_config.downlink_kbps,
                "rtt_seconds": meta_link_config.rtt_seconds,
            },
            "replay_seed": (
                None if self.replay_seed is None else _replay_seed_digest(*self.replay_seed)
            ),
        }
        if not self._degenerate:
            meta["regions"] = [region.describe() for region in self.federation.regions]
            meta["selector"] = self.federation.selector.name
            meta["failover"] = self.federation.failover
            meta["replication_interval_seconds"] = (
                self.federation.replication_interval_seconds
            )
            meta["region_outages"] = [
                list(outage) for outage in self._scripted_region_outages
            ]
        return meta

    # -- execution ------------------------------------------------------------
    def run(self, journal: object | None = None) -> FleetResult:
        """Simulate every stream against the shared cloud and link.

        ``journal`` (an :class:`~repro.runtime.journal.EventJournal`, or
        the replay cursor :meth:`~repro.runtime.journal.EventJournal.replay`
        builds) observes the run: the session configuration goes in as
        the header, every dispatched event is recorded in order, and the
        result's :meth:`FleetResult.fingerprint` seals it.  Recording is
        observation only — event timing and ordering are identical with
        and without a journal.
        """
        if self._ran:
            raise RuntimeError(
                "FleetSession can only be run once (the shared link and cloud "
                "accumulate state); construct a new session"
            )
        self._ran = True
        if journal is not None:
            journal.begin(self._journal_meta())
        fed = self.federation
        channel = None
        scheduler = EventScheduler()
        if self.faults is not None:
            self.faults.reset()
            channel = ReliableChannel(self.faults)
        duration = max(
            spec.dataset.num_frames / spec.dataset.fps for spec in self.cameras
        )
        # binds every region's cluster and starts its autoscale
        # controller; the first tick (if any) takes sequence number 0
        fed.bind(
            self.cloud,
            channel,
            batch_overhead_seconds=self.batch_overhead_seconds,
            horizon=duration,
            scheduler=scheduler,
        )
        edge_actors: dict[int, EdgeActor] = {}
        streams = {}
        for camera_id, spec in enumerate(self.cameras):
            actor, stream = self._build_camera(camera_id, spec, fed, fed.transport)
            edge_actors[camera_id] = actor
            streams[camera_id] = iter(stream)
        for region in fed.regions:
            # arm each region's spot-revocation process (no-op without
            # one): scripted traces schedule verbatim, seeded spot
            # workers draw uptimes
            region.cluster.start_revocations(scheduler, horizon=duration)
        if self.faults is not None:
            # ONE global crash process — the federation routes each draw
            # to the owning region
            for region in fed.regions:
                region.cluster.arm_faults(self.faults)
            for time, draw in self.faults.draw_crash_times(duration):
                scheduler.schedule(WorkerCrashEvent(time=time, victim_draw=draw))
            # link partitions: cut/heal pairs per region.  Heals are
            # always scheduled (the kernel drains fully), so no run ends
            # with a link still down and transfers frozen
            if fed.num_regions == 1:
                # compatibility shim: one region draws the pre-federation
                # partition stream with the default camera tag, which the
                # exactness pin and the chaos fingerprints depend on
                for start, end in self.faults.draw_partitions(duration):
                    scheduler.schedule(LinkPartitionEvent(time=start))
                    scheduler.schedule(LinkPartitionEvent(time=end, healed=True))
            else:
                for region in fed.regions:
                    pairs = self.faults.draw_partitions_for_region(
                        duration, region.index
                    )
                    for start, end in pairs:
                        scheduler.schedule(
                            LinkPartitionEvent(time=start, camera_id=region.index)
                        )
                        scheduler.schedule(
                            LinkPartitionEvent(
                                time=end, healed=True, camera_id=region.index
                            )
                        )
        outages = list(self._scripted_region_outages)
        if self.faults is not None and self.faults.injects_region_outages:
            outages.extend(
                self.faults.draw_region_outages(duration, fed.num_regions)
            )
        for start, end, region_index in outages:
            scheduler.schedule(RegionOutageEvent(time=start, region=region_index))
            scheduler.schedule(
                RegionOutageEvent(time=end, region=region_index, healed=True)
            )
        interval = fed.replication_interval_seconds
        if interval is not None and interval <= duration + 1e-9:
            scheduler.schedule(ReplicationTick(time=interval))
        kernel = SessionKernel(
            scheduler,
            edge_actors=edge_actors,
            cloud_actor=fed,
            transport=fed.transport,
            streams=streams,
            autoscaler=fed,
            channel=channel,
            journal=journal,
        )
        kernel.run()

        clusters = fed.clusters
        rejections: dict[int, int] = {}
        migrations: dict[int, int] = {}
        for cluster in clusters:
            for camera_id, count in cluster.rejections_by_camera.items():
                rejections[camera_id] = rejections.get(camera_id, 0) + count
            for camera_id, count in cluster.migrations_by_camera.items():
                migrations[camera_id] = migrations.get(camera_id, 0) + count
        gpu_seconds = fed.gpu_seconds_by_camera()
        camera_results = []
        gpu_by_name: dict[str, float] = {}
        for camera_id, spec in enumerate(self.cameras):
            actor = edge_actors[camera_id]
            gpu = gpu_seconds.get(camera_id, 0.0)
            gpu_by_name[spec.name] = gpu
            camera_results.append(
                FleetCameraResult(
                    camera=spec.name,
                    session=actor.build_result(cloud_gpu_seconds=gpu),
                    gpu_seconds=gpu,
                    upload_latencies=list(actor.upload_latencies),
                    rejected_uploads=rejections.get(camera_id, 0),
                )
            )
        queue_waits = [wait for c in clusters for wait in c.queue_waits]
        slo = fed.regions[0].autoscaler.slo_seconds
        violations = (
            int(np.count_nonzero(np.asarray(queue_waits) > slo)) / len(queue_waits)
            if slo is not None and queue_waits
            else 0.0
        )
        autoscaler_names = {region.autoscaler.name for region in fed.regions}
        scaling_events = [
            event for region in fed.regions for event in region.controller.events
        ]
        scaling_events.sort(key=lambda event: event.time)
        gpu_by_tier: dict[str, float] = {}
        for cluster in clusters:
            for tier, seconds in cluster.gpu_seconds_by_tier(duration).items():
                gpu_by_tier[tier] = gpu_by_tier.get(tier, 0.0) + seconds
        faulty_links = [
            region.link
            for region in fed.regions
            if isinstance(region.link, FaultySharedLink)
        ]
        region_fields: dict = {}
        if not self._degenerate:
            # region telemetry gates the fingerprint's extra block, so a
            # degenerate run (empty here) fingerprints as a lone cluster
            region_fields = {
                "region_metrics": fed.region_metrics(duration),
                "region_selector": fed.selector.name,
                "num_region_migrations": fed.num_region_migrations,
                "num_region_job_handoffs": fed.num_region_job_handoffs,
                "num_region_outages": fed.num_region_outages,
                "wan_bytes": fed.wan_bytes,
                "wan_dollar_cost": fed.wan_dollar_cost(),
            }
        result = FleetResult(
            cameras=camera_results,
            queue_waits=queue_waits,
            cloud_gpu_seconds=self.cloud.total_gpu_seconds,
            cloud_busy_seconds=sum(c.busy_seconds for c in clusters),
            duration_seconds=duration,
            num_labeling_batches=sum(c.num_labeling_batches for c in clusters),
            gpu_seconds_by_camera=gpu_by_name,
            scheduler=clusters[0].scheduler_name,
            training_waits=[wait for c in clusters for wait in c.training_waits],
            num_gpus=sum(c.num_gpus for c in clusters),
            placement=clusters[0].placement_name,
            gpu_busy_by_worker=[
                busy for c in clusters for busy in c.gpu_busy_by_worker
            ],
            migrations_by_camera={
                spec.name: migrations.get(camera_id, 0)
                for camera_id, spec in enumerate(self.cameras)
            },
            autoscaler=(
                fed.regions[0].autoscaler.name
                if len(autoscaler_names) == 1
                else "mixed"
            ),
            scaling_events=scaling_events,
            gpu_seconds_provisioned=sum(
                c.provisioned_gpu_seconds(duration) for c in clusters
            ),
            slo_seconds=slo,
            slo_violation_fraction=violations,
            worker_specs=[spec for c in clusters for spec in c.worker_specs],
            dollar_cost=fed.compute_dollar_cost(duration) + fed.wan_dollar_cost(),
            gpu_seconds_by_tier=gpu_by_tier,
            # stable sorts: one timeline, same-instant records in region order
            revocation_records=sorted(
                (rec for c in clusters for rec in c.revocation_log),
                key=attrgetter("time"),
            ),
            num_relabeled_jobs=sum(c.num_relabeled_jobs for c in clusters),
            num_checkpoint_resumed_jobs=sum(
                c.num_checkpoint_resumed_jobs for c in clusters
            ),
            wasted_gpu_seconds=sum(c.wasted_gpu_seconds for c in clusters),
            fault_plan="none" if self.faults is None else self.faults.describe(),
            crash_records=sorted(
                (rec for c in clusters for rec in c.crash_log), key=attrgetter("time")
            ),
            num_crash_recovered_jobs=sum(
                c.num_crash_recovered_jobs for c in clusters
            ),
            crash_wasted_gpu_seconds=sum(
                c.crash_wasted_gpu_seconds for c in clusters
            ),
            num_lost_messages=sum(link.num_lost for link in faulty_links),
            num_duplicated_messages=sum(
                link.num_duplicated for link in faulty_links
            ),
            num_delayed_messages=sum(link.num_delayed for link in faulty_links),
            num_retries=0 if channel is None else channel.num_retries,
            num_duplicate_drops=0 if channel is None else channel.num_duplicate_drops,
            num_late_drops=0 if channel is None else channel.num_late_drops,
            num_messages_sent=0 if channel is None else channel.num_messages_sent,
            num_messages_delivered=(
                0 if channel is None else channel.num_messages_delivered
            ),
            num_messages_in_flight=0 if channel is None else channel.num_in_flight,
            sends_by_kind={} if channel is None else dict(channel.sends_by_kind),
            abandoned_by_kind=(
                {} if channel is None else dict(channel.abandoned_by_kind)
            ),
            batching=clusters[0].batching_name,
            num_merged_batches=sum(
                c.batcher.num_batches for c in clusters if c.batcher is not None
            ),
            num_batched_jobs=sum(
                c.batcher.num_batched_jobs for c in clusters if c.batcher is not None
            ),
            num_labeled_frames=sum(
                len(job.batch) for c in clusters for job in c.completed_jobs
            ),
            **region_fields,
        )
        if journal is not None:
            journal.finish(result.fingerprint())
        return result
