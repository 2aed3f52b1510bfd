"""Geo-distributed federation: N regional clusters behind WAN links.

Every :class:`~repro.core.fleet.FleetSession` runs its cameras through
a :class:`Federation` of named :class:`Region`\\ s — each its own
cluster (GPUs, placement, scheduler, batching, autoscaler, spot
revocations) behind a :class:`~repro.network.link.SharedLink` built
from a distinct :class:`~repro.network.link.WanProfile` (latency /
bandwidth / $-per-GB egress).  A session built without
``regions=[...]`` is one region named ``"default"`` behind a free WAN.
On top of the regions sit the three control loops a geo-distributed
deployment needs:

* **region selection** — a pluggable :class:`RegionSelector` layer
  *above* the per-cluster :class:`~repro.core.scheduling.PlacementPolicy`
  homes each camera onto a region (nearest-latency, cheapest,
  least-loaded, or sticky-with-failover); within the region the
  cluster's own placement picks the worker as before;
* **cross-region failover** — a :class:`~repro.runtime.events.RegionOutageEvent`
  cuts a region's WAN link and (with ``failover``) tears its workers
  down through the same preempt/drain/handoff path spot revocations
  and crashes use: in-flight and queued jobs become orphans that are
  re-placed on healthy regions, and the region's cameras are re-homed
  by the selector.  The heal event re-provisions same-spec workers and
  (for non-sticky selectors) re-homes the cameras back;
* **model-weight replication** — a periodic
  :class:`~repro.runtime.events.ReplicationTick` snapshots every
  cloud-trained tenant's student weights and bills the broadcast on
  the source region's WAN egress, so a camera migrated during an
  outage resumes from a near-fresh student instead of the pre-training
  initialisation.

The federation is *cloud-addressable*: it exposes the same handler
surface as a single cluster (``on_upload`` / ``on_labeling_done`` /
``on_batch_timeout`` / ``on_revocation`` / ``on_crash`` /
``register_camera`` / ...), so the
:class:`~repro.core.actors.SessionKernel` drives it unchanged.  Events
that carry no region tag are routed by *identity*: a
:class:`~repro.runtime.events.LabelingDone` belongs to the worker whose
``pending_completion`` is that exact event object, a
:class:`~repro.runtime.events.BatchTimeout` to the batcher whose armed
timer it is, a :class:`~repro.runtime.events.RevocationEvent` to the
cluster that scheduled it, an
:class:`~repro.runtime.events.AutoscaleTick` to the controller that
scheduled it, and a delivery event to the region link that projected
it.  Identity routing adds no payload fields, which is what keeps a
one-region federation's event records identical to a single cluster's.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.core.actors import SharedLinkTransport
from repro.core.autoscaling import AutoscaleController, build_autoscaler
from repro.core.batching import BatchPolicy, FleetBatcher
from repro.core.cluster import CloudCluster, RevocationProcess, SchedulerSpec
from repro.core.faults import (
    PLANTED_BUGS,
    FaultPlan,
    FaultySharedLink,
    ReliableChannel,
    ReliableTransport,
)
from repro.core.scheduling import WorkerSpec
from repro.network.link import SharedLink, WanProfile
from repro.runtime.events import (
    AutoscaleTick,
    BatchTimeout,
    Event,
    EventScheduler,
    LabelingDone,
    LinkPartitionEvent,
    RegionOutageEvent,
    ReplicationTick,
    RevocationEvent,
    UploadComplete,
    WorkerCrashEvent,
)

__all__ = [
    "RegionSpec",
    "Region",
    "RegionSelector",
    "NearestLatencySelector",
    "CheapestSelector",
    "LeastLoadedSelector",
    "StickyFailoverSelector",
    "SELECTORS",
    "build_selector",
    "FederatedTransport",
    "Federation",
]


@dataclass(frozen=True)
class RegionSpec:
    """One region of the federation: its cluster shape and WAN profile.

    The fields are the one declaration of a cluster's knobs (GPUs,
    placement, scheduler, worker specs, batching, autoscaler, spot
    revocations and how their victims' jobs recover); the WAN profile
    shapes the region's link — latency, bandwidth and an egress price
    every byte crossing it pays.  A
    :class:`~repro.core.cluster.RevocationProcess` revokes the spot
    workers of its own region only, so each region needs its own
    instance.
    """

    name: str
    num_gpus: int = 1
    wan: WanProfile = field(default_factory=WanProfile)
    scheduler: SchedulerSpec = None
    placement: object | None = None
    worker_specs: WorkerSpec | list[WorkerSpec] | None = None
    batching: "FleetBatcher | BatchPolicy | str | None" = None
    autoscaler: object | None = None
    revocations: RevocationProcess | None = None
    revocation_mode: str = "relabel"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("region name must be non-empty")


class Region:
    """One live region: cluster + WAN link + autoscaler + homing state.

    Construction rejects a cluster that would fail only mid-run, when
    the run first needs a worker it cannot add (see
    :meth:`_check_growth`).
    """

    def __init__(self, index: int, spec: RegionSpec, plan: FaultPlan | None) -> None:
        self.index = index
        self.spec = spec
        self.name = spec.name
        config = spec.wan.link_config()
        self.link = (
            SharedLink(config) if plan is None else FaultySharedLink(config, plan)
        )
        self.cluster = CloudCluster(
            num_gpus=spec.num_gpus,
            placement=spec.placement,
            scheduler=spec.scheduler,
            worker_specs=spec.worker_specs,
            revocations=spec.revocations,
            revocation_mode=spec.revocation_mode,
            batching=spec.batching,
        )
        self.autoscaler = build_autoscaler(spec.autoscaler)
        self._check_growth(plan)
        #: the per-run AutoscaleController (attached by Federation.bind)
        self.controller: AutoscaleController | None = None
        #: this region's inner point-to-point transport over its link
        self.transport: SharedLinkTransport | None = None
        #: True between an outage cut and its heal
        self.down = False
        #: camera ids with a tenant registered in this region's cluster
        self.registered: set[int] = set()
        #: worker specs torn down by the current outage (re-provisioned
        #: on heal, in order, so worker ids stay deterministic)
        self.failed_specs: list[WorkerSpec] = []
        #: outages that cut this region (failover or partition-only)
        self.num_outages = 0
        #: cameras that migrated away from / into this region
        self.num_migrations_away = 0
        self.num_migrations_in = 0

    def _check_growth(self, plan: FaultPlan | None) -> None:
        """Fail now, not at the first scale-out, revocation or crash.

        A cluster built around one ready GpuScheduler instance has no
        recipe for a new worker's scheduler, so it can neither recover
        a spot kill (which may need an emergency worker), nor grow under
        an autoscaler, nor replace a crashed worker.  And ``min_gpus``
        only gates scale-in — no policy scales out just to reach the
        floor — so a floor above the starting size would silently never
        hold.
        """
        cluster, scaler = self.cluster, self.autoscaler
        fix = (
            "construct it with a scheduler policy name or a zero-arg "
            "factory, not a single GpuScheduler instance"
        )
        scaling = scaler.name != "none"
        if not cluster.can_grow:
            if cluster.revocations is not None and any(
                spec.preemptible for spec in cluster.worker_specs
            ):
                raise ValueError(
                    "a cluster with preemptible workers and a revocation "
                    f"process must be able to provision replacements; {fix}"
                )
            if scaling and scaler.max_gpus > cluster.num_gpus:
                raise ValueError(
                    f"autoscaler {scaler.name!r} may grow the cluster to "
                    f"{scaler.max_gpus} GPUs, but the cluster cannot add "
                    f"workers; {fix}"
                )
            if plan is not None and plan.mean_time_between_crashes is not None:
                raise ValueError(
                    "a fault plan with crashes must be able to provision "
                    f"replacement workers; {fix}"
                )
        if scaling and scaler.min_gpus > cluster.num_gpus:
            raise ValueError(
                f"autoscaler {scaler.name!r} keeps at least {scaler.min_gpus} "
                f"GPUs but the cluster starts with {cluster.num_gpus}; set "
                "num_gpus >= min_gpus"
            )

    @property
    def wan(self) -> WanProfile:
        """The region's WAN shape (bandwidth, RTT, egress price)."""
        return self.spec.wan

    def wan_dollar_cost(self) -> float:
        """Dollar cost of every byte billed to this region's WAN so far."""
        return self.link.wan_bytes / 1e9 * self.wan.cost_per_gb

    def describe(self) -> dict:
        """Canonical-JSON-safe identity for the journal meta header."""
        process = self.cluster.revocations
        revocations = None
        if process is not None:
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
        return {
            "name": self.name,
            "num_gpus": self.cluster.num_gpus,
            "scheduler": self.cluster.scheduler_name,
            "placement": self.cluster.placement_name,
            "batching": (
                None
                if self.cluster.batcher is None
                else self.cluster.batcher.describe()
            ),
            "autoscaler": self.autoscaler.name,
            "wan": self.wan.fingerprint(),
            "worker_specs": [
                {
                    "tier": spec.tier,
                    "speed": spec.speed,
                    "cost_per_gpu_second": spec.cost_per_gpu_second,
                    "preemptible": spec.preemptible,
                    "batch_scaling": spec.batch_scaling,
                }
                for spec in self.cluster.worker_specs
            ],
            "revocations": revocations,
            "revocation_mode": self.cluster.revocation_mode,
        }


# ---------------------------------------------------------------------------
# region selection (the layer above PlacementPolicy)
# ---------------------------------------------------------------------------
class RegionSelector:
    """Homes cameras onto regions; within a region, placement takes over.

    ``pick`` must be a pure function of the candidate regions' state at
    ``now`` — selectors hold no mutable state of their own, so replay
    reproduces every homing decision from the event stream alone.
    ``rehome_on_heal`` decides whether a heal re-evaluates every
    camera's home (latency/cost/load selectors chase their objective)
    or leaves failed-over cameras where the outage pushed them (sticky).
    """

    name = "base"
    rehome_on_heal = True

    def pick(
        self,
        camera_id: int,
        candidates: list[Region],
        now: float,
        federation: "Federation",
    ) -> Region:
        """Return the healthy region to home ``camera_id`` in right now."""
        raise NotImplementedError

    def describe(self) -> str:
        """The registry name recorded in journal meta and results."""
        return self.name


class NearestLatencySelector(RegionSelector):
    """Home every camera on the lowest-RTT healthy region (ties: index)."""

    name = "nearest"

    def pick(self, camera_id, candidates, now, federation):
        """Lowest WAN RTT wins; the region index breaks exact ties."""
        return min(candidates, key=lambda region: (region.wan.rtt_seconds, region.index))


class CheapestSelector(RegionSelector):
    """Home on the cheapest region: compute rate first, then egress price.

    The compute rate is the mean ``cost_per_gpu_second`` over the
    region's *active* workers (its template spec before binding), so an
    autoscaled region that grew expensive capacity loses its discount;
    WAN egress price and RTT break ties, then the region index.
    """

    name = "cheapest"

    @staticmethod
    def _compute_rate(region: Region) -> float:
        workers = region.cluster.active_workers
        if workers:
            return sum(w.spec.cost_per_gpu_second for w in workers) / len(workers)
        return region.cluster._default_spec.cost_per_gpu_second

    def pick(self, camera_id, candidates, now, federation):
        """Cheapest live compute rate, then egress price, RTT, index."""
        return min(
            candidates,
            key=lambda region: (
                self._compute_rate(region),
                region.wan.cost_per_gb,
                region.wan.rtt_seconds,
                region.index,
            ),
        )


class LeastLoadedSelector(RegionSelector):
    """Home on the region with the least pending GPU work, then fewest cameras.

    The load signal is the same wall-clock pending-GPU-seconds sum the
    intra-cluster least-loaded placement uses, aggregated over the
    region's active workers; the homed-camera count breaks ties so a
    fresh fleet spreads evenly before any work exists.
    """

    name = "least_loaded"

    def pick(self, camera_id, candidates, now, federation):
        """Least pending GPU-seconds, then fewest homed cameras, index."""
        return min(
            candidates,
            key=lambda region: (
                sum(w.pending_gpu_seconds(now) for w in region.cluster.active_workers),
                federation.num_homed(region),
                region.index,
            ),
        )


class StickyFailoverSelector(RegionSelector):
    """Keep every camera where it is; move only when its region fails.

    Initial homing (and failover targeting) picks the lowest-RTT
    healthy region, but a heal never moves a camera back — migrations
    are paid only when an outage forces them, which is the
    minimum-churn policy a stateful tenant wants.
    """

    name = "sticky"
    rehome_on_heal = False

    def pick(self, camera_id, candidates, now, federation):
        """The current home while healthy; else the lowest-RTT survivor."""
        home = federation.home.get(camera_id)
        if home is not None:
            current = federation.regions[home]
            if current in candidates:
                return current
        return min(candidates, key=lambda region: (region.wan.rtt_seconds, region.index))


SELECTORS: dict[str, type[RegionSelector]] = {
    NearestLatencySelector.name: NearestLatencySelector,
    CheapestSelector.name: CheapestSelector,
    LeastLoadedSelector.name: LeastLoadedSelector,
    StickyFailoverSelector.name: StickyFailoverSelector,
}


def build_selector(selector: RegionSelector | str | None) -> RegionSelector:
    """Resolve a selector name (or ready instance) to a :class:`RegionSelector`."""
    if selector is None:
        return StickyFailoverSelector()
    if isinstance(selector, RegionSelector):
        return selector
    if isinstance(selector, str):
        try:
            return SELECTORS[selector]()
        except KeyError:
            raise ValueError(
                f"unknown region selector {selector!r}; "
                f"registered: {sorted(SELECTORS)}"
            ) from None
    raise ValueError(f"selector must be a name or RegionSelector, got {selector!r}")


# ---------------------------------------------------------------------------
# federated transport
# ---------------------------------------------------------------------------
class FederatedTransport:
    """Routes sends by camera home and deliveries by link identity.

    Each region keeps its own inner :class:`SharedLinkTransport` (or
    :class:`~repro.core.faults.ReliableTransport` under a fault plan,
    all sharing ONE :class:`~repro.core.faults.ReliableChannel` so
    message ids stay globally unique and conservation is global).  A
    send crosses the WAN of the camera's *current* home region; a
    delivery event is claimed by the region transport whose pending
    projection it is.  Retransmissions of a message first sent before a
    migration keep re-entering the original region's link (the retry
    closure captured it): the message was destined for the failed
    region, and the retry budget decides when to give up on it.
    """

    def __init__(self, federation: "Federation") -> None:
        # the federation owns this transport: refer back weakly
        self._federation = weakref.ref(federation)

    @property
    def federation(self) -> "Federation":
        """The federation whose regions this transport routes over."""
        return self._federation()

    # -- sending (route by the camera's current home) -----------------------
    def send_upload(self, scheduler, actor, upload, batch, alpha, lambda_usage, now):
        """Route an upload over the camera's home-region WAN."""
        self.federation.region_of(actor.camera_id).transport.send_upload(
            scheduler, actor, upload, batch, alpha, lambda_usage, now
        )

    def send_labels(self, scheduler, actor, response, now):
        """Route a label response over the camera's home-region WAN."""
        self.federation.region_of(actor.camera_id).transport.send_labels(
            scheduler, actor, response, now
        )

    def send_model(self, scheduler, actor, update, model_state, now):
        """Route a model download over the camera's home-region WAN."""
        self.federation.region_of(actor.camera_id).transport.send_model(
            scheduler, actor, update, model_state, now
        )

    # -- delivery (route by pending-projection identity) --------------------
    def uplink_delivered(
        self, scheduler: EventScheduler, now: float, event: Event | None = None
    ) -> None:
        """Complete an uplink transfer on the region link that carries it."""
        for region in self.federation.regions:
            pending = region.transport._pending_up
            if pending is not None and pending[0] is event:
                region.transport.uplink_delivered(scheduler, now, event=event)
                return
        raise RuntimeError(
            f"uplink delivery {event!r} is not pending on any region's link"
        )

    def downlink_delivered(
        self, scheduler: EventScheduler, now: float, event: Event | None = None
    ) -> None:
        """Complete a downlink transfer on the region link that carries it."""
        for region in self.federation.regions:
            pending = region.transport._pending_down
            if pending is not None and pending[0] is event:
                region.transport.downlink_delivered(scheduler, now, event=event)
                return
        raise RuntimeError(
            f"downlink delivery {event!r} is not pending on any region's link"
        )

    # -- WAN partitions (route by the event's region tag) -------------------
    def on_partition(self, event: LinkPartitionEvent, scheduler: EventScheduler) -> None:
        """Cut or heal one region's WAN link (``camera_id`` tags the region).

        Pause/resume both pipes, then re-project the pending
        completions; nothing is lost, transfers only wait out the cut.
        """
        region = self.federation.regions[event.camera_id]
        if event.healed:
            region.link.end_partition(event.time)
        else:
            region.link.begin_partition(event.time)
        region.transport._sync_uplink(scheduler, event.time)
        region.transport._sync_downlink(scheduler, event.time)


# ---------------------------------------------------------------------------
# the federation
# ---------------------------------------------------------------------------
class Federation:
    """N regions, one camera-homing map, one cloud-addressable facade.

    Construction builds the regions (cluster + WAN link each);
    :meth:`bind` wires them to the shared
    :class:`~repro.core.cloud.CloudServer` per run.  The fleet session
    passes the federation wherever a cluster (``cloud_actor``), a
    transport, or an autoscale controller would go — the kernel drives
    it through the exact same handler surface.
    """

    def __init__(
        self,
        specs: list[RegionSpec],
        selector: RegionSelector | str | None = None,
        faults: FaultPlan | None = None,
        failover: bool = True,
        replication_interval_seconds: float | None = None,
    ) -> None:
        if not specs:
            raise ValueError("a federation needs at least one region")
        names = [spec.name for spec in specs]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(f"region names must be unique, duplicated: {duplicates}")
        processes = [id(spec.revocations) for spec in specs if spec.revocations]
        if len(set(processes)) != len(processes):
            raise ValueError(
                "a RevocationProcess revokes one region's workers only; give "
                "each RegionSpec its own instance"
            )
        if replication_interval_seconds is not None and not (
            replication_interval_seconds > 0
        ):
            raise ValueError(
                "replication_interval_seconds must be positive, got "
                f"{replication_interval_seconds!r}"
            )
        self.plan = faults
        self.failover = failover
        self.selector = build_selector(selector)
        self.replication_interval_seconds = replication_interval_seconds
        self.regions = [Region(i, spec, faults) for i, spec in enumerate(specs)]
        self.transport = FederatedTransport(self)
        #: camera id -> index of its current home region
        self.home: dict[int, int] = {}
        #: camera id -> its EdgeActor (for re-registration on migration)
        self.actors: dict[int, object] = {}
        self._register_kwargs: dict[int, dict] = {}
        #: camera id -> last replicated student weights (near-fresh resume)
        self.replicas: dict[int, dict[str, np.ndarray]] = {}
        #: horizon the replication tick train stops at (set by bind)
        self.horizon = float("inf")
        self.num_region_migrations = 0
        self.num_region_job_handoffs = 0
        self.num_region_outages = 0
        self.num_replication_rounds = 0
        self.region_migrations_by_camera: dict[int, int] = {}
        self._bound = False

    # -- topology helpers ----------------------------------------------------
    @property
    def num_regions(self) -> int:
        """How many regions the federation spans."""
        return len(self.regions)

    @property
    def healthy_regions(self) -> list[Region]:
        """Regions currently accepting cameras (not cut by an outage)."""
        return [region for region in self.regions if not region.down]

    def region_of(self, camera_id: int) -> Region:
        """The camera's current home region."""
        return self.regions[self.home[camera_id]]

    def num_homed(self, region: Region) -> int:
        """How many cameras currently call ``region`` home."""
        return sum(1 for index in self.home.values() if index == region.index)

    def cameras_homed_in(self, region: Region) -> list[int]:
        """Camera ids homed in ``region``, in id order (deterministic)."""
        return sorted(
            camera_id
            for camera_id, index in self.home.items()
            if index == region.index
        )

    # -- wiring --------------------------------------------------------------
    def bind(
        self,
        cloud,
        channel: ReliableChannel | None,
        batch_overhead_seconds: float,
        horizon: float,
        scheduler: EventScheduler,
    ) -> "Federation":
        """Wire every region to the shared cloud for one run.

        Regions bind in index order — their inner transports are built
        first (reliable ones share ``channel``), then each cluster's
        workers are created against the *federated* transport so label
        and model sends route by camera home, and each region's
        autoscale controller is constructed and started, in region
        order, before any camera registers — so a one-region run's
        first tick (if any) takes event sequence number 0.
        """
        if self._bound:
            raise RuntimeError(
                "Federation is already bound (its clusters accumulate state); "
                "construct a new federation per fleet run"
            )
        self._bound = True
        self.horizon = horizon
        for region in self.regions:
            if channel is not None:
                region.transport = ReliableTransport(region.link, channel)
            else:
                region.transport = SharedLinkTransport(region.link)
            region.cluster.bind(
                cloud, self.transport, batch_overhead_seconds=batch_overhead_seconds
            )
        for region in self.regions:
            region.controller = AutoscaleController(
                region.autoscaler, region.cluster, horizon=horizon
            )
            region.controller.start(scheduler)
        return self

    def register_camera(self, actor, **kwargs) -> None:
        """Home one camera via the selector and register it there.

        The registration kwargs are cached so a migration can register
        the tenant in its destination region with identical seeds and
        weights — the federation's analog of the cluster sharing one
        tenant registry across workers.
        """
        camera_id = actor.camera_id
        self.actors[camera_id] = actor
        self._register_kwargs[camera_id] = dict(kwargs)
        region = self.selector.pick(camera_id, self.healthy_regions, 0.0, self)
        self.home[camera_id] = region.index
        region.cluster.register_camera(actor, **kwargs)
        region.registered.add(camera_id)

    # -- camera migration ----------------------------------------------------
    def _snapshot_state(self, student) -> dict[str, np.ndarray]:
        return {key: np.copy(value) for key, value in student.state_dict().items()}

    @staticmethod
    def _state_bytes(state: dict[str, np.ndarray]) -> float:
        return float(sum(value.nbytes for value in state.values()))

    def _move_camera(
        self, camera_id: int, dest: Region, now: float, live_copy: bool
    ) -> None:
        """Re-home one camera, seeding its tenant from the freshest weights.

        ``live_copy`` (heal-time re-homing) snapshots the source
        tenant's student synchronously and bills the transfer on the
        source region's WAN — the drain/handoff path for state.  During
        an outage the source is unreachable, so the last periodic
        replication snapshot (if any) seeds the destination instead.
        """
        src = self.regions[self.home[camera_id]]
        if src is dest:
            return
        state: dict[str, np.ndarray] | None = None
        if live_copy:
            tenant = src.cluster.tenants.get(camera_id)
            student = None if tenant is None else tenant.student
            if student is not None:
                state = self._snapshot_state(student)
                src.link.add_replication_bytes(self._state_bytes(state))
        if state is None:
            state = self.replicas.get(camera_id)
        self.home[camera_id] = dest.index
        actor = self.actors[camera_id]
        if camera_id not in dest.registered:
            dest.cluster.register_camera(actor, **self._register_kwargs[camera_id])
            dest.registered.add(camera_id)
        if state is not None:
            tenant = dest.cluster.tenants.get(camera_id)
            if tenant is not None and tenant.student is not None:
                tenant.student.load_state_dict(state)
        src.num_migrations_away += 1
        dest.num_migrations_in += 1
        self.num_region_migrations += 1
        self.region_migrations_by_camera[camera_id] = (
            self.region_migrations_by_camera.get(camera_id, 0) + 1
        )

    # -- outages -------------------------------------------------------------
    def on_region_outage(
        self, event: RegionOutageEvent, scheduler: EventScheduler
    ) -> None:
        """A region degraded (cut) or recovered (heal) right now."""
        region = self.regions[event.region]
        if event.healed:
            if region.down:
                self._heal_region(region, event.time, scheduler)
            return
        if not region.down:
            self._cut_region(region, event.time, scheduler)

    def _cut_region(
        self, region: Region, now: float, scheduler: EventScheduler
    ) -> None:
        """Partition the region's WAN; with failover, evacuate it too.

        The cut always severs the WAN (in-flight transfers freeze;
        retries against the dead region burn their budget).  With
        ``failover`` and at least one healthy region left, the region's
        workers are torn down through the preempt/drain path, its
        cameras re-home via the selector, and every orphaned job —
        in-flight, queued, or sitting in the forming batch — hands off
        to its camera's new home cluster with no re-admission (the
        uplink was already paid).  Without failover (or nowhere to go)
        the outage degrades to a pure partition: capacity keeps burning
        and cameras wait out the outage.
        """
        region.down = True
        region.num_outages += 1
        self.num_region_outages += 1
        if not region.link.partitioned:
            region.link.begin_partition(now)
            region.transport._sync_uplink(scheduler, now)
            region.transport._sync_downlink(scheduler, now)
        healthy = self.healthy_regions
        if not self.failover or not healthy:
            return
        orphans, specs = region.cluster.fail_all_workers(now, scheduler)
        region.failed_specs = specs
        for camera_id in self.cameras_homed_in(region):
            dest = self.selector.pick(camera_id, healthy, now, self)
            self._move_camera(camera_id, dest, now, live_copy=False)
        if "outage_handoff_off" in PLANTED_BUGS:
            # planted bug (shrinker test harness only): drop the orphans
            # instead of re-placing them — breaks upload conservation
            return
        for job in orphans:
            dest = self.region_of(job.camera_id)
            dest.cluster._place_handoff(job, now, scheduler)
        self.num_region_job_handoffs += len(orphans)

    def _heal_region(
        self, region: Region, now: float, scheduler: EventScheduler
    ) -> None:
        """Reconnect the WAN, re-provision capacity, optionally re-home."""
        if region.link.partitioned:
            region.link.end_partition(now)
            region.transport._sync_uplink(scheduler, now)
            region.transport._sync_downlink(scheduler, now)
        region.down = False
        for spec in region.failed_specs:
            region.cluster.add_worker(now, spec=spec)
        region.failed_specs = []
        if not self.selector.rehome_on_heal:
            return
        healthy = self.healthy_regions
        for camera_id in sorted(self.home):
            dest = self.selector.pick(camera_id, healthy, now, self)
            if dest.index != self.home[camera_id]:
                self._move_camera(camera_id, dest, now, live_copy=True)

    # -- replication ---------------------------------------------------------
    def on_replication_tick(
        self, event: ReplicationTick, scheduler: EventScheduler
    ) -> None:
        """Snapshot every reachable cloud-trained student; bill the WAN.

        Each healthy region broadcasts its homed tenants' student
        weights to every other region; the bytes are billed once per
        receiving region on the *source* link's egress meter.  A downed
        region cannot replicate out (its WAN is cut), so cameras that
        fail over before the next tick resume from the previous
        snapshot — that staleness window is exactly what the interval
        knob trades against WAN cost.
        """
        now = event.time
        interval = self.replication_interval_seconds
        for region in self.regions:
            if region.down:
                continue
            for camera_id in self.cameras_homed_in(region):
                tenant = region.cluster.tenants.get(camera_id)
                student = None if tenant is None else tenant.student
                if student is None:
                    continue
                state = self._snapshot_state(student)
                self.replicas[camera_id] = state
                copies = self.num_regions - 1
                if copies > 0:
                    region.link.add_replication_bytes(
                        self._state_bytes(state) * copies
                    )
        self.num_replication_rounds += 1
        if interval is not None:
            next_tick = now + interval
            if next_tick <= self.horizon + 1e-9:
                scheduler.schedule(ReplicationTick(time=next_tick))

    # -- cloud-addressable handler surface (kernel routing) ------------------
    def on_upload(self, event: UploadComplete, scheduler: EventScheduler) -> None:
        """Route an arrived upload to its camera's current home cluster."""
        self.region_of(event.camera_id).cluster.on_upload(event, scheduler)

    def on_labeling_done(self, event: LabelingDone, scheduler: EventScheduler) -> None:
        """Route a busy-period completion to the worker that armed it.

        Worker ids are region-local, so the event's ``worker_id`` alone
        is ambiguous; the completion belongs to the unique worker that
        armed this exact event object.  The worker's full
        ``armed_completions`` set is consulted (not just the latest
        ``pending_completion`` slot): a handoff landing at the exact
        instant a busy period ends starts the next period before the
        old completion dispatches, overwriting the slot.
        """
        for region in self.regions:
            for worker in region.cluster.workers:
                if any(armed is event for armed in worker.armed_completions):
                    region.cluster.on_labeling_done(event, scheduler)
                    return
        raise RuntimeError(
            f"LabelingDone for worker {event.worker_id} is pending in no region"
        )

    def on_batch_timeout(self, event: BatchTimeout, scheduler: EventScheduler) -> None:
        """Route a forming-batch deadline to the batcher that armed it."""
        for region in self.regions:
            batcher = region.cluster.batcher
            if batcher is not None and batcher._timer is event:
                region.cluster.on_batch_timeout(event, scheduler)
                return
        raise RuntimeError("BatchTimeout fired but no region batcher armed it")

    def on_tick(self, event: AutoscaleTick, scheduler: EventScheduler) -> None:
        """Route an autoscale tick to the controller that scheduled it.

        Ticks landing on a downed region are consumed without acting —
        a policy scaling an evacuated cluster would resurrect capacity
        mid-outage — but the tick train stays alive so sampling resumes
        at heal.
        """
        for region in self.regions:
            controller = region.controller
            if controller is not None and controller.pending_tick is event:
                if region.down:
                    controller.skip_tick(event, scheduler)
                else:
                    controller.on_tick(event, scheduler)
                return
        raise RuntimeError("AutoscaleTick fired but no region controller armed it")

    def on_crash(self, event: WorkerCrashEvent, scheduler: EventScheduler) -> None:
        """Reduce a global crash draw onto one region's local crash path.

        The eligible pool is the concatenation of every region's
        crash-eligible workers in (region, worker-id) order; the draw
        picks a victim exactly as a single cluster would, then the
        owning cluster handles the kill with a victim draw rewritten to
        its local index — same recovery semantics, same counters, and
        for one region the same victim a lone cluster would pick.
        """
        now = event.time
        pools = [region.cluster.crash_eligible(now) for region in self.regions]
        total = sum(len(pool) for pool in pools)
        if total == 0:
            return
        pick = event.victim_draw % total
        for region, pool in zip(self.regions, pools):
            if pick < len(pool):
                region.cluster.on_crash(
                    WorkerCrashEvent(time=now, victim_draw=pick), scheduler
                )
                return
            pick -= len(pool)

    def on_revocation(self, event: RevocationEvent, scheduler: EventScheduler) -> None:
        """Route a spot revocation to the cluster that scheduled it."""
        for region in self.regions:
            if region.cluster.armed_revocations.pop(id(event), None) is event:
                region.cluster.on_revocation(event, scheduler)
                return
        raise RuntimeError(
            f"RevocationEvent for worker {event.worker_id} was armed by no region"
        )

    def on_labels_for_training(self, actor, labeled, now, scheduler) -> None:
        """AMS path: pool labels in the camera's current home region."""
        self.region_of(actor.camera_id).cluster.on_labels_for_training(
            actor, labeled, now, scheduler
        )

    def note_gpu(self, camera_id: int, seconds: float) -> None:
        """Attribute GPU time through the camera's current home region."""
        self.region_of(camera_id).cluster.note_gpu(camera_id, seconds)

    # -- aggregate accounting -------------------------------------------------
    @property
    def clusters(self) -> list[CloudCluster]:
        """Every region's cluster, in region-index order."""
        return [region.cluster for region in self.regions]

    @property
    def wan_bytes(self) -> float:
        """Total bytes billed across every region's WAN link."""
        return sum(region.link.wan_bytes for region in self.regions)

    def wan_dollar_cost(self) -> float:
        """Total WAN egress spend across the federation."""
        return sum(region.wan_dollar_cost() for region in self.regions)

    def compute_dollar_cost(self, horizon: float) -> float:
        """Total provisioned-capacity spend across every region."""
        return sum(region.cluster.dollar_cost(horizon) for region in self.regions)

    def gpu_seconds_by_camera(self) -> dict[int, float]:
        """Per-camera GPU seconds summed across every region's cluster."""
        merged: dict[int, float] = {}
        for region in self.regions:
            for camera_id, seconds in region.cluster.gpu_seconds_by_camera.items():
                merged[camera_id] = merged.get(camera_id, 0.0) + seconds
        return merged

    def region_metrics(self, duration: float) -> list[dict]:
        """One canonical-JSON-safe metrics dict per region, in index order."""
        metrics = []
        for region in self.regions:
            waits = region.cluster.queue_waits
            labeled = sum(
                len(job.batch) for job in region.cluster.completed_jobs
            )
            metrics.append(
                {
                    "region": region.name,
                    "num_cameras_homed": self.num_homed(region),
                    "num_labeled_frames": labeled,
                    "p95_queue_delay": (
                        float(np.percentile(np.asarray(waits), 95.0))
                        if waits
                        else 0.0
                    ),
                    "wan_bytes": region.link.wan_bytes,
                    "wan_dollar_cost": region.wan_dollar_cost(),
                    "compute_dollar_cost": region.cluster.dollar_cost(duration),
                    "num_migrations_in": region.num_migrations_in,
                    "num_migrations_away": region.num_migrations_away,
                    "num_outages": region.num_outages,
                    "num_gpus": region.cluster.num_gpus,
                }
            )
        return metrics
