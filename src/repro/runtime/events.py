"""Discrete-event simulation kernel: typed events and a heap scheduler.

The collaborative sessions (:mod:`repro.core.session`,
:mod:`repro.core.fleet`) are driven by a priority queue of timestamped
events rather than a frame-by-frame loop.  This is what lets N camera
streams share one cloud server and one network link: every interaction
between an edge device and the cloud — a frame arriving, an upload
draining out of the shared uplink, the teacher finishing a labeling
batch, a training session ending, a streamed model update landing —
is an :class:`Event` popped in simulated-time order.

Ordering guarantees:

* events pop in non-decreasing ``time`` order (the scheduler advances a
  :class:`~repro.runtime.clock.SimulationClock` as it pops);
* ties on ``time`` break on the event's ``priority`` class (lower pops
  first) — e.g. a :class:`ModelDownloadComplete` scheduled for the same
  instant as a :class:`FrameArrival` is applied *before* the frame is
  processed, matching the semantics of the original monolithic loop;
* remaining ties break on scheduling order (FIFO), so the simulation is
  fully deterministic.

Events can be cancelled after scheduling (lazy deletion), which the
processor-sharing :class:`~repro.network.link.SharedLink` relies on to
re-project transfer completion times whenever the set of concurrent
transfers changes.

The kernel is the hot path of every fleet-scale run (10k cameras push
millions of events through it — see ``docs/performance.md`` and
``benchmarks/bench_kernel_throughput.py``), so the scheduler is built
for raw dispatch throughput:

* all event classes are ``slots=True`` dataclasses — the hottest
  allocations in a run carry no per-instance ``__dict__``;
* ``__len__`` / ``__bool__`` are O(1): a live-event counter is
  maintained on schedule/cancel/pop instead of scanning the heap (the
  pre-optimisation scan made any per-iteration backlog probe quadratic
  in fleet size);
* :meth:`EventScheduler.run` pops each dispatched entry from the heap
  exactly once (no peek-then-pop double traversal of the cancelled
  prefix);
* lazily-cancelled entries are purged by threshold-triggered heap
  compaction once they outnumber the live ones, so cancel-heavy
  workloads (the :class:`~repro.network.link.SharedLink` re-projection
  cancels an event per concurrent-transfer change) cannot grow the
  heap — or peak RSS — without bound.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Iterator

from repro.runtime.clock import SimulationClock

__all__ = [
    "Event",
    "FrameArrival",
    "UploadComplete",
    "LabelsReady",
    "LabelingDone",
    "TrainingDone",
    "ModelDownloadComplete",
    "AutoscaleTick",
    "BatchTimeout",
    "RevocationEvent",
    "WorkerCrashEvent",
    "LinkPartitionEvent",
    "RegionOutageEvent",
    "ReplicationTick",
    "RetryTimer",
    "EventScheduler",
]


@dataclass(slots=True)
class Event:
    """Base class for everything the kernel schedules.

    ``priority`` is a *class-level* tie-breaker for events at the same
    simulated time: lower values pop first.  ``camera_id`` routes the
    event to the right edge actor in fleet sessions (single-camera
    sessions use camera 0 throughout).

    Instances are ``slots=True`` dataclasses: event allocation is the
    hottest allocation site of a fleet run, and dropping the
    per-instance ``__dict__`` measurably cuts both time and peak RSS
    (see ``docs/performance.md``).
    """

    time: float
    camera_id: int = 0
    cancelled: bool = field(default=False, compare=False)
    #: True while a scheduler holds a queued heap entry for this event;
    #: lets :meth:`EventScheduler.cancel` keep its live-event counter
    #: exact even when an already-delivered event is cancelled late
    _queued: bool = field(default=False, init=False, repr=False, compare=False)

    #: tie-break class at equal time; lower pops first
    priority: ClassVar[int] = 5

    def cancel(self) -> None:
        """Mark the event dead; the scheduler skips it on pop.

        Prefer :meth:`EventScheduler.cancel`, which also maintains the
        scheduler's O(1) live-event counter and may trigger heap
        compaction; calling this directly still prevents dispatch but
        leaves the counters to be reconciled lazily.
        """
        self.cancelled = True


@dataclass(slots=True)
class ModelDownloadComplete(Event):
    """A streamed student-model update finished downloading (AMS).

    Applied before any frame at the same instant is processed, so the
    refreshed weights are what that frame's inference sees.
    """

    model_state: dict = field(default_factory=dict)
    #: reliable-delivery id under a fault plan (-1 = unreliable/off)
    message_id: int = -1

    priority: ClassVar[int] = 0


@dataclass(slots=True)
class UploadComplete(Event):
    """A sampled-frame batch finished crossing the uplink."""

    batch: list = field(default_factory=list)
    alpha: float = 0.0
    lambda_usage: float = 0.0
    #: when the edge handed the batch to the network (for latency stats);
    #: under retransmission this is the *first* attempt's send time, so
    #: upload-latency statistics honestly include retry delays
    sent_at: float = 0.0
    #: reliable-delivery id under a fault plan (-1 = unreliable/off)
    message_id: int = -1

    priority: ClassVar[int] = 1


@dataclass(slots=True)
class LabelingDone(Event):
    """A cloud GPU finished a (possibly multi-tenant) busy period.

    Internal to the fleet's unified GPU job queue; carries the jobs
    (labeling uploads and/or cloud-training sessions) that were served
    together so per-tenant accounting can split the GPU time, and the
    ``worker_id`` of the GPU that served them so sharded clouds
    (:class:`~repro.core.cluster.CloudCluster`) can route the
    completion back to the right worker.  Single-GPU clouds leave the
    tag at worker 0.
    """

    jobs: list = field(default_factory=list)
    #: which GPU worker's busy period ended (cluster routing tag)
    worker_id: int = 0

    priority: ClassVar[int] = 1


@dataclass(slots=True)
class LabelsReady(Event):
    """Teacher pseudo-labels (and the new sampling rate) reached the edge."""

    response: Any = None
    #: reliable-delivery id under a fault plan (-1 = unreliable/off)
    message_id: int = -1

    priority: ClassVar[int] = 2


@dataclass(slots=True)
class TrainingDone(Event):
    """An adaptive-training session released the device/GPU."""

    window: Any = None

    priority: ClassVar[int] = 3


@dataclass(slots=True)
class RevocationEvent(Event):
    """A preemptible (spot) GPU worker's capacity is revoked right now.

    Scheduled by the cluster's revocation process (a seeded draw per
    spot worker, or a scripted trace) and handled by
    :meth:`~repro.core.cluster.CloudCluster.on_revocation`: the worker
    retires immediately, its in-flight busy period is killed
    (checkpoint-resumed or re-labeled from scratch, per the cluster's
    revocation mode) and its queue hands off through the drain path.
    Ordered *after* same-instant :class:`LabelingDone` completions — a
    busy period that finishes exactly when the revocation fires is
    counted as finished, not killed.
    """

    #: which GPU worker loses its capacity (never-reused cluster id)
    worker_id: int = 0

    priority: ClassVar[int] = 2


@dataclass(slots=True)
class WorkerCrashEvent(Event):
    """A GPU worker crashes mid-handler right now (fault injection).

    Scheduled by the fleet session from the
    :class:`~repro.core.faults.FaultPlan`'s seeded crash process, routed
    to the owning region by
    :meth:`~repro.core.federation.Federation.on_crash` and handled by
    :meth:`~repro.core.cluster.CloudCluster.on_crash`: the victim's
    in-flight busy period is killed mid-service, its jobs are re-placed
    on the survivors, and the supervisor restarts a replacement worker
    whose tenant state is recovered from the shared registry.  Unlike a
    :class:`RevocationEvent`, the victim is picked *when the crash
    fires* (``victim_draw`` modulo the active workers), because a crash
    process cannot know the future worker set of an elastic cluster.
    Same priority as revocations: a busy period finishing exactly at
    the crash instant counts as finished, not killed.
    """

    #: seeded draw used to pick the victim among the then-active workers
    victim_draw: int = 0

    priority: ClassVar[int] = 2


@dataclass(slots=True)
class LinkPartitionEvent(Event):
    """One region's edge-cloud link partitions (or heals) right now.

    Scheduled in cut/heal pairs from each region's seeded partition
    process (:meth:`~repro.core.faults.FaultPlan.draw_partitions_for_region`),
    tagged with the region's index in ``camera_id`` (region 0, the only
    region of a one-region fleet, is the default tag), and handled by
    the federation's transport: on the cut (``healed=False``) both
    directions of the region's
    :class:`~repro.network.link.SharedLink` pause — in-flight and
    newly-started transfers stop draining but are *queued, not lost*,
    unlike per-message loss faults — and on the heal (``healed=True``)
    draining resumes where it left off.  Priority 3: transfers whose
    last bit leaves the pipe exactly when the cut fires (priorities
    0–2) settle as delivered first.
    """

    #: False = link goes down now, True = link comes back up now
    healed: bool = False

    priority: ClassVar[int] = 3


@dataclass(slots=True)
class RegionOutageEvent(Event):
    """A whole region degrades (or recovers) right now (federation).

    Scheduled in cut/heal pairs — from a scripted outage list or the
    :class:`~repro.core.faults.FaultPlan`'s seeded outage process
    (:meth:`~repro.core.faults.FaultPlan.draw_region_outages`) — and
    handled by :meth:`~repro.core.federation.Federation.on_region_outage`:
    on the cut (``healed=False``) the region's WAN link partitions and,
    when failover is enabled, its workers are torn down and its cameras
    re-homed to healthy regions through the drain/handoff path; on the
    heal (``healed=True``) the link resumes, capacity is re-provisioned
    and non-sticky selectors move cameras back.  Same priority as worker
    crashes: busy periods finishing exactly at the cut count as
    finished, not killed.
    """

    #: index of the region that degrades/recovers
    region: int = 0
    #: False = region goes down now, True = region recovers now
    healed: bool = False

    priority: ClassVar[int] = 2


@dataclass(slots=True)
class ReplicationTick(Event):
    """Periodic cross-region model-weight replication point (federation).

    Fired every ``replication_interval_seconds`` by the
    :class:`~repro.core.federation.Federation`; the handler snapshots
    each homed camera's freshest student weights so a camera migrated by
    a later :class:`RegionOutageEvent` resumes from a near-fresh student
    instead of cold weights.  Priority 3: same-instant deliveries
    (priorities 0–2) settle first, so the snapshot sees current weights.
    """

    priority: ClassVar[int] = 3


@dataclass(slots=True)
class RetryTimer(Event):
    """A reliable-delivery retransmission timer expired.

    Scheduled by the :class:`~repro.core.faults.ReliableChannel` when a
    message is sent; if the message was delivered (and acked) in the
    meantime the channel cancelled the timer, otherwise the send is
    retried with exponential backoff up to the plan's attempt budget.
    Priority 3: at an equal instant, deliveries (priorities 0–2) settle
    first, so a message arriving exactly at its timeout is not
    spuriously retransmitted.
    """

    #: which in-flight message this timer guards
    message_id: int = -1
    #: the attempt number this timer was armed for (stale-timer guard)
    attempt: int = 0

    priority: ClassVar[int] = 3


@dataclass(slots=True)
class BatchTimeout(Event):
    """A cluster-wide forming batch hit its maximum hold delay.

    Armed by the :class:`~repro.core.batching.FleetBatcher` when a
    latency-budgeted policy decides to *hold* queued labeling jobs in
    the hope of merging them into a bigger (cheaper) teacher batch.
    When the timer fires the forming batch is flushed to the first idle
    worker even if the policy would rather keep growing it, bounding
    the extra queueing delay batching can add to ``max_batch_delay``.

    ``generation`` is a stale-timer guard: the batcher bumps its
    generation every time it re-arms, so a lazily-cancelled timer from
    an earlier forming batch that still pops is ignored.  Priority 3:
    same-instant deliveries (priorities 0–2, e.g. an upload landing
    exactly at the deadline) settle first and get to join the flush.
    """

    #: batcher re-arm counter this timer was scheduled under
    generation: int = 0

    priority: ClassVar[int] = 3


@dataclass(slots=True)
class AutoscaleTick(Event):
    """Periodic sampling point for the elastic cloud autoscaler.

    Fired every ``interval_seconds`` of simulated time by the
    :class:`~repro.core.autoscaling.AutoscaleController`; the handler
    samples the sliding-window queue-delay/utilisation signal and may
    grow or shrink the :class:`~repro.core.cluster.CloudCluster`.
    Scheduled *after* same-instant labeling completions and label
    deliveries settle (so the sampled backlog is current) but before
    the next frame is processed.
    """

    priority: ClassVar[int] = 3


@dataclass(slots=True)
class FrameArrival(Event):
    """The next frame of a camera's stream is due for processing.

    Deliberately the *last* priority class: at any instant, completed
    network transfers, fresh labels and model updates settle before the
    frame is run through inference.
    """

    frame: Any = None

    priority: ClassVar[int] = 4


class EventScheduler:
    """Heap-based future-event list driving a :class:`SimulationClock`.

    Counter invariants (all O(1) to read):

    * ``len(scheduler)`` — live (non-cancelled) queued events;
    * ``scheduler.heap_entries`` — raw heap entries, including
      lazily-cancelled garbage not yet purged;
    * cancelled entries are purged eagerly at the heap top on
      peek/pop/run, and in bulk by :meth:`_compact` once they exceed
      half the heap (and the heap is at least ``COMPACTION_MIN_HEAP``
      entries), so garbage from cancel-heavy workloads is bounded to
      ~50% of the live set.
    """

    #: heaps smaller than this are never compacted — a rebuild would
    #: cost more than the garbage it reclaims
    COMPACTION_MIN_HEAP = 64

    def __init__(self, clock: SimulationClock | None = None) -> None:
        self.clock = clock or SimulationClock()
        self._heap: list[tuple[float, int, int, Event]] = []
        #: plain int FIFO tie-breaker (an ``itertools.count`` costs a
        #: call per schedule on the hottest path)
        self._sequence = 0
        #: live (queued, non-cancelled) events — the O(1) ``__len__``
        self._num_live = 0
        #: cancelled entries still occupying heap slots
        self._num_dead = 0
        self.num_scheduled = 0
        self.num_dispatched = 0

    # -- properties ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (the time of the last popped event)."""
        return self.clock.now

    @property
    def heap_entries(self) -> int:
        """Raw heap size including lazily-cancelled garbage (diagnostics)."""
        return len(self._heap)

    def __len__(self) -> int:
        """Live (non-cancelled) events still queued — O(1)."""
        return self._num_live

    def __bool__(self) -> bool:
        return self._num_live > 0

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event: Event) -> Event:
        """Queue an event; returns it so callers can keep a cancel handle."""
        time = event.time
        clock = self.clock
        if time < clock._now - 1e-9:
            raise ValueError(
                f"cannot schedule event at {time} before current time "
                f"{clock._now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._heap, (time, event.priority, sequence, event))
        event._queued = True
        self._num_live += 1
        self.num_scheduled += 1
        return event

    def cancel(self, event: Event) -> None:
        """Lazily remove a queued event (no-op if already popped).

        Maintains the O(1) live counter and, once cancelled garbage
        outgrows the live set, compacts the heap so cancel-heavy
        workloads (shared-link re-projection) keep bounded memory.
        """
        if event._queued and not event.cancelled:
            event.cancelled = True
            # _queued False marks the entry as *counted* dead, so the
            # discard paths know its counters were already adjusted
            # (unlike a bare Event.cancel(), which only flips the flag)
            event._queued = False
            self._num_live -= 1
            self._num_dead += 1
            heap = self._heap
            if self._num_dead > (len(heap) >> 1) and len(heap) >= self.COMPACTION_MIN_HEAP:
                self._compact()
        else:
            # already delivered (or already cancelled): keep the flag
            # semantics of the pre-counter scheduler
            event.cancelled = True

    def _discard_dead(self, event: Event) -> None:
        """Account for a cancelled entry leaving the heap.

        Entries cancelled through :meth:`cancel` were already moved from
        the live to the dead counter; entries cancelled by a bare
        :meth:`Event.cancel` flag flip were not, so they leave the live
        count only now.
        """
        if event._queued:
            event._queued = False
            self._num_live -= 1
        else:
            self._num_dead -= 1

    def _compact(self) -> None:
        """Purge every cancelled entry and re-heapify in place.

        In-place (slice assignment) so a :meth:`run` loop holding a
        reference to the heap list keeps seeing the live structure.
        Entries keep their (time, priority, sequence) keys, so relative
        order — including FIFO ties — is untouched, and cancel handles
        stay valid because cancellation is a flag on the event, not a
        heap position.
        """
        heap = self._heap
        live_entries = []
        for entry in heap:
            event = entry[3]
            if event.cancelled:
                if event._queued:  # bare-flag cancel: uncounted until now
                    event._queued = False
                    self._num_live -= 1
                continue
            live_entries.append(entry)
        heap[:] = live_entries
        heapq.heapify(heap)
        self._num_dead = 0

    # -- dispatch ------------------------------------------------------------
    def peek(self) -> Event | None:
        """The next live event without popping it (or None when drained)."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            self._discard_dead(heapq.heappop(heap)[3])
        return heap[0][3] if heap else None

    def pop(self) -> Event | None:
        """Pop the next live event, advancing the clock to its time."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                self._discard_dead(event)
                continue
            event._queued = False
            self._num_live -= 1
            self.clock.advance_to(event.time)
            self.num_dispatched += 1
            return event
        return None

    def __iter__(self) -> Iterator[Event]:
        """Drain the queue in simulated-time order."""
        while True:
            event = self.pop()
            if event is None:
                return
            yield event

    def run(self, handler: Callable[[Event], None], until: float | None = None) -> int:
        """Dispatch events through ``handler`` until drained (or ``until``).

        Returns the number of events dispatched.  ``handler`` may
        schedule further events; they are interleaved in time order as
        usual.  Events strictly after ``until`` stay queued.

        This is the kernel's innermost loop: each dispatched entry is
        popped from the heap exactly once (the pre-optimisation
        peek-then-pop walked the cancelled prefix twice per event), the
        heap/clock lookups are hoisted out of the loop, and the clock
        advances through a direct store rather than a method call.
        """
        heap = self._heap
        heappop = heapq.heappop
        clock = self.clock
        dispatched = 0
        if until is None:
            while heap:
                entry = heappop(heap)
                event = entry[3]
                if event.cancelled:
                    self._discard_dead(event)
                    continue
                event._queued = False
                self._num_live -= 1
                time = entry[0]
                if time > clock._now:
                    clock._now = time
                dispatched += 1
                self.num_dispatched += 1
                handler(event)
        else:
            while heap:
                entry = heappop(heap)
                event = entry[3]
                if event.cancelled:
                    self._discard_dead(event)
                    continue
                time = entry[0]
                if time > until:
                    # beyond the horizon: put the entry back untouched
                    heapq.heappush(heap, entry)
                    break
                event._queued = False
                self._num_live -= 1
                if time > clock._now:
                    clock._now = time
                dispatched += 1
                self.num_dispatched += 1
                handler(event)
        return dispatched
