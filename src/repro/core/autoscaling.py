"""Elastic cloud autoscaling: SLO-driven grow/shrink of the GPU cluster.

PR 3's :class:`~repro.core.cluster.CloudCluster` shards the labeling
tier across a *fixed* ``num_gpus``, so an operator has to provision for
peak drift and eat the idle cost off-peak — or underprovision and eat
queue-delay spikes whenever several cameras drift at once.  This module
closes that loop: a periodic :class:`~repro.runtime.events.AutoscaleTick`
samples a sliding-window signal (windowed p95/mean labeling-queue
delay, busy fraction of the provisioned GPUs, instantaneous backlog)
and hands it to a pluggable :class:`AutoscalePolicy` that answers one
question — *how many GPU workers should change right now?*  The
:class:`AutoscaleController` applies the answer through the cluster's
online :meth:`~repro.core.cluster.CloudCluster.add_worker` /
:meth:`~repro.core.cluster.CloudCluster.remove_worker` (worker drain +
job handoff), and records a :class:`ScalingEvent` timeline plus the
provisioned-capacity integral the fleet reports afterwards.

Three policies ship:

* :class:`NoScaler` — the default: never resizes, so every fleet that
  does not opt in behaves bit-for-bit like the PR 3 fixed cluster
  (pinned by ``tests/core/test_autoscaling.py``).
* :class:`SloScaler` — scale **out** when the windowed p95 labeling
  queue delay breaches an SLO; scale **in** only after the cluster has
  been idle (low busy fraction *and* p95 comfortably under the SLO —
  the hysteresis band) for several consecutive ticks.  A cooldown
  after every action prevents flapping, and ``min_gpus``/``max_gpus``
  bound the fleet's spend.
* :class:`StepScaler` — classic utilisation thresholds: out above
  ``high_utilization``, in below ``low_utilization``.  Simpler to
  reason about, but blind to latency: a cluster can be 60% busy and
  still miss a tight SLO, which is why the SLO policy is the one the
  autoscaling benchmark argues for.

Units: all times are simulated seconds; ``utilization`` is the busy
fraction of *provisioned* GPU-seconds over the last tick interval
(0..1); GPU capacity integrals are GPU-seconds (1 worker for 10 s = 10).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.scheduling import WorkerSpec
from repro.runtime.events import AutoscaleTick, EventScheduler

__all__ = [
    "AutoscaleSignal",
    "AutoscalePolicy",
    "NoScaler",
    "SloScaler",
    "StepScaler",
    "AUTOSCALERS",
    "build_autoscaler",
    "autoscaler_from_fingerprint",
    "ScalingEvent",
    "AutoscaleController",
]


@dataclass(frozen=True)
class AutoscaleSignal:
    """One sliding-window sample of cluster health, fed to the policy.

    ``p95_queue_delay`` / ``mean_queue_delay`` are computed over the
    labeling jobs *completed* within the last ``window_seconds`` (0.0
    when none completed); ``utilization`` is busy GPU-seconds over
    provisioned GPU-seconds since the previous tick — workers credit a
    busy period in full when it starts, so the controller carries each
    worker's excess credit forward (capped at that worker's own
    provisioned time per tick): a worker busy across several ticks
    reads ~1.0 on each of them, and one saturated worker in a 4-GPU
    cluster reads as 0.25 overall, not 1.0; ``backlog_gpu_seconds`` is
    the instantaneous residual busy time plus queued service of the
    active workers; ``num_gpus`` counts active (non-draining) workers.
    """

    time: float
    p95_queue_delay: float
    mean_queue_delay: float
    utilization: float
    backlog_gpu_seconds: float
    num_gpus: int
    #: labeling jobs completed inside the sliding window
    window_jobs: int


class AutoscalePolicy:
    """Decides, each tick, how many GPU workers to add or remove.

    Subclasses override :meth:`decide` and return a **delta**: positive
    to add workers, negative to remove (with drain), zero to hold.  The
    base class owns the knobs every policy shares — the tick
    ``interval_seconds``, the signal ``window_seconds``, the
    ``min_gpus``/``max_gpus`` bounds and the post-action
    ``cooldown_seconds`` — plus the cooldown clock helper; the
    :class:`AutoscaleController` additionally clamps whatever a policy
    returns to the bounds, so a buggy policy cannot scale below one
    active worker.
    """

    name: str = "base"
    #: queue-delay SLO the fleet's violation fraction reports against
    #: (``None`` = this policy has no latency target)
    slo_seconds: float | None = None
    #: hardware profile for workers this policy adds (``None`` = the
    #: cluster's template spec); a cost-conscious policy sets a cheap
    #: preemptible spec here and the controller passes it through
    scale_out_spec: WorkerSpec | None = None

    def __init__(
        self,
        interval_seconds: float = 2.0,
        window_seconds: float = 10.0,
        min_gpus: int = 1,
        max_gpus: int = 8,
        cooldown_seconds: float = 5.0,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(f"interval_seconds must be positive, got {interval_seconds}")
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        if min_gpus < 1:
            raise ValueError(f"min_gpus must be at least 1, got {min_gpus}")
        if max_gpus < min_gpus:
            raise ValueError(
                f"max_gpus ({max_gpus}) must be >= min_gpus ({min_gpus})"
            )
        if cooldown_seconds < 0:
            raise ValueError(f"cooldown_seconds must be >= 0, got {cooldown_seconds}")
        self.interval_seconds = interval_seconds
        self.window_seconds = window_seconds
        self.min_gpus = min_gpus
        self.max_gpus = max_gpus
        self.cooldown_seconds = cooldown_seconds
        self._last_scale_time: float | None = None

    def reset(self) -> None:
        """Clear per-run state so one instance can serve successive fleets."""
        self._last_scale_time = None

    # -- cooldown helpers ----------------------------------------------------
    def in_cooldown(self, now: float) -> bool:
        """Whether the post-action cooldown is still running at ``now``."""
        if self._last_scale_time is None:
            return False
        return now - self._last_scale_time < self.cooldown_seconds - 1e-9

    def note_scaled(self, now: float) -> None:
        """Start the cooldown clock.

        The :class:`AutoscaleController` calls this after *applying* a
        resize — never inside :meth:`decide` — so a decision that the
        controller had to block (e.g. the ``max_gpus`` spend bound while
        a drained worker is still finishing) does not burn a cooldown
        and stall recovery through an ongoing breach.  Custom policies
        only need to consult :meth:`in_cooldown`; they get the stamping
        for free.
        """
        self._last_scale_time = now

    # -- serialization -------------------------------------------------------
    def fingerprint(self) -> dict:
        """JSON-ready constructor summary, round-trippable.

        :func:`autoscaler_from_fingerprint` rebuilds an equivalent
        policy from it — the contract the chaos shrinker
        (:mod:`repro.testing.shrink`) relies on to serialise a failing
        ``(config, faults, batching, scaler)`` tuple into a regression
        fixture and replay it later.  Subclasses extend the dict with
        their own knobs.
        """
        return {
            "name": self.name,
            "interval_seconds": self.interval_seconds,
            "window_seconds": self.window_seconds,
            "min_gpus": self.min_gpus,
            "max_gpus": self.max_gpus,
            "cooldown_seconds": self.cooldown_seconds,
        }

    # -- the policy hook -----------------------------------------------------
    def decide(self, signal: AutoscaleSignal) -> int:
        """Return the worker delta for this tick (+add / -remove / 0 hold)."""
        raise NotImplementedError


class NoScaler(AutoscalePolicy):
    """Never resizes: the default, pinning the fixed-cluster behaviour.

    The controller schedules no ticks for it (nothing could come of a
    sample), so the default path adds zero overhead and every
    :class:`~repro.core.fleet.FleetResult` metric is bit-for-bit what
    the PR 3 fixed cluster produced — the golden regression in
    ``tests/core/test_autoscaling.py`` pins this, and also pins that a
    tick-firing but never-resizing policy leaves the run untouched.
    """

    name = "none"

    def decide(self, signal: AutoscaleSignal) -> int:
        """Hold the current cluster shape unconditionally."""
        return 0


class SloScaler(AutoscalePolicy):
    """Scale out on SLO breach, in after sustained idle — with hysteresis.

    * **out**: the SLO is breached — the windowed p95 labeling-queue
      delay exceeds ``slo_seconds``, **or** the *projected* delay
      (instantaneous backlog GPU-seconds spread over the active
      workers) does.  The projected term is what makes the policy react
      within one tick of a burst instead of waiting for the first
      breached jobs to finish and show up in the window.  Adds
      ``scale_out_step`` workers (bounded by ``max_gpus``).
    * **in**: the cluster counts an *idle tick* when utilisation is
      below ``scale_in_utilization`` **and** both delay signals are
      below ``hysteresis_fraction × slo_seconds`` (the hysteresis band
      keeps the scale-in trigger away from the scale-out trigger so the
      two cannot oscillate); after ``sustained_idle_ticks`` consecutive
      idle ticks one worker is drained (bounded by ``min_gpus``).
    * every *applied* action starts the ``cooldown_seconds`` clock
      (stamped by the controller), during which the policy holds,
      whatever the signal says; a decision the controller had to block
      burns no cooldown.

    Spot-aware scale-out: ``scale_out_spec`` makes every added worker
    use that hardware profile (e.g. cheap preemptible capacity —
    ``WORKER_TIERS["spot"]``) instead of the cluster's template, and
    when that spec is preemptible, ``revocation_headroom`` extra
    workers join each scale-out as insurance against expected
    revocations — over-provisioning cheap capacity instead of waiting
    one cooldown per kill (``max_gpus`` still bounds the total).
    """

    name = "slo"

    def __init__(
        self,
        slo_seconds: float = 0.5,
        scale_in_utilization: float = 0.35,
        sustained_idle_ticks: int = 3,
        hysteresis_fraction: float = 0.5,
        scale_out_step: int = 1,
        scale_out_spec: WorkerSpec | None = None,
        revocation_headroom: int = 0,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        if slo_seconds <= 0:
            raise ValueError(f"slo_seconds must be positive, got {slo_seconds}")
        if not 0.0 < scale_in_utilization < 1.0:
            raise ValueError(
                f"scale_in_utilization must be in (0, 1), got {scale_in_utilization}"
            )
        if sustained_idle_ticks < 1:
            raise ValueError(
                f"sustained_idle_ticks must be >= 1, got {sustained_idle_ticks}"
            )
        if not 0.0 < hysteresis_fraction <= 1.0:
            raise ValueError(
                f"hysteresis_fraction must be in (0, 1], got {hysteresis_fraction}"
            )
        if scale_out_step < 1:
            raise ValueError(f"scale_out_step must be >= 1, got {scale_out_step}")
        if revocation_headroom < 0:
            raise ValueError(
                f"revocation_headroom must be >= 0, got {revocation_headroom}"
            )
        if revocation_headroom > 0 and (
            scale_out_spec is None or not scale_out_spec.preemptible
        ):
            raise ValueError(
                "revocation_headroom over-provisions against spot kills; it "
                "needs a preemptible scale_out_spec"
            )
        self.slo_seconds = slo_seconds
        self.scale_in_utilization = scale_in_utilization
        self.sustained_idle_ticks = sustained_idle_ticks
        self.hysteresis_fraction = hysteresis_fraction
        self.scale_out_step = scale_out_step
        self.scale_out_spec = scale_out_spec
        self.revocation_headroom = revocation_headroom
        self._idle_ticks = 0

    def reset(self) -> None:
        """Clear the cooldown clock and the idle-tick streak."""
        super().reset()
        self._idle_ticks = 0

    def projected_delay(self, signal: AutoscaleSignal) -> float:
        """Backlog GPU-seconds spread over the active workers (seconds)."""
        return signal.backlog_gpu_seconds / max(1, signal.num_gpus)

    def decide(self, signal: AutoscaleSignal) -> int:
        """SLO breach → out; sustained idle inside the hysteresis band → in."""
        projected = self.projected_delay(signal)
        breached = (
            signal.p95_queue_delay > self.slo_seconds + 1e-9
            or projected > self.slo_seconds + 1e-9
        )
        band = self.hysteresis_fraction * self.slo_seconds + 1e-9
        idle = (
            signal.utilization < self.scale_in_utilization
            and signal.p95_queue_delay <= band
            and projected <= band
        )
        # the idle streak tracks the signal even through cooldown, so a
        # cluster that drained during the cooldown can shrink promptly
        self._idle_ticks = self._idle_ticks + 1 if idle else 0
        if self.in_cooldown(signal.time):
            return 0
        if breached and signal.num_gpus < self.max_gpus:
            self._idle_ticks = 0
            step = self.scale_out_step + self.revocation_headroom
            return min(step, self.max_gpus - signal.num_gpus)
        if self._idle_ticks >= self.sustained_idle_ticks and signal.num_gpus > self.min_gpus:
            self._idle_ticks = 0
            return -1
        return 0

    def fingerprint(self) -> dict:
        """Base knobs plus the SLO/hysteresis/spot-headroom parameters."""
        fingerprint = super().fingerprint()
        fingerprint.update(
            slo_seconds=self.slo_seconds,
            scale_in_utilization=self.scale_in_utilization,
            sustained_idle_ticks=self.sustained_idle_ticks,
            hysteresis_fraction=self.hysteresis_fraction,
            scale_out_step=self.scale_out_step,
            revocation_headroom=self.revocation_headroom,
            scale_out_spec=(
                None
                if self.scale_out_spec is None
                else {
                    "tier": self.scale_out_spec.tier,
                    "speed": self.scale_out_spec.speed,
                    "cost_per_gpu_second": self.scale_out_spec.cost_per_gpu_second,
                    "preemptible": self.scale_out_spec.preemptible,
                    "batch_scaling": self.scale_out_spec.batch_scaling,
                }
            ),
        )
        return fingerprint


class StepScaler(AutoscalePolicy):
    """Pure utilisation thresholds: out above high, in below low.

    The classic rule of thumb.  ``high_utilization`` must sit well
    above ``low_utilization`` (validated) or the thresholds would
    chase each other; the shared cooldown still applies.  Latency-blind
    by construction — see :class:`SloScaler` for the SLO-aware policy.
    """

    name = "step"

    def __init__(
        self,
        high_utilization: float = 0.85,
        low_utilization: float = 0.30,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        if not 0.0 < low_utilization < high_utilization <= 1.0:
            raise ValueError(
                "need 0 < low_utilization < high_utilization <= 1, got "
                f"low={low_utilization}, high={high_utilization}"
            )
        self.high_utilization = high_utilization
        self.low_utilization = low_utilization

    def decide(self, signal: AutoscaleSignal) -> int:
        """Add above the high watermark, drain below the low one."""
        if self.in_cooldown(signal.time):
            return 0
        if signal.utilization > self.high_utilization and signal.num_gpus < self.max_gpus:
            return 1
        if signal.utilization < self.low_utilization and signal.num_gpus > self.min_gpus:
            return -1
        return 0

    def fingerprint(self) -> dict:
        """Base knobs plus the utilisation watermarks."""
        fingerprint = super().fingerprint()
        fingerprint.update(
            high_utilization=self.high_utilization,
            low_utilization=self.low_utilization,
        )
        return fingerprint


#: registry threaded through ``RegionSpec(autoscaler=...)`` and
#: ``run_fleet(autoscaler=...)``
AUTOSCALERS: dict[str, type[AutoscalePolicy]] = {
    NoScaler.name: NoScaler,
    SloScaler.name: SloScaler,
    StepScaler.name: StepScaler,
}


def build_autoscaler(
    autoscaler: AutoscalePolicy | str | None, **kwargs: Any
) -> AutoscalePolicy:
    """Resolve an autoscale policy from a name (or pass an instance through)."""
    if autoscaler is None:
        return NoScaler()
    if isinstance(autoscaler, AutoscalePolicy):
        if kwargs:
            raise ValueError("keyword options only apply when building by name")
        return autoscaler
    try:
        factory = AUTOSCALERS[autoscaler]
    except KeyError:
        known = ", ".join(sorted(AUTOSCALERS))
        raise ValueError(
            f"unknown autoscaler {autoscaler!r} (known: {known})"
        ) from None
    return factory(**kwargs)


def autoscaler_from_fingerprint(data: dict) -> AutoscalePolicy:
    """Rebuild a policy from :meth:`AutoscalePolicy.fingerprint` output.

    The inverse the chaos shrinker's regression fixtures need: a
    fixture stores the failing run's scaler as canonical JSON, and
    replaying the fixture reconstructs an equivalent policy here.  The
    ``name`` key picks the class from :data:`AUTOSCALERS`; a serialised
    ``scale_out_spec`` dict is rehydrated into a
    :class:`~repro.core.scheduling.WorkerSpec`.
    """
    kwargs = dict(data)
    name = kwargs.pop("name")
    spec = kwargs.pop("scale_out_spec", None)
    if spec is not None:
        kwargs["scale_out_spec"] = WorkerSpec(**spec)
    return build_autoscaler(name, **kwargs)


@dataclass(frozen=True)
class ScalingEvent:
    """One entry of the scaling timeline: the cluster changed shape.

    ``action`` is ``"scale_out"`` or ``"scale_in"``; ``worker_id`` is
    the global id of the worker added or drained; the signal fields
    record *why* (what the policy saw when it acted).
    """

    time: float
    action: str
    worker_id: int
    num_gpus_before: int
    num_gpus_after: int
    p95_queue_delay: float
    utilization: float

    @property
    def reason(self) -> str:
        """Human-readable one-liner for timelines and demo output."""
        return (
            f"t={self.time:7.2f}s {self.action:9s} worker {self.worker_id} "
            f"({self.num_gpus_before}->{self.num_gpus_after} GPUs, "
            f"p95={self.p95_queue_delay:.3f}s, util={self.utilization:.2f})"
        )


class AutoscaleController:
    """Samples the signal each tick and applies the policy to the cluster.

    Owns the plumbing the policies must not care about: scheduling the
    periodic :class:`AutoscaleTick` up to the fleet ``horizon``,
    computing the sliding-window signal from the cluster's completed
    jobs and busy/provisioned clocks, clamping deltas to the policy
    bounds (never below one active worker), and recording the
    :class:`ScalingEvent` timeline plus every sampled
    :class:`AutoscaleSignal`.
    """

    def __init__(
        self,
        policy: AutoscalePolicy,
        cluster,
        horizon: float,
    ) -> None:
        self.policy = policy
        self.cluster = cluster
        self.horizon = horizon
        self.events: list[ScalingEvent] = []
        self.signals: list[AutoscaleSignal] = []
        #: the tick event currently queued for this controller (None
        #: when no more ticks are scheduled) — identity handle the
        #: federation uses to route a popped AutoscaleTick back to the
        #: region controller that armed it
        self.pending_tick: AutoscaleTick | None = None
        self._last_sample_time = 0.0
        self._last_busy_by_worker: dict[int, float] = {}
        #: per-worker busy credit charged at busy-period start but not
        #: yet matched by that worker's provisioned time — spread over
        #: the following ticks (per worker, so one saturated worker
        #: cannot read as a saturated cluster)
        self._carryover_by_worker: dict[int, float] = {}
        policy.reset()

    def start(self, scheduler: EventScheduler) -> None:
        """Schedule the first tick (none if the horizon is shorter).

        The exact :class:`NoScaler` gets no ticks at all: it can never
        act on a sample, so sampling would be pure overhead added to
        every default fleet run.  (A *subclass* still ticks — it may
        observe or act.)
        """
        if type(self.policy) is NoScaler:
            return
        first = self.policy.interval_seconds
        if first <= self.horizon + 1e-9:
            self.pending_tick = scheduler.schedule(AutoscaleTick(time=first))

    # -- signal --------------------------------------------------------------
    def _window_waits(self, now: float) -> list[float]:
        """Queue delays of labeling jobs completed inside the window.

        Each worker's ``completed_jobs`` list is already in completion
        order, so a per-worker bisect finds the window tail without
        merging and re-sorting the cluster's whole completion history
        every tick.
        """
        window_start = now - self.policy.window_seconds
        waits: list[float] = []
        for worker in self.cluster.workers:
            jobs = worker.completed_jobs
            start = bisect_right(jobs, window_start, key=lambda job: job.completion)
            waits.extend(job.wait_seconds for job in jobs[start:])
        return waits

    def _utilization(self, now: float) -> float:
        """Busy over provisioned GPU-seconds since the previous sample.

        Workers credit ``busy_seconds`` in full when a busy period
        starts, so each worker's excess credit is carried over to its
        own later ticks — capped at that worker's *own* provisioned
        time per tick, never pooled: one saturated worker in a 4-GPU
        cluster reads as 0.25, not 1.0-then-0.0 for the whole cluster.
        """
        used_total = 0.0
        capacity_total = 0.0
        for worker in self.cluster.workers:
            worker_id = worker.worker_id
            busy_delta = worker.busy_seconds - self._last_busy_by_worker.get(
                worker_id, 0.0
            )
            self._last_busy_by_worker[worker_id] = worker.busy_seconds
            start = max(self._last_sample_time, worker.provisioned_since)
            end = now if worker.retired_at is None else min(now, worker.retired_at)
            capacity = max(0.0, end - start)
            carry = self._carryover_by_worker.get(worker_id, 0.0) + busy_delta
            used = min(carry, capacity)
            self._carryover_by_worker[worker_id] = carry - used
            used_total += used
            capacity_total += capacity
        self._last_sample_time = now
        return used_total / capacity_total if capacity_total > 0 else 0.0

    def sample(self, now: float) -> AutoscaleSignal:
        """Compute the sliding-window signal as of ``now``."""
        waits = self._window_waits(now)
        utilization = self._utilization(now)
        active = self.cluster.active_workers
        return AutoscaleSignal(
            time=now,
            p95_queue_delay=float(np.percentile(waits, 95.0)) if waits else 0.0,
            mean_queue_delay=float(np.mean(waits)) if waits else 0.0,
            utilization=utilization,
            backlog_gpu_seconds=sum(w.pending_gpu_seconds(now) for w in active),
            num_gpus=len(active),
            window_jobs=len(waits),
        )

    # -- tick handler --------------------------------------------------------
    def on_tick(self, event: AutoscaleTick, scheduler: EventScheduler) -> None:
        """Sample, decide, apply (clamped), and schedule the next tick."""
        now = event.time
        signal = self.sample(now)
        self.signals.append(signal)
        delta = self.policy.decide(signal)
        applied_before = len(self.events)
        if delta > 0:
            self._scale_out(delta, signal, now)
        elif delta < 0:
            self._scale_in(-delta, signal, now, scheduler)
        if len(self.events) != applied_before:
            # the cooldown clock starts only on APPLIED resizes, so a
            # decision blocked by the spend/min bounds does not burn a
            # cooldown the cluster never acted on
            self.policy.note_scaled(now)
        next_tick = now + self.policy.interval_seconds
        if next_tick <= self.horizon + 1e-9:
            self.pending_tick = scheduler.schedule(AutoscaleTick(time=next_tick))
        else:
            self.pending_tick = None

    def skip_tick(self, event: AutoscaleTick, scheduler: EventScheduler) -> None:
        """Consume a tick without sampling or acting, keeping the train alive.

        The federation suppresses autoscaling while its region is torn
        down by an outage — a policy acting on an empty cluster would
        resurrect capacity mid-outage (or crash scaling in below one
        worker) — but the next tick is still scheduled so the
        controller resumes sampling the moment the region heals.
        """
        next_tick = event.time + self.policy.interval_seconds
        if next_tick <= self.horizon + 1e-9:
            self.pending_tick = scheduler.schedule(AutoscaleTick(time=next_tick))
        else:
            self.pending_tick = None

    def _scale_out(self, count: int, signal: AutoscaleSignal, now: float) -> None:
        for _ in range(count):
            before = self.cluster.num_active
            # bound SPEND, not just the active set: a drained worker
            # still finishing its busy period keeps charging provisioned
            # capacity, so replacing it early would exceed max_gpus
            if self.cluster.num_charging(now) >= self.policy.max_gpus:
                break
            worker = self.cluster.add_worker(now, spec=self.policy.scale_out_spec)
            self.events.append(
                ScalingEvent(
                    time=now,
                    action="scale_out",
                    worker_id=worker.worker_id,
                    num_gpus_before=before,
                    num_gpus_after=self.cluster.num_active,
                    p95_queue_delay=signal.p95_queue_delay,
                    utilization=signal.utilization,
                )
            )

    def _scale_in(
        self,
        count: int,
        signal: AutoscaleSignal,
        now: float,
        scheduler: EventScheduler,
    ) -> None:
        # Scale-in drains: the worker leaves the active set now but its
        # in-flight busy period finishes in the background. That tail is
        # exposed to the fault plan's crash process — a crash landing on
        # the draining worker (the crash-vs-drain race) is resolved by
        # CloudCluster.on_crash: the tail is preempted once, the drain's
        # future retirement stamp is superseded by the crash instant,
        # and no replacement is provisioned (the capacity was already
        # leaving), so the cluster never double-preempts or regrows
        # capacity the policy just removed.
        for _ in range(count):
            before = self.cluster.num_active
            if before <= max(1, self.policy.min_gpus):
                break
            worker = self.cluster.remove_worker(now=now, scheduler=scheduler)
            self.events.append(
                ScalingEvent(
                    time=now,
                    action="scale_in",
                    worker_id=worker.worker_id,
                    num_gpus_before=before,
                    num_gpus_after=self.cluster.num_active,
                    p95_queue_delay=signal.p95_queue_delay,
                    utilization=signal.utilization,
                )
            )
