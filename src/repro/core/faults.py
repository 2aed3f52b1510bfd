"""Seeded fault injection: lossy links, crashing workers, reliable delivery.

Real edge–cloud fleets do not fail only by clean spot revocation: links
lose, duplicate and delay messages, and workers crash mid-handler.
This module injects exactly those faults into the simulation — fully
seeded, so every chaos run is reproducible and journal-replayable — and
implements the *recovery* machinery that keeps the fleet's conservation
laws intact while the faults fire:

* :class:`FaultPlan` — one seeded plan per run: per-message
  loss/duplication/delay probabilities, a Poisson crash process for the
  GPU workers, and the retry/backoff budget of the reliable channel;
* :class:`FaultySharedLink` — a :class:`~repro.network.link.SharedLink`
  wrapper that draws a verdict per send: deliver, silently drop,
  duplicate (the copy consumes real uplink capacity) or delay by a
  seeded exponential extra latency;
* :class:`ReliableChannel` — sender-side retry-with-backoff plus
  receiver-side dedup, modeled on the gridworks proactor link-state
  design: every message gets an id the sender tracks until it is acked
  (in-simulation, delivery *is* the ack — the completion event closes
  the link-state loop), retransmitting on a
  :class:`~repro.runtime.events.RetryTimer` until the attempt budget is
  spent; the receiver accepts each id exactly once, dropping duplicates
  and late arrivals of abandoned ids, so delivery is idempotent;
* :class:`ReliableTransport` — the fleet transport with every send
  routed through the channel, so retransmissions re-enter the shared
  link (and pay bandwidth) like any other traffic.

Everything here is strictly opt-in: a :class:`~repro.core.fleet.
FleetSession` without a plan builds none of it and stays bit-for-bit
identical to the fault-free kernel (golden-pinned).  Note that a plan
with all rates at zero is *not* the same as no plan — retry timers and
message ids still exist and perturb event interleaving — so golden
comparisons are against ``faults=None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.actors import EdgeActor, SharedLinkTransport
from repro.network.link import LinkConfig, LinkTransfer, SharedLink, _SharedPipe
from repro.network.messages import LabelDownload, Message, ModelDownload
from repro.runtime.events import EventScheduler, RetryTimer

__all__ = [
    "FaultPlan",
    "FaultySharedLink",
    "ReliableChannel",
    "ReliableTransport",
    "CrashRecord",
    "MESSAGE_KINDS",
    "CRASH_RECOVERY_MODES",
    "PLANTED_BUGS",
]

#: deliberately-plantable bugs for the chaos shrinker's own test suite
#: (:mod:`repro.testing.shrink`): each flag name, while present in this
#: set, disables one safety mechanism so the invariant harness has a
#: real failure to minimise.  Production runs never touch this —
#: the set is empty unless a test (or the shrink CLI's demo mode)
#: explicitly adds a flag, and fixtures record which flag they need so
#: regressions replay "green as red".  Currently understood flags:
#: ``"dedup_off"`` — the reliable channel's receiver-side dedup stops
#: dropping duplicate deliveries, breaking exactly-once conservation;
#: ``"outage_handoff_off"`` — a failing-over federation region drops its
#: orphaned in-flight/queued jobs instead of re-placing them on healthy
#: regions, breaking upload conservation across migrations.
PLANTED_BUGS: set[str] = set()

#: the three edge<->cloud message kinds the reliable channel tracks
MESSAGE_KINDS = ("upload", "labels", "model")

#: how a crashed worker's in-flight jobs recover (same semantics as the
#: cluster's revocation modes: resume from checkpoint, or redo in full)
CRASH_RECOVERY_MODES = ("relabel", "checkpoint")


class FaultPlan:
    """One run's seeded fault schedule: what breaks, when, and how often.

    Message faults are drawn per send attempt (including
    retransmissions) from a seeded RNG in event order, so two runs of
    the same plan inject byte-identical fault sequences.  Crashes are a
    Poisson process (exponential gaps of mean
    ``mean_time_between_crashes``) drawn up-front for the run's
    horizon; each firing carries a seeded ``victim_draw`` that picks
    the victim among the workers active *at that instant*.

    ``retry_timeout_seconds`` / ``retry_backoff`` / ``max_attempts``
    budget the reliable channel: a message unacked after its timeout is
    retransmitted with the timeout multiplied by the backoff, and after
    ``max_attempts`` sends it is abandoned (the receiver will also drop
    any late copy of an abandoned id, so the loss is *accounted*, never
    silent).  ``crash_recovery`` picks how jobs killed by a crash
    recover (``"checkpoint"`` resume or ``"relabel"`` from scratch).
    """

    def __init__(
        self,
        seed: int = 0,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        delay_rate: float = 0.0,
        mean_delay_seconds: float = 0.5,
        retry_timeout_seconds: float = 1.0,
        retry_backoff: float = 2.0,
        max_attempts: int = 4,
        mean_time_between_crashes: float | None = None,
        crash_recovery: str = "checkpoint",
        mean_time_between_partitions: float | None = None,
        mean_partition_seconds: float = 1.0,
        mean_time_between_region_outages: float | None = None,
        mean_region_outage_seconds: float = 2.0,
    ) -> None:
        for label, rate in (
            ("loss_rate", loss_rate),
            ("duplicate_rate", duplicate_rate),
            ("delay_rate", delay_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {rate}")
        if loss_rate + duplicate_rate + delay_rate > 1.0 + 1e-12:
            raise ValueError(
                "loss_rate + duplicate_rate + delay_rate must not exceed 1, "
                f"got {loss_rate + duplicate_rate + delay_rate}"
            )
        if mean_delay_seconds <= 0:
            raise ValueError(
                f"mean_delay_seconds must be positive, got {mean_delay_seconds}"
            )
        if retry_timeout_seconds <= 0:
            raise ValueError(
                f"retry_timeout_seconds must be positive, got {retry_timeout_seconds}"
            )
        if retry_backoff < 1.0:
            raise ValueError(
                f"retry_backoff must be >= 1 (timeouts never shrink), "
                f"got {retry_backoff}"
            )
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if mean_time_between_crashes is not None and mean_time_between_crashes <= 0:
            raise ValueError(
                "mean_time_between_crashes must be positive (or None for no "
                f"crashes), got {mean_time_between_crashes}"
            )
        if crash_recovery not in CRASH_RECOVERY_MODES:
            raise ValueError(
                f"crash_recovery must be one of {CRASH_RECOVERY_MODES}, "
                f"got {crash_recovery!r}"
            )
        if mean_time_between_partitions is not None and mean_time_between_partitions <= 0:
            raise ValueError(
                "mean_time_between_partitions must be positive (or None for "
                f"no partitions), got {mean_time_between_partitions}"
            )
        if mean_partition_seconds <= 0:
            raise ValueError(
                f"mean_partition_seconds must be positive, got {mean_partition_seconds}"
            )
        if (
            mean_time_between_region_outages is not None
            and mean_time_between_region_outages <= 0
        ):
            raise ValueError(
                "mean_time_between_region_outages must be positive (or None "
                f"for no region outages), got {mean_time_between_region_outages}"
            )
        if mean_region_outage_seconds <= 0:
            raise ValueError(
                "mean_region_outage_seconds must be positive, got "
                f"{mean_region_outage_seconds}"
            )
        self.seed = seed
        self.loss_rate = loss_rate
        self.duplicate_rate = duplicate_rate
        self.delay_rate = delay_rate
        self.mean_delay_seconds = mean_delay_seconds
        self.retry_timeout_seconds = retry_timeout_seconds
        self.retry_backoff = retry_backoff
        self.max_attempts = max_attempts
        self.mean_time_between_crashes = mean_time_between_crashes
        self.crash_recovery = crash_recovery
        self.mean_time_between_partitions = mean_time_between_partitions
        self.mean_partition_seconds = mean_partition_seconds
        self.mean_time_between_region_outages = mean_time_between_region_outages
        self.mean_region_outage_seconds = mean_region_outage_seconds
        self.reset()

    def reset(self) -> None:
        """Re-seed the per-message RNG so successive runs draw identically.

        :meth:`~repro.core.fleet.FleetSession.run` calls this at run
        start — without it, a reused plan would continue its RNG stream
        and the second run could not replay the first's journal.
        """
        self._message_rng = np.random.default_rng([self.seed, 1])

    def draw_verdict(self) -> tuple[str, float]:
        """Draw one send attempt's fate: deliver / lose / duplicate / delay.

        Returns ``(verdict, extra_delay_seconds)``; the extra delay is
        non-zero only for the ``"delay"`` verdict.  Consumed in event
        order, which is what makes chaos runs journal-replayable.
        """
        roll = float(self._message_rng.random())
        if roll < self.loss_rate:
            return "lose", 0.0
        if roll < self.loss_rate + self.duplicate_rate:
            return "duplicate", 0.0
        if roll < self.loss_rate + self.duplicate_rate + self.delay_rate:
            return "delay", float(
                self._message_rng.exponential(self.mean_delay_seconds)
            )
        return "deliver", 0.0

    def draw_crash_times(self, horizon: float) -> list[tuple[float, int]]:
        """Poisson crash schedule for [0, horizon]: (time, victim_draw) pairs.

        Drawn from an RNG stream independent of the message verdicts
        (so adding crashes to a plan does not shift its message fault
        sequence) and freshly seeded per call — deterministic however
        often it is asked.
        """
        if self.mean_time_between_crashes is None or horizon <= 0:
            return []
        rng = np.random.default_rng([self.seed, 2])
        crashes: list[tuple[float, int]] = []
        time = float(rng.exponential(self.mean_time_between_crashes))
        while time <= horizon:
            crashes.append((time, int(rng.integers(2**31))))
            time += float(rng.exponential(self.mean_time_between_crashes))
        return crashes

    def draw_partitions(self, horizon: float) -> list[tuple[float, float]]:
        """Seeded link-partition schedule: non-overlapping (cut, heal) pairs.

        Cut times follow a Poisson process with exponential gaps of mean
        ``mean_time_between_partitions`` (each gap measured from the
        previous *heal*, so intervals never overlap); each outage lasts
        an exponential ``mean_partition_seconds`` draw.  Drawn from an
        RNG stream independent of both the message verdicts and the
        crash process — enabling partitions on a plan shifts neither —
        and freshly seeded per call, so it is deterministic however
        often it is asked.  Heals past the horizon are kept: the kernel
        drains them so a run never ends mid-partition.
        """
        if self.mean_time_between_partitions is None or horizon <= 0:
            return []
        rng = np.random.default_rng([self.seed, 3])
        partitions: list[tuple[float, float]] = []
        start = float(rng.exponential(self.mean_time_between_partitions))
        while start <= horizon:
            end = start + float(rng.exponential(self.mean_partition_seconds))
            partitions.append((start, end))
            start = end + float(rng.exponential(self.mean_time_between_partitions))
        return partitions

    def draw_partitions_for_region(
        self, horizon: float, region: int
    ) -> list[tuple[float, float]]:
        """Seeded per-region WAN partition schedule (federation runs).

        Same Poisson cut/heal process as :meth:`draw_partitions` but from
        a region-indexed RNG stream, so each region's WAN partitions
        independently and adding a region never shifts another region's
        schedule.  The single-link stream (:meth:`draw_partitions`) is
        untouched, keeping pre-federation journals byte-identical.
        """
        if self.mean_time_between_partitions is None or horizon <= 0:
            return []
        rng = np.random.default_rng([self.seed, 3, region])
        partitions: list[tuple[float, float]] = []
        start = float(rng.exponential(self.mean_time_between_partitions))
        while start <= horizon:
            end = start + float(rng.exponential(self.mean_partition_seconds))
            partitions.append((start, end))
            start = end + float(rng.exponential(self.mean_time_between_partitions))
        return partitions

    def draw_region_outages(
        self, horizon: float, num_regions: int
    ) -> list[tuple[float, float, int]]:
        """Seeded region-outage schedule: (cut, heal, region) triples.

        A single global Poisson process (at most one region down at a
        time, gaps measured heal-to-cut so outages never overlap) whose
        each firing picks a uniform victim region.  Drawn from an RNG
        stream independent of messages, crashes and WAN partitions, and
        freshly seeded per call.  Heals past the horizon are kept so a
        run never ends mid-outage.
        """
        if (
            self.mean_time_between_region_outages is None
            or horizon <= 0
            or num_regions <= 0
        ):
            return []
        rng = np.random.default_rng([self.seed, 4])
        outages: list[tuple[float, float, int]] = []
        start = float(rng.exponential(self.mean_time_between_region_outages))
        while start <= horizon:
            end = start + float(rng.exponential(self.mean_region_outage_seconds))
            outages.append((start, end, int(rng.integers(num_regions))))
            start = end + float(rng.exponential(self.mean_time_between_region_outages))
        return outages

    @property
    def injects_message_faults(self) -> bool:
        """Whether any per-message fault has non-zero probability."""
        return (self.loss_rate + self.duplicate_rate + self.delay_rate) > 0.0

    @property
    def injects_partitions(self) -> bool:
        """Whether the plan schedules link partitions at all."""
        return self.mean_time_between_partitions is not None

    @property
    def injects_region_outages(self) -> bool:
        """Whether the plan schedules whole-region outages at all."""
        return self.mean_time_between_region_outages is not None

    def fingerprint(self) -> dict:
        """JSON-ready parameter summary (journaled into the run's meta).

        Round-trips through the constructor: ``FaultPlan(**fp)`` rebuilds
        an identical plan.  Partition parameters appear only when
        partitions are enabled, so partition-free plans fingerprint —
        and journal — byte-identically to plans from before the
        partition fault existed.
        """
        fingerprint = {
            "seed": self.seed,
            "loss_rate": self.loss_rate,
            "duplicate_rate": self.duplicate_rate,
            "delay_rate": self.delay_rate,
            "mean_delay_seconds": self.mean_delay_seconds,
            "retry_timeout_seconds": self.retry_timeout_seconds,
            "retry_backoff": self.retry_backoff,
            "max_attempts": self.max_attempts,
            "mean_time_between_crashes": self.mean_time_between_crashes,
            "crash_recovery": self.crash_recovery,
        }
        if self.injects_partitions:
            fingerprint["mean_time_between_partitions"] = (
                self.mean_time_between_partitions
            )
            fingerprint["mean_partition_seconds"] = self.mean_partition_seconds
        if self.injects_region_outages:
            fingerprint["mean_time_between_region_outages"] = (
                self.mean_time_between_region_outages
            )
            fingerprint["mean_region_outage_seconds"] = (
                self.mean_region_outage_seconds
            )
        return fingerprint

    def describe(self) -> str:
        """Short human-readable tag for result tables and fault logs."""
        crashes = (
            f" mtbc={self.mean_time_between_crashes:g}s/{self.crash_recovery}"
            if self.mean_time_between_crashes is not None
            else ""
        )
        partitions = (
            f" mtbp={self.mean_time_between_partitions:g}s"
            f"/{self.mean_partition_seconds:g}s"
            if self.injects_partitions
            else ""
        )
        outages = (
            f" mtbo={self.mean_time_between_region_outages:g}s"
            f"/{self.mean_region_outage_seconds:g}s"
            if self.injects_region_outages
            else ""
        )
        return (
            f"seed={self.seed} loss={self.loss_rate:g} "
            f"dup={self.duplicate_rate:g} delay={self.delay_rate:g}"
            f"{crashes}{partitions}{outages}"
        )


@dataclass(frozen=True)
class CrashRecord:
    """One worker crash that hit: what was lost, recovered and restarted."""

    time: float
    worker_id: int
    #: id of the supervised replacement worker brought up at the crash
    #: instant (tenant state recovered from the shared registry), or
    #: None when the victim was already draining out of an autoscaler
    #: scale-down — capacity that was leaving is not restarted
    replacement_id: int | None
    #: recovery mode applied to the in-flight jobs
    mode: str
    #: jobs killed mid-busy-period (checkpoint-resumed or relabeled)
    jobs_in_flight: int
    #: queued jobs re-placed untouched through the handoff path
    jobs_queued: int
    #: wall-clock GPU work thrown away (0.0 under checkpoint resume)
    wasted_gpu_seconds: float

    @property
    def reason(self) -> str:
        """Human-readable one-liner for timelines and demo output."""
        restart = (
            f"restarted as worker {self.replacement_id}"
            if self.replacement_id is not None
            else "was draining, not restarted"
        )
        return (
            f"t={self.time:7.2f}s crashed   worker {self.worker_id} "
            f"({self.jobs_in_flight} in-flight -> {self.mode}, "
            f"{self.jobs_queued} queued re-placed, "
            f"{self.wasted_gpu_seconds:.3f}s wasted, "
            f"{restart})"
        )


class FaultySharedLink(SharedLink):
    """A :class:`SharedLink` that injects seeded message faults per send.

    Every :meth:`begin_uplink` / :meth:`begin_downlink` draws one
    verdict from the plan:

    * **deliver** — the transfer proceeds normally;
    * **lose** — the transfer object is created (the sender believes it
      sent) but never enters the pipe: no bits flow, no completion ever
      fires, and only a retransmission can recover the message;
    * **duplicate** — a full copy of the transfer (same ``message_id``
      and payload, its own transfer id) is added alongside the
      original, consuming real capacity; the receiver's dedup drops
      whichever copy lands second;
    * **delay** — the transfer completes normally but its delivery is
      pushed back by a seeded exponential extra latency (an out-of-
      order-delivery generator: a delayed first attempt can land after
      its own retransmission).
    """

    def __init__(self, config: LinkConfig | None, plan: FaultPlan) -> None:
        super().__init__(config)
        self.plan = plan
        self.num_lost = 0
        self.num_duplicated = 0
        self.num_delayed = 0

    def _begin(
        self,
        pipe: _SharedPipe,
        direction: str,
        message: Message,
        now: float,
        camera_id: int,
        payload: object,
        message_id: int = -1,
        sent_at: float | None = None,
    ) -> LinkTransfer:
        verdict, extra = self.plan.draw_verdict()
        if verdict == "lose":
            # the sender handed the message to the network, but it never
            # enters the pipe: no completion will ever fire for it
            self.num_lost += 1
            bits = float(message.size_bytes() * 8)
            return LinkTransfer(
                transfer_id=next(self._ids),
                direction=direction,
                size_bits=bits,
                remaining_bits=bits,
                start_time=now,
                camera_id=camera_id,
                payload=payload,
                message_id=message_id,
                sent_at=sent_at,
            )
        transfer = super()._begin(
            pipe, direction, message, now, camera_id, payload, message_id, sent_at
        )
        if verdict == "delay":
            self.num_delayed += 1
            transfer.extra_delay = extra
        elif verdict == "duplicate":
            self.num_duplicated += 1
            duplicate = LinkTransfer(
                transfer_id=next(self._ids),
                direction=direction,
                size_bits=transfer.size_bits,
                remaining_bits=transfer.size_bits,
                start_time=now,
                camera_id=camera_id,
                payload=payload,
                message_id=message_id,
                sent_at=sent_at,
            )
            pipe.add(duplicate, now)
        return transfer


@dataclass
class _Outbound:
    """Sender-side state of one unacked message (proactor link state)."""

    message_id: int
    kind: str
    camera_id: int
    #: re-issues the send at (now, message_id) — closes over the payload
    resend: Callable[[float, int], None]
    attempt: int
    timeout: float
    timer: RetryTimer | None = None


class ReliableChannel:
    """Exactly-once edge<->cloud delivery over a faulty link.

    Modeled on the gridworks-scada proactor link-state machine: the
    sender assigns every message a monotonically increasing id and
    keeps it *outstanding* until acknowledged; unacked messages are
    retransmitted on timer expiry with exponential backoff, and
    abandoned once the attempt budget is spent.  In the simulation the
    acknowledgement is the delivery itself — the completion event
    reaching its handler plays the role of the proactor's ack message —
    so :meth:`accept` both dedups the receive side *and* settles the
    send side (cancelling the pending retry timer).

    Conservation: every id ends in exactly one of ``delivered`` or
    ``abandoned``, and duplicates/late arrivals are counted as drops —
    which is what lets the chaos invariant suite assert that sent ==
    labeled + rejected + abandoned even under loss, duplication, delay
    and crashes all at once.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._next_id = 0
        self._outstanding: dict[int, _Outbound] = {}
        self._delivered: set[int] = set()
        self._abandoned: set[int] = set()
        self.num_retries = 0
        self.num_duplicate_drops = 0
        self.num_late_drops = 0
        self.sends_by_kind: dict[str, int] = {kind: 0 for kind in MESSAGE_KINDS}
        self.abandoned_by_kind: dict[str, int] = {kind: 0 for kind in MESSAGE_KINDS}

    # -- sender side ---------------------------------------------------------
    def send(
        self,
        scheduler: EventScheduler,
        kind: str,
        camera_id: int,
        attempt_fn: Callable[[float, int], None],
        now: float,
    ) -> int:
        """Issue a tracked send: first attempt now, retry timer armed.

        ``attempt_fn(at, message_id)`` performs one actual transmission
        (it is re-invoked verbatim for retransmissions).  Returns the
        assigned message id.
        """
        if kind not in MESSAGE_KINDS:
            raise ValueError(f"unknown message kind {kind!r}")
        message_id = self._next_id
        self._next_id += 1
        outbound = _Outbound(
            message_id=message_id,
            kind=kind,
            camera_id=camera_id,
            resend=attempt_fn,
            attempt=1,
            timeout=self.plan.retry_timeout_seconds,
        )
        self._outstanding[message_id] = outbound
        self.sends_by_kind[kind] += 1
        attempt_fn(now, message_id)
        self._arm_timer(scheduler, outbound, now)
        return message_id

    def _arm_timer(
        self, scheduler: EventScheduler, outbound: _Outbound, now: float
    ) -> None:
        outbound.timer = scheduler.schedule(
            RetryTimer(
                time=now + outbound.timeout,
                camera_id=outbound.camera_id,
                message_id=outbound.message_id,
                attempt=outbound.attempt,
            )
        )

    def on_timer(self, event: RetryTimer, scheduler: EventScheduler) -> None:
        """A retry timer fired: retransmit with backoff, or abandon.

        Timers of already-acked messages are cancelled on delivery, and
        a stale timer (raced by a same-instant delivery, or superseded
        by a newer attempt) is ignored via the attempt-number guard.
        """
        outbound = self._outstanding.get(event.message_id)
        if outbound is None or outbound.attempt != event.attempt:
            return
        if outbound.attempt >= self.plan.max_attempts:
            del self._outstanding[outbound.message_id]
            self._abandoned.add(outbound.message_id)
            self.abandoned_by_kind[outbound.kind] += 1
            return
        outbound.attempt += 1
        outbound.timeout *= self.plan.retry_backoff
        self.num_retries += 1
        outbound.resend(event.time, outbound.message_id)
        self._arm_timer(scheduler, outbound, event.time)

    # -- receiver side -------------------------------------------------------
    def accept(self, message_id: int, scheduler: EventScheduler) -> bool:
        """Idempotent delivery gate: True exactly once per message id.

        Untracked deliveries (``message_id < 0``, the faults-off path)
        always pass.  The first tracked arrival acks the sender
        (cancelling its retry timer) and is accepted; any further copy
        — a link duplicate or a retransmission racing the original —
        is dropped, as is a late arrival of an id the sender already
        abandoned (accepting it would resurrect a loss the accounting
        has written off).
        """
        if message_id < 0:
            return True
        if message_id in self._delivered:
            if "dedup_off" in PLANTED_BUGS:
                # planted bug (shrinker test harness only): skip the
                # dedup drop so a duplicated message is handled twice
                return True
            self.num_duplicate_drops += 1
            return False
        if message_id in self._abandoned:
            self.num_late_drops += 1
            return False
        self._delivered.add(message_id)
        outbound = self._outstanding.pop(message_id, None)
        if outbound is not None and outbound.timer is not None:
            scheduler.cancel(outbound.timer)
        return True

    # -- accounting ----------------------------------------------------------
    @property
    def num_messages_sent(self) -> int:
        """Distinct messages issued (retransmissions are not re-counted)."""
        return sum(self.sends_by_kind.values())

    @property
    def num_messages_delivered(self) -> int:
        """Distinct messages that reached their handler exactly once."""
        return len(self._delivered)

    @property
    def num_abandoned_messages(self) -> int:
        """Messages the sender gave up on after the attempt budget."""
        return sum(self.abandoned_by_kind.values())

    @property
    def num_in_flight(self) -> int:
        """Messages still unacked when the run drained (horizon cut-off)."""
        return len(self._outstanding)


class ReliableTransport(SharedLinkTransport):
    """Fleet transport whose every send goes through a reliable channel.

    Same wire behaviour as :class:`SharedLinkTransport` — one pending
    completion event per direction, re-projected on every load change —
    but each send is issued via :meth:`ReliableChannel.send`, so it
    carries a message id, arms a retry timer, and may be retransmitted.
    Retransmissions re-enter the shared link as fresh transfers (and
    are re-accounted as bandwidth: the bytes really cross the link
    again) while keeping the original message id and first-attempt send
    time, so dedup and latency statistics stay honest.
    """

    def __init__(self, link: FaultySharedLink, channel: ReliableChannel) -> None:
        super().__init__(link)
        self.channel = channel

    def send_upload(
        self,
        scheduler: EventScheduler,
        actor: EdgeActor,
        upload,
        batch,
        alpha: float,
        lambda_usage: float,
        now: float,
    ) -> None:
        """Issue a tracked upload; retransmissions replay the same batch."""
        first_sent = now

        def _attempt(at: float, message_id: int) -> None:
            actor.accountant.record_uplink(upload, at)
            self.link.begin_uplink(
                upload,
                at,
                camera_id=actor.camera_id,
                payload=("upload", actor, batch, alpha, lambda_usage),
                message_id=message_id,
                sent_at=first_sent,
            )
            self._sync_uplink(scheduler, at)

        self.channel.send(scheduler, "upload", actor.camera_id, _attempt, now)

    def send_labels(
        self,
        scheduler: EventScheduler,
        actor: EdgeActor,
        response,
        now: float,
    ) -> None:
        """Issue a tracked label download for one labeled batch."""
        message = LabelDownload(
            num_frames=len(response.labeled_frames), num_boxes=response.num_boxes
        )

        def _attempt(at: float, message_id: int) -> None:
            self.link.begin_downlink(
                message,
                at,
                camera_id=actor.camera_id,
                payload=("labels", actor, response),
                message_id=message_id,
                sent_at=now,
            )
            self._sync_downlink(scheduler, at)

        self.channel.send(scheduler, "labels", actor.camera_id, _attempt, now)

    def send_model(
        self,
        scheduler: EventScheduler,
        actor: EdgeActor,
        update: ModelDownload,
        model_state: dict,
        now: float,
    ) -> None:
        """Issue a tracked model-update download (AMS weights stream)."""

        def _attempt(at: float, message_id: int) -> None:
            actor.accountant.record_downlink(update, at)
            self.link.begin_downlink(
                update,
                at,
                camera_id=actor.camera_id,
                payload=("model", actor, model_state),
                message_id=message_id,
                sent_at=now,
            )
            self._sync_downlink(scheduler, at)

        self.channel.send(scheduler, "model", actor.camera_id, _attempt, now)
