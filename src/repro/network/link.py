"""Network link models between edge devices and the cloud.

:class:`NetworkLink` is the original point-to-point model: one edge
device, closed-form transfer times.  :class:`SharedLink` extends it for
fleet sessions: each direction is a processor-sharing pipe whose
capacity is split equally across all concurrent transfers, so upload
latency rises as more cameras contend for the same uplink.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.network.messages import Message

__all__ = [
    "LinkConfig",
    "NetworkLink",
    "SharedLink",
    "LinkTransfer",
    "WanProfile",
]


@dataclass(frozen=True)
class LinkConfig:
    """Capacity and latency of the edge-cloud connection."""

    uplink_kbps: float = 10_000.0
    downlink_kbps: float = 20_000.0
    rtt_seconds: float = 0.04

    def __post_init__(self) -> None:
        if self.uplink_kbps <= 0 or self.downlink_kbps <= 0:
            raise ValueError("link capacities must be positive")
        if self.rtt_seconds < 0:
            raise ValueError("rtt must be non-negative")


@dataclass(frozen=True)
class WanProfile:
    """WAN characteristics of one federation region's edge-cloud path.

    Extends the in-region :class:`LinkConfig` shape with a dollar price
    per gigabyte crossed, so region selectors can trade latency against
    egress cost.  ``cost_per_gb=0`` makes the WAN free — the default
    profile of a one-region fleet.
    """

    uplink_kbps: float = 10_000.0
    downlink_kbps: float = 20_000.0
    rtt_seconds: float = 0.04
    #: dollars per gigabyte crossing the WAN (either direction)
    cost_per_gb: float = 0.0

    def __post_init__(self) -> None:
        if self.uplink_kbps <= 0 or self.downlink_kbps <= 0:
            raise ValueError("WAN capacities must be positive")
        if self.rtt_seconds < 0:
            raise ValueError("WAN rtt must be non-negative")
        if self.cost_per_gb < 0:
            raise ValueError("WAN cost_per_gb must be non-negative")

    def link_config(self) -> LinkConfig:
        """The :class:`LinkConfig` this profile's pipes are built from."""
        return LinkConfig(
            uplink_kbps=self.uplink_kbps,
            downlink_kbps=self.downlink_kbps,
            rtt_seconds=self.rtt_seconds,
        )

    def fingerprint(self) -> dict:
        """JSON-ready parameter summary (journaled into federation meta)."""
        return {
            "uplink_kbps": self.uplink_kbps,
            "downlink_kbps": self.downlink_kbps,
            "rtt_seconds": self.rtt_seconds,
            "cost_per_gb": self.cost_per_gb,
        }


class NetworkLink:
    """Transfer-time model for messages in either direction."""

    def __init__(self, config: LinkConfig | None = None) -> None:
        self.config = config or LinkConfig()

    def uplink_seconds(self, message: Message) -> float:
        """Time to push a message edge -> cloud (propagation + serialisation)."""
        bits = message.size_bytes() * 8
        return self.config.rtt_seconds / 2 + bits / (self.config.uplink_kbps * 1000.0)

    def downlink_seconds(self, message: Message) -> float:
        """Time to push a message cloud -> edge."""
        bits = message.size_bytes() * 8
        return self.config.rtt_seconds / 2 + bits / (self.config.downlink_kbps * 1000.0)


@dataclass
class LinkTransfer:
    """One in-flight transfer on a :class:`SharedLink` direction.

    ``payload`` carries whatever the simulation needs delivered when the
    transfer completes (a frame batch, a labeling response, a model
    state); the link itself never inspects it.
    """

    transfer_id: int
    direction: str  # "up" or "down"
    size_bits: float
    remaining_bits: float
    start_time: float
    camera_id: int = 0
    payload: Any = None
    drain_time: float | None = field(default=None, compare=False)
    #: reliable-delivery id under a fault plan; retransmissions and
    #: duplicates of one message share it (-1 = unreliable/off)
    message_id: int = -1
    #: when the *first* attempt of this message was sent (None = this
    #: transfer is the first attempt); keeps latency stats honest under
    #: retransmission
    sent_at: float | None = None
    #: extra one-way delay injected by a fault plan (0.0 = none); added
    #: on top of drain time + propagation when projecting completion
    extra_delay: float = 0.0

    @property
    def drained(self) -> bool:
        return self.remaining_bits <= 0.0


class _SharedPipe:
    """Processor-sharing pipe: capacity split equally among active transfers.

    The pipe advances piecewise: between state changes every undrained
    transfer drains at ``capacity / n_active`` bits per second.  Because a
    new arrival slows everything already in flight, previously projected
    completion times go stale — callers re-project via
    :meth:`next_completion` after every :meth:`add` / :meth:`retire` and
    reschedule their completion events accordingly.
    """

    def __init__(self, capacity_bps: float, extra_latency: float) -> None:
        if capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bps = capacity_bps
        self.extra_latency = extra_latency
        self._transfers: list[LinkTransfer] = []
        self._time = 0.0
        #: True while a link partition has the pipe down: no bits drain
        #: and no completion is projected, but transfers stay queued
        self._paused = False

    @property
    def active_count(self) -> int:
        """Transfers still consuming capacity (drained ones are excluded)."""
        return sum(1 for t in self._transfers if not t.drained)

    def add(self, transfer: LinkTransfer, now: float) -> None:
        self._advance(now)
        self._transfers.append(transfer)

    def retire(self, transfer: LinkTransfer, now: float) -> None:
        """Remove a delivered transfer (after advancing shared state)."""
        self._advance(now)
        self._transfers.remove(transfer)

    def next_completion(self, now: float) -> tuple[LinkTransfer, float] | None:
        """Earliest (transfer, completion time) given the *current* load.

        Completion = drain time (when the last bit leaves the pipe) plus
        the propagation latency.  The projection assumes no further
        arrivals; callers must re-project when load changes.
        """
        self._advance(now)
        if self._paused or not self._transfers:
            return None
        best: tuple[LinkTransfer, float] | None = None
        active = self.active_count
        for transfer in self._transfers:
            if transfer.drained:
                completion = (
                    (transfer.drain_time or self._time)
                    + self.extra_latency
                    + transfer.extra_delay
                )
            else:
                drain = self._time + transfer.remaining_bits * active / self.capacity_bps
                completion = drain + self.extra_latency + transfer.extra_delay
            if best is None or completion < best[1]:
                best = (transfer, completion)
        return best

    def pause(self, now: float) -> None:
        """Partition the pipe: advance shared state to ``now``, then stop.

        Queued-not-lost semantics: every transfer keeps its remaining
        bits; while paused :meth:`_advance` only moves ``_time`` forward
        and :meth:`next_completion` projects nothing, so time spent
        partitioned drains no data.  Idempotent.
        """
        self._advance(now)
        self._paused = True

    def resume(self, now: float) -> None:
        """Heal the pipe: move ``_time`` to ``now`` and drain again.

        Transfers resume at exactly the bits they had when the cut
        fired — callers re-project completions via
        :meth:`next_completion`.  Idempotent.
        """
        self._advance(now)
        self._paused = False

    def _advance(self, now: float) -> None:
        """Drain bits piecewise from the last update time up to ``now``."""
        if now < self._time - 1e-9:
            raise ValueError("pipe time cannot move backwards")
        if self._paused:
            # partitioned: time passes but no bits drain
            self._time = max(self._time, now)
            return
        remaining_dt = max(0.0, now - self._time)
        while remaining_dt > 0.0:
            active = [t for t in self._transfers if not t.drained]
            if not active:
                break
            rate = self.capacity_bps / len(active)
            to_first_drain = min(t.remaining_bits for t in active) / rate
            step = min(remaining_dt, to_first_drain)
            for transfer in active:
                transfer.remaining_bits -= step * rate
                if transfer.remaining_bits <= 1e-6:
                    transfer.remaining_bits = 0.0
                    transfer.drain_time = self._time + step
            self._time += step
            remaining_dt -= step
        self._time = max(self._time, now)


class SharedLink:
    """A cloud-facing link shared by a fleet of cameras.

    Uplink and downlink are independent processor-sharing pipes; each
    direction's capacity is split equally among its concurrent
    transfers, and every transfer additionally pays half the RTT as
    propagation.  With one transfer at a time this reduces to
    :class:`NetworkLink` timings.

    The link also meters the bytes it carries, for WAN egress billing.
    Every send attempt — retransmissions included, since they really
    re-cross the link — is counted when it begins, *before* a
    :class:`~repro.core.faults.FaultySharedLink` draws its fault
    verdict, so a message the link loses is still billed.  Replicated
    model weights bypass the pipes (they flow region to region) and are
    added via :meth:`add_replication_bytes`.
    """

    def __init__(self, config: LinkConfig | None = None) -> None:
        self.config = config or LinkConfig()
        half_rtt = self.config.rtt_seconds / 2
        self._up = _SharedPipe(self.config.uplink_kbps * 1000.0, half_rtt)
        self._down = _SharedPipe(self.config.downlink_kbps * 1000.0, half_rtt)
        self._ids = itertools.count()
        self.bytes_up = 0.0
        self.bytes_down = 0.0
        self.replication_bytes = 0.0

    # -- starting transfers -----------------------------------------------
    def begin_uplink(
        self,
        message: Message,
        now: float,
        camera_id: int = 0,
        payload: Any = None,
        message_id: int = -1,
        sent_at: float | None = None,
    ) -> LinkTransfer:
        self.bytes_up += float(message.size_bytes())
        return self._begin(
            self._up, "up", message, now, camera_id, payload, message_id, sent_at
        )

    def begin_downlink(
        self,
        message: Message,
        now: float,
        camera_id: int = 0,
        payload: Any = None,
        message_id: int = -1,
        sent_at: float | None = None,
    ) -> LinkTransfer:
        self.bytes_down += float(message.size_bytes())
        return self._begin(
            self._down, "down", message, now, camera_id, payload, message_id, sent_at
        )

    def _begin(
        self,
        pipe: _SharedPipe,
        direction: str,
        message: Message,
        now: float,
        camera_id: int,
        payload: Any,
        message_id: int = -1,
        sent_at: float | None = None,
    ) -> LinkTransfer:
        bits = float(message.size_bytes() * 8)
        transfer = LinkTransfer(
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
        pipe.add(transfer, now)
        return transfer

    # -- completion projection ---------------------------------------------
    def next_uplink_completion(self, now: float) -> tuple[LinkTransfer, float] | None:
        return self._up.next_completion(now)

    def next_downlink_completion(self, now: float) -> tuple[LinkTransfer, float] | None:
        return self._down.next_completion(now)

    def retire(self, transfer: LinkTransfer, now: float) -> None:
        """Remove a completed transfer from its pipe."""
        pipe = self._up if transfer.direction == "up" else self._down
        pipe.retire(transfer, now)

    # -- partitions ----------------------------------------------------------
    def begin_partition(self, now: float) -> None:
        """Cut both directions: transfers pause in place, queued not lost.

        Distinct from per-message loss (:class:`FaultySharedLink`
        verdicts): nothing is dropped — every in-flight transfer, and
        any transfer started while the link is down, resumes draining
        from its exact remaining bits when :meth:`end_partition` fires.
        Callers must re-project completions (they all go stale: none
        can complete while partitioned).
        """
        self._up.pause(now)
        self._down.pause(now)

    def end_partition(self, now: float) -> None:
        """Heal both directions; paused transfers drain again from now."""
        self._up.resume(now)
        self._down.resume(now)

    @property
    def partitioned(self) -> bool:
        """True while :meth:`begin_partition` has the link down."""
        return self._up._paused or self._down._paused

    # -- byte metering -------------------------------------------------------
    def add_replication_bytes(self, num_bytes: float) -> None:
        """Bill cross-region model-replication traffic to this link."""
        self.replication_bytes += float(num_bytes)

    @property
    def wan_bytes(self) -> float:
        """Total bytes billed to this link (sends + replication)."""
        return self.bytes_up + self.bytes_down + self.replication_bytes

    # -- introspection -------------------------------------------------------
    @property
    def active_uplinks(self) -> int:
        return self._up.active_count
