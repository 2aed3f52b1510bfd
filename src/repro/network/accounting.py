"""Bandwidth accounting: bytes transferred -> average Kbps over the session.

Table I reports "Up/Down Bandwidth (Kbps)" per strategy: total transferred
bits divided by the playback duration of the evaluated stream.  The
accountant keeps the total bytes sent in each direction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.messages import Message

__all__ = ["BandwidthSummary", "BandwidthAccountant"]


@dataclass(frozen=True)
class BandwidthSummary:
    """Aggregate bandwidth figures for one session."""

    uplink_bytes: int
    downlink_bytes: int
    duration_seconds: float

    @property
    def uplink_kbps(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.uplink_bytes * 8 / 1000.0 / self.duration_seconds

    @property
    def downlink_kbps(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.downlink_bytes * 8 / 1000.0 / self.duration_seconds


class BandwidthAccountant:
    """Records message transfers and summarises them."""

    def __init__(self) -> None:
        self.uplink_bytes = 0
        self.downlink_bytes = 0

    def record_uplink(self, message: Message) -> int:
        """Record an edge -> cloud transfer; returns its size in bytes."""
        size = message.size_bytes()
        self.uplink_bytes += size
        return size

    def record_downlink(self, message: Message) -> int:
        """Record a cloud -> edge transfer; returns its size in bytes."""
        size = message.size_bytes()
        self.downlink_bytes += size
        return size

    def summary(self, duration_seconds: float) -> BandwidthSummary:
        """Average bandwidth over a stream of the given playback duration."""
        if duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        return BandwidthSummary(
            uplink_bytes=self.uplink_bytes,
            downlink_bytes=self.downlink_bytes,
            duration_seconds=duration_seconds,
        )
