"""Domain-drift schedules.

A drift schedule maps a frame index to the :class:`~repro.video.domains.Domain`
active at that time.  Segments can be joined by gradual transitions (dawn /
dusk style interpolation) or hard cuts (camera switching between linked video
sequences, as in the paper's concatenated UA-DETRAC streams).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.video.domains import Domain

__all__ = ["DriftSegment", "DriftSchedule", "blend_domains"]


def blend_domains(a: Domain, b: Domain, t: float) -> Domain:
    """Linearly interpolate between two domains (``t=0`` → ``a``, ``t=1`` → ``b``)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("blend factor must be in [0, 1]")

    def lerp(x: float, y: float) -> float:
        return (1.0 - t) * x + t * y

    return Domain(
        name=f"{a.name}->{b.name}@{t:.2f}" if 0.0 < t < 1.0 else (a.name if t == 0.0 else b.name),
        illumination=lerp(a.illumination, b.illumination),
        contrast=lerp(a.contrast, b.contrast),
        noise_std=lerp(a.noise_std, b.noise_std),
        color_shift=tuple(lerp(x, y) for x, y in zip(a.color_shift, b.color_shift)),
        channel_gains=tuple(lerp(x, y) for x, y in zip(a.channel_gains, b.channel_gains)),
        channel_mix=lerp(a.channel_mix, b.channel_mix),
        streak_density=lerp(a.streak_density, b.streak_density),
        density_multiplier=lerp(a.density_multiplier, b.density_multiplier),
        class_weights=tuple(
            lerp(x, y) for x, y in zip(a.class_weights, b.class_weights)
        ),
        difficulty=lerp(a.difficulty, b.difficulty),
    )


@dataclass(frozen=True)
class DriftSegment:
    """A stretch of frames spent in one domain.

    ``transition_frames`` frames at the start of the segment are blended from
    the previous segment's domain into this one (0 = hard cut).
    """

    domain: Domain
    duration: int
    transition_frames: int = 0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("segment duration must be positive")
        if self.transition_frames < 0 or self.transition_frames > self.duration:
            raise ValueError("transition_frames must be in [0, duration]")


class DriftSchedule:
    """Piecewise (optionally blended) domain schedule over a frame range."""

    def __init__(self, segments: list[DriftSegment]) -> None:
        if not segments:
            raise ValueError("schedule needs at least one segment")
        self.segments = list(segments)
        self._starts: list[int] = []
        start = 0
        for segment in self.segments:
            self._starts.append(start)
            start += segment.duration
        self._total = start

    # -- properties ---------------------------------------------------------
    @property
    def total_frames(self) -> int:
        """Number of frames covered before the schedule repeats."""
        return self._total

    def segment_boundaries(self) -> list[tuple[int, str]]:
        """(start_frame, domain_name) for every segment — useful for plots."""
        return [
            (start, segment.domain.name)
            for start, segment in zip(self._starts, self.segments)
        ]

    # -- lookup ---------------------------------------------------------------
    def domain_at(self, frame_index: int) -> Domain:
        """Domain active at ``frame_index``; the schedule wraps around."""
        if frame_index < 0:
            raise ValueError("frame_index must be non-negative")
        idx = frame_index % self._total
        seg_pos = int(np.searchsorted(self._starts, idx, side="right")) - 1
        segment = self.segments[seg_pos]
        offset = idx - self._starts[seg_pos]

        if segment.transition_frames and offset < segment.transition_frames:
            prev = self.segments[(seg_pos - 1) % len(self.segments)]
            t = (offset + 1) / (segment.transition_frames + 1)
            return blend_domains(prev.domain, segment.domain, t)
        return segment.domain

    # -- constructors ---------------------------------------------------------
    @classmethod
    def constant(cls, domain: Domain, duration: int) -> "DriftSchedule":
        """A stationary video: one domain for the whole stream."""
        return cls([DriftSegment(domain, duration)])

    @classmethod
    def cycle(
        cls,
        domains: list[Domain],
        segment_duration: int,
        transition_frames: int = 0,
    ) -> "DriftSchedule":
        """Cycle through ``domains``, spending ``segment_duration`` frames in each."""
        if not domains:
            raise ValueError("need at least one domain")
        return cls(
            [
                DriftSegment(domain, segment_duration, transition_frames)
                for domain in domains
            ]
        )
