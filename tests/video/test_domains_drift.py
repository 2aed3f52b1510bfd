"""Tests for domains, drift schedules and domain blending."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video import (
    DAY_CLOUDY,
    DAY_SUNNY,
    DOMAINS,
    DUSK,
    NIGHT,
    RAINY,
    Domain,
    DriftSchedule,
    DriftSegment,
    blend_domains,
)


class TestDomain:
    def test_canonical_domains_registered(self):
        assert set(DOMAINS) == {"day_sunny", "day_cloudy", "rainy", "dusk", "night"}

    def test_class_distribution_normalised(self):
        for domain in DOMAINS.values():
            dist = domain.class_distribution
            assert dist.shape == (4,)
            assert np.isclose(dist.sum(), 1.0)
            assert np.all(dist >= 0)

    def test_with_overrides(self):
        darker = DAY_SUNNY.with_overrides(illumination=0.5)
        assert darker.illumination == 0.5
        assert DAY_SUNNY.illumination == 1.0  # original untouched

    def test_validation(self):
        with pytest.raises(ValueError):
            Domain(name="bad", illumination=-0.1, contrast=1.0, noise_std=0.0)
        with pytest.raises(ValueError):
            Domain(name="bad", illumination=1.0, contrast=1.0, noise_std=-1.0)
        with pytest.raises(ValueError):
            Domain(name="bad", illumination=1.0, contrast=1.0, noise_std=0.0,
                   class_weights=(1.0, 1.0))
        with pytest.raises(ValueError):
            Domain(name="bad", illumination=1.0, contrast=1.0, noise_std=0.0,
                   channel_gains=(1.0, -1.0, 1.0))

    def test_night_differs_from_day(self):
        """Drifted domains must actually differ in appearance parameters."""
        assert NIGHT.illumination < DAY_SUNNY.illumination
        assert NIGHT.channel_gains != DAY_SUNNY.channel_gains
        assert NIGHT.difficulty > DAY_SUNNY.difficulty


class TestBlendDomains:
    def test_endpoints(self):
        assert blend_domains(DAY_SUNNY, NIGHT, 0.0).name == "day_sunny"
        assert blend_domains(DAY_SUNNY, NIGHT, 1.0).name == "night"

    def test_midpoint_interpolates(self):
        mid = blend_domains(DAY_SUNNY, NIGHT, 0.5)
        assert mid.illumination == pytest.approx(
            (DAY_SUNNY.illumination + NIGHT.illumination) / 2
        )
        assert mid.class_distribution.sum() == pytest.approx(1.0)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            blend_domains(DAY_SUNNY, NIGHT, 1.5)

    @settings(deadline=None, max_examples=20)
    @given(t=st.floats(0.0, 1.0))
    def test_blend_always_valid_domain(self, t):
        mid = blend_domains(RAINY, DUSK, t)
        assert 0.0 <= mid.illumination <= 1.5
        assert mid.noise_std >= 0


class TestDriftSchedule:
    def test_constant(self):
        schedule = DriftSchedule.constant(DAY_SUNNY, 100)
        assert schedule.total_frames == 100
        assert schedule.domain_at(0) is DAY_SUNNY
        assert schedule.domain_at(99) is DAY_SUNNY

    def test_segments_and_boundaries(self):
        schedule = DriftSchedule([
            DriftSegment(DAY_SUNNY, 10),
            DriftSegment(NIGHT, 20),
        ])
        assert schedule.total_frames == 30
        assert schedule.domain_at(5).name == "day_sunny"
        assert schedule.domain_at(15).name == "night"
        assert schedule.segment_boundaries() == [(0, "day_sunny"), (10, "night")]

    def test_wraparound(self):
        schedule = DriftSchedule([DriftSegment(DAY_SUNNY, 10), DriftSegment(NIGHT, 10)])
        assert schedule.domain_at(25).name == "day_sunny"

    def test_transition_blending(self):
        schedule = DriftSchedule([
            DriftSegment(DAY_SUNNY, 10),
            DriftSegment(NIGHT, 10, transition_frames=5),
        ])
        blended = schedule.domain_at(11)
        assert "->" in blended.name
        assert DAY_SUNNY.illumination > blended.illumination > NIGHT.illumination

    def test_cycle_constructor(self):
        schedule = DriftSchedule.cycle([DAY_SUNNY, DAY_CLOUDY, NIGHT], 50)
        assert schedule.total_frames == 150

    def test_negative_frame_raises(self):
        schedule = DriftSchedule.constant(DAY_SUNNY, 10)
        with pytest.raises(ValueError):
            schedule.domain_at(-1)

    def test_empty_schedule_raises(self):
        with pytest.raises(ValueError):
            DriftSchedule([])

    def test_bad_segment_raises(self):
        with pytest.raises(ValueError):
            DriftSegment(DAY_SUNNY, 0)
        with pytest.raises(ValueError):
            DriftSegment(DAY_SUNNY, 5, transition_frames=10)
