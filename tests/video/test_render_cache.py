"""Bit-exactness of the renderer's per-domain caches.

``FrameRenderer`` reuses the background per domain, object colours and
pattern shades per (class, appearance) within a domain, and blend masks
per patch size.  A renderer that keeps those caches across a drifting
stream must produce exactly the frames a fresh renderer (empty caches,
same RNG state) produces for each frame on its own, and leave its noise
RNG exactly where the fresh one leaves it.
"""

from __future__ import annotations

from repro.video import (
    DAY_SUNNY,
    NIGHT,
    RAINY,
    DriftSchedule,
    DriftSegment,
    FrameRenderer,
    RenderConfig,
    Scene,
    SceneConfig,
)


def drift_schedule() -> DriftSchedule:
    """Hard cuts, long blends (a new domain every frame) and a repeat."""
    return DriftSchedule(
        [
            DriftSegment(DAY_SUNNY, 12),
            DriftSegment(NIGHT, 20, transition_frames=15),
            DriftSegment(RAINY, 16, transition_frames=6),
            DriftSegment(DAY_SUNNY, 12),
        ]
    )


def test_cached_frames_equal_fresh_renderer_frames():
    config = RenderConfig(height=32, width=32, seed=3)
    schedule = drift_schedule()
    scene = Scene(SceneConfig(seed=4, mean_objects=5.0))
    scene.warm_up(DAY_SUNNY, 30)
    cached = FrameRenderer(config)
    for index in range(2 * schedule.total_frames):
        domain = schedule.domain_at(index)
        boxes = scene.step(domain)
        # scene objects carry an appearance; ground-truth boxes do not
        objects = scene.objects if index % 3 else boxes
        fresh = FrameRenderer(config)
        fresh._rng.bit_generator.state = cached._rng.bit_generator.state
        expected = fresh.render(objects, domain)
        frame = cached.render(objects, domain)
        assert frame.tobytes() == expected.tobytes(), f"frame {index} ({domain.name})"
        assert cached._rng.bit_generator.state == fresh._rng.bit_generator.state
        # the shade cache holds the objects of the last frame only
        assert len(cached._shades) <= len(objects)
