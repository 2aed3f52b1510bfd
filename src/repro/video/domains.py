"""Domain (scene-condition) models.

A *domain* bundles everything about the capture conditions that affects the
visual appearance of frames and the distribution of objects: illumination,
contrast, sensor noise, weather streaking, object density and the class mix.
The paper's Figure 1 motivates exactly this: daytime and night-time traffic
form different data distributions and the class distribution itself shifts,
which is what breaks the offline-trained lightweight edge model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "CLASS_NAMES",
    "NUM_CLASSES",
    "Domain",
    "DAY_SUNNY",
    "DAY_CLOUDY",
    "RAINY",
    "DUSK",
    "NIGHT",
    "DOMAINS",
]

#: Object classes used throughout the reproduction (paper Fig. 1 uses the same
#: four vehicle categories).
CLASS_NAMES: tuple[str, ...] = ("car", "truck", "bus", "van")
NUM_CLASSES: int = len(CLASS_NAMES)


@dataclass(frozen=True)
class Domain:
    """Capture-condition parameters for frame rendering and scene statistics.

    Attributes
    ----------
    name:
        Human-readable identifier (``"day_sunny"``, ``"night"``, ...).
    illumination:
        Global brightness multiplier in ``[0, 1]``; 1.0 is full daylight.
    contrast:
        Object-vs-background contrast multiplier in ``[0, 1]``.  Low contrast
        (night, rain) makes objects harder to separate from the background.
    noise_std:
        Standard deviation of additive pixel noise (sensor noise, rain
        clutter).
    color_shift:
        Per-channel additive shift applied to object colours; models the
        colour-temperature change between daylight and street lighting.
    channel_gains:
        Per-channel multiplicative gains applied to object colours.  This is
        the dominant drift mechanism of the canonical domains: it re-colours
        every class consistently (a colour-temperature / white-balance style
        change), so a daylight-trained detector mis-scores objects while an
        adapted detector can re-learn the mapping without the new mapping
        conflicting with the old one.
    channel_mix:
        How strongly object colours are rotated between RGB channels in
        ``[0, 1]``.  This models the qualitative appearance change between
        domains (sodium street lighting, headlight glare, wet surfaces): the
        same object class looks different at night than in daylight, which is
        what defeats a detector trained only on daytime appearance even when
        the objects remain clearly visible.
    streak_density:
        Density of rain-streak artefacts in ``[0, 1]``.
    density_multiplier:
        Multiplier on the expected number of objects in the scene ("crowd
        densities ... change over time", Sec. I).
    class_weights:
        Unnormalised sampling weights over :data:`CLASS_NAMES`; captures the
        class-distribution shift of Fig. 1(c).
    difficulty:
        Scalar in ``[0, 1]`` summarising how hard the domain is even for the
        high-capacity teacher (affects its small residual error).
    """

    name: str
    illumination: float
    contrast: float
    noise_std: float
    color_shift: tuple[float, float, float] = (0.0, 0.0, 0.0)
    channel_gains: tuple[float, float, float] = (1.0, 1.0, 1.0)
    channel_mix: float = 0.0
    streak_density: float = 0.0
    density_multiplier: float = 1.0
    class_weights: tuple[float, ...] = (0.70, 0.12, 0.08, 0.10)
    difficulty: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.illumination <= 1.5:
            raise ValueError(f"illumination out of range: {self.illumination}")
        if not 0.0 <= self.contrast <= 1.5:
            raise ValueError(f"contrast out of range: {self.contrast}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if not 0.0 <= self.channel_mix <= 1.0:
            raise ValueError("channel_mix must be in [0, 1]")
        if len(self.channel_gains) != 3 or any(g < 0 for g in self.channel_gains):
            raise ValueError("channel_gains must be three non-negative values")
        if len(self.class_weights) != NUM_CLASSES:
            raise ValueError(
                f"class_weights must have {NUM_CLASSES} entries, got {len(self.class_weights)}"
            )
        if any(w < 0 for w in self.class_weights):
            raise ValueError("class_weights must be non-negative")
        if not 0.0 <= self.difficulty <= 1.0:
            raise ValueError("difficulty must be in [0, 1]")

    @property
    def class_distribution(self) -> np.ndarray:
        """Normalised class sampling probabilities."""
        weights = np.asarray(self.class_weights, dtype=np.float64)
        total = weights.sum()
        if total <= 0:
            raise ValueError("class_weights sum to zero")
        return weights / total

    def with_overrides(self, **kwargs) -> "Domain":
        """Copy of the domain with selected fields replaced."""
        return replace(self, **kwargs)


# -- canonical domains --------------------------------------------------------
#
# Calibration note: domains are tuned so that every one of them is *learnable*
# by the lightweight student (a model trained on that domain alone reaches a
# reasonable mAP) while remaining *different enough* that a model trained only
# on daytime data degrades badly — the data-drift regime of the paper's
# Figure 1.  Appearance change (colour temperature / channel mixing) carries
# most of the drift; illumination, contrast and noise add a secondary, milder
# effect so dark domains stay detectable in principle.
DAY_SUNNY = Domain(
    name="day_sunny",
    illumination=1.0,
    contrast=1.0,
    noise_std=0.02,
    color_shift=(0.0, 0.0, 0.0),
    channel_mix=0.0,
    density_multiplier=1.0,
    class_weights=(0.72, 0.12, 0.06, 0.10),
    difficulty=0.00,
)

DAY_CLOUDY = Domain(
    name="day_cloudy",
    illumination=0.85,
    contrast=0.92,
    noise_std=0.03,
    color_shift=(-0.02, -0.01, 0.02),
    channel_gains=(0.95, 0.97, 1.05),
    density_multiplier=1.1,
    class_weights=(0.66, 0.14, 0.08, 0.12),
    difficulty=0.05,
)

RAINY = Domain(
    name="rainy",
    illumination=0.75,
    contrast=0.88,
    noise_std=0.04,
    color_shift=(-0.05, -0.02, 0.06),
    channel_gains=(0.75, 0.95, 1.25),
    channel_mix=0.15,
    streak_density=0.30,
    density_multiplier=0.9,
    class_weights=(0.62, 0.16, 0.08, 0.14),
    difficulty=0.15,
)

DUSK = Domain(
    name="dusk",
    illumination=0.68,
    contrast=0.90,
    noise_std=0.03,
    color_shift=(0.08, 0.00, -0.06),
    channel_gains=(1.40, 0.85, 0.60),
    channel_mix=0.20,
    density_multiplier=1.2,
    class_weights=(0.60, 0.16, 0.10, 0.14),
    difficulty=0.12,
)

NIGHT = Domain(
    name="night",
    illumination=0.60,
    contrast=0.90,
    noise_std=0.035,
    color_shift=(0.10, 0.02, -0.08),
    channel_gains=(0.50, 0.72, 1.45),
    channel_mix=0.25,
    density_multiplier=0.8,
    class_weights=(0.60, 0.18, 0.08, 0.14),
    difficulty=0.25,
)

#: Registry of the canonical domains keyed by name.
DOMAINS: dict[str, Domain] = {
    d.name: d for d in (DAY_SUNNY, DAY_CLOUDY, RAINY, DUSK, NIGHT)
}
