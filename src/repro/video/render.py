"""Frame rendering: scene geometry + domain -> small CHW image.

Rendering is intentionally simple (objects are soft-edged coloured blocks on
a textured road background) but it carries the properties that make the data
drift problem real for a learned detector:

* object appearance depends on the class **and** the domain (illumination,
  contrast, colour shift), so a model fit to daytime appearance misfires on
  night frames;
* sensor noise and rain streaks add domain-specific clutter;
* per-instance appearance jitter prevents the detector from keying on a
  single exact colour.

Images are ``(3, H, W)`` float arrays in ``[0, 1]``.  The default resolution
is deliberately small (paper frames are resized to 512x512; we use 32x32 so
that the numpy models can be trained online in simulation time — the
substitution is documented in DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.video.domains import Domain
from repro.video.scene import GroundTruthBox, SceneObject

__all__ = ["RenderConfig", "FrameRenderer"]

#: Base (daylight) colour per class, RGB in [0, 1].
_CLASS_COLORS: np.ndarray = np.array(
    [
        [0.78, 0.24, 0.22],  # car
        [0.24, 0.52, 0.78],  # truck
        [0.86, 0.72, 0.20],  # bus
        [0.30, 0.74, 0.38],  # van
    ]
)

_BACKGROUND_GRAY = 0.46


@dataclass(frozen=True)
class RenderConfig:
    """Rendering parameters."""

    height: int = 32
    width: int = 32
    nominal_height: int = 512
    nominal_width: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        if self.height <= 0 or self.width <= 0:
            raise ValueError("render resolution must be positive")
        if self.nominal_height <= 0 or self.nominal_width <= 0:
            raise ValueError("nominal resolution must be positive")


class FrameRenderer:
    """Renders scene objects under a domain into a CHW image."""

    def __init__(self, config: RenderConfig | None = None) -> None:
        self.config = config or RenderConfig()
        self._rng = np.random.default_rng(self.config.seed)
        # pre-compute a static road texture so background structure is stable
        texture_rng = np.random.default_rng(self.config.seed + 1)
        self._texture = texture_rng.normal(
            0.0, 0.015, size=(self.config.height, self.config.width)
        )
        # the background and shades hold for one domain and are dropped
        # when it changes (a drift blend is a new domain every frame)
        self._domain: Domain | None = None
        self._background: np.ndarray | None = None
        #: (class_id, appearance) -> (colour, bright shade, dark shade) of
        #: the objects drawn in this frame, and in the frame before
        self._shades: dict[tuple[int, float], tuple[np.ndarray, ...]] = {}
        self._last_shades: dict[tuple[int, float], tuple[np.ndarray, ...]] = {}
        #: patch (height, width) -> (blend mask, 1 - blend mask)
        self._blends: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    # -- public API ---------------------------------------------------------
    def render(
        self, objects: list[SceneObject] | list[GroundTruthBox], domain: Domain
    ) -> np.ndarray:
        """Render one frame; ``objects`` may be scene objects or GT boxes."""
        h, w = self.config.height, self.config.width
        image = np.empty((3, h, w), dtype=np.float64)

        if domain != self._domain:
            self._domain = domain
            self._background = (_BACKGROUND_GRAY + self._texture) * domain.illumination
            self._shades = {}
        image[:] = self._background[None, :, :]

        self._last_shades, self._shades = self._shades, {}
        for obj in objects:
            self._draw_object(image, obj, domain)

        if domain.streak_density > 0:
            self._draw_streaks(image, domain)

        if domain.noise_std > 0:
            image += self._rng.normal(0.0, domain.noise_std, size=image.shape)

        return np.clip(image, 0.0, 1.0, out=image)

    # -- internals ------------------------------------------------------------
    def _object_color(self, class_id: int, appearance: float, domain: Domain) -> np.ndarray:
        base = _CLASS_COLORS[class_id].copy()
        base += appearance * 0.06  # per-instance jitter
        # colour-temperature / white-balance change: the dominant drift signal
        base = base * np.asarray(domain.channel_gains)
        # channel mixing rotates part of the palette (street lighting, wet
        # surfaces); kept mild so class identities stay learnable per domain
        if domain.channel_mix > 0:
            rotated = np.roll(base, 1)
            base = (1.0 - domain.channel_mix) * base + domain.channel_mix * rotated
        base += np.asarray(domain.color_shift)
        background = _BACKGROUND_GRAY
        # contrast pulls the object colour towards the background
        color = background + (base - background) * domain.contrast
        return np.clip(color * domain.illumination, 0.0, 1.0)

    def _object_shades(
        self, class_id: int, appearance: float, domain: Domain
    ) -> tuple[np.ndarray, ...]:
        """Colour, bright and dark pattern shade of one object in ``domain``.

        Reused when the object was drawn in this frame or the one before,
        computed otherwise.
        """
        key = (class_id, appearance)
        shades = self._shades.get(key) or self._last_shades.get(key)
        if shades is None:
            color = self._object_color(class_id, appearance, domain)
            bright = np.clip(color * 1.3 * domain.illumination + 0.08, 0.0, 1.0)
            dark = np.clip(color * 0.55, 0.0, 1.0)
            shades = (color[:, None, None], bright, dark)
        self._shades[key] = shades
        return shades

    def _blend_masks(self, height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Soft blend at the object border, solid in the middle (and 1 - it)."""
        masks = self._blends.get((height, width))
        if masks is None:
            blend = np.full((height, width), 0.92)
            blend[0, :] *= 0.6
            blend[-1, :] *= 0.6
            blend[:, 0] *= 0.6
            blend[:, -1] *= 0.6
            masks = self._blends[(height, width)] = (blend[None], 1.0 - blend[None])
        return masks

    def _draw_object(
        self,
        image: np.ndarray,
        obj: SceneObject | GroundTruthBox,
        domain: Domain,
    ) -> None:
        h, w = self.config.height, self.config.width
        x1 = math.floor((obj.cx - obj.w / 2) * w)
        x2 = math.ceil((obj.cx + obj.w / 2) * w)
        y1 = math.floor((obj.cy - obj.h / 2) * h)
        y2 = math.ceil((obj.cy + obj.h / 2) * h)
        x1, x2 = max(0, x1), min(w, x2)
        y1, y2 = max(0, y1), min(h, y2)
        if x2 <= x1 or y2 <= y1:
            return

        appearance = getattr(obj, "appearance", 0.0)
        color, bright, dark = self._object_shades(obj.class_id, appearance, domain)
        blend, keep = self._blend_masks(y2 - y1, x2 - x1)
        patch = image[:, y1:y2, x1:x2]
        patch *= keep
        patch += color * blend

        self._draw_class_pattern(image, obj.class_id, bright, dark, x1, x2, y1, y2)

    def _draw_class_pattern(
        self,
        image: np.ndarray,
        class_id: int,
        bright: np.ndarray,
        dark: np.ndarray,
        x1: int,
        x2: int,
        y1: int,
        y2: int,
    ) -> None:
        """Class-specific internal structure (windshield / cab stripes / roof).

        These shape cues give the detector something beyond raw colour to key
        on, which keeps every domain learnable; the colour rotation of hard
        domains still breaks a daylight-only model badly.
        """
        height = y2 - y1
        if class_id == 0:  # car: single windshield stripe near the top
            stripe_y = y1 + max(1, height // 4)
            if stripe_y < y2:
                image[:, stripe_y, x1:x2] = bright[:, None]
        elif class_id == 1:  # truck: cab/trailer divider plus windshield
            for frac in (0.25, 0.6):
                stripe_y = y1 + max(1, int(height * frac))
                if stripe_y < y2:
                    image[:, stripe_y, x1:x2] = bright[:, None]
        elif class_id == 2:  # bus: bright roof band
            roof_end = y1 + max(1, height // 3)
            image[:, y1:roof_end, x1:x2] = bright[:, None, None]
        else:  # van: darker lower half
            lower_start = y1 + max(1, height // 2)
            if lower_start < y2:
                image[:, lower_start:y2, x1:x2] = dark[:, None, None]

    def _draw_streaks(self, image: np.ndarray, domain: Domain) -> None:
        h, w = self.config.height, self.config.width
        n_streaks = int(domain.streak_density * w * 0.6)
        for _ in range(n_streaks):
            x = int(self._rng.integers(0, w))
            y0 = int(self._rng.integers(0, max(1, h - 6)))
            length = int(self._rng.integers(3, 7))
            brightness = 0.08 + 0.10 * self._rng.random()
            image[:, y0 : y0 + length, x] = np.clip(
                image[:, y0 : y0 + length, x] + brightness, 0.0, 1.0
            )

    # -- sizing helpers (used by the H.264 model) -----------------------------
    @property
    def nominal_pixels(self) -> int:
        """Pixel count of the *nominal* capture resolution (e.g. 512x512).

        Bandwidth accounting is done against the nominal resolution the paper
        uses, not the reduced simulation resolution, so Kbps figures land in
        the paper's regime.
        """
        return self.config.nominal_height * self.config.nominal_width
