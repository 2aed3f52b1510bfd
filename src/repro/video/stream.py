"""Video stream assembly: scene + drift schedule + renderer -> frames."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.video.domains import Domain
from repro.video.drift import DriftSchedule
from repro.video.render import FrameRenderer, RenderConfig
from repro.video.scene import GroundTruthBox, Scene, SceneConfig

__all__ = ["Frame", "StreamConfig", "VideoStream"]


@dataclass(frozen=True)
class Frame:
    """One video frame with its ground truth and provenance.

    Ground truth exists because the stream is synthetic; the system under test
    (the edge device) never reads it — only the evaluation harness and the
    near-oracle teacher do.
    """

    index: int
    timestamp: float
    image: np.ndarray
    ground_truth: tuple[GroundTruthBox, ...]
    domain_name: str
    motion: float  # mean per-object displacement since the previous frame


@dataclass(frozen=True)
class StreamConfig:
    """Stream-level parameters."""

    fps: float = 30.0
    num_frames: int = 3000
    warmup_frames: int = 150
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.num_frames <= 0:
            raise ValueError("num_frames must be positive")
        if self.warmup_frames < 0:
            raise ValueError("warmup_frames must be non-negative")


class VideoStream:
    """Iterable synthetic video stream.

    Iterating yields :class:`Frame` objects in playback order at the nominal
    ``fps``.  The stream is deterministic given its seeds, so experiments are
    reproducible and different strategies can be evaluated on the *same*
    frames by constructing identical streams.
    """

    def __init__(
        self,
        schedule: DriftSchedule,
        stream_config: StreamConfig | None = None,
        scene_config: SceneConfig | None = None,
        render_config: RenderConfig | None = None,
    ) -> None:
        self.schedule = schedule
        self.config = stream_config or StreamConfig()
        scene_config = scene_config or SceneConfig(seed=self.config.seed)
        render_config = render_config or RenderConfig(seed=self.config.seed)
        self._scene = Scene(scene_config)
        self._renderer = FrameRenderer(render_config)
        self._started = False

    # -- properties ---------------------------------------------------------
    @property
    def fps(self) -> float:
        return self.config.fps

    @property
    def num_frames(self) -> int:
        return self.config.num_frames

    @property
    def duration_seconds(self) -> float:
        """Playback duration of the stream."""
        return self.config.num_frames / self.config.fps

    @property
    def renderer(self) -> FrameRenderer:
        return self._renderer

    def domain_at(self, frame_index: int) -> Domain:
        """Domain active at a given frame index."""
        return self.schedule.domain_at(frame_index)

    # -- iteration ------------------------------------------------------------
    def __len__(self) -> int:
        return self.config.num_frames

    def __iter__(self) -> Iterator[Frame]:
        if self._started:
            raise RuntimeError(
                "VideoStream can only be iterated once; construct a new stream "
                "(same seeds give identical frames)"
            )
        self._started = True

        self._scene.warm_up(self.schedule.domain_at(0), self.config.warmup_frames)
        previous_positions: dict[int, tuple[float, float]] = {}

        for index in range(self.config.num_frames):
            domain = self.schedule.domain_at(index)
            ground_truth = self._scene.step(domain)
            image = self._renderer.render(self._scene.objects, domain)

            positions = {
                obj.object_id: (obj.cx, obj.cy) for obj in self._scene.objects
            }
            motion = self._mean_motion(previous_positions, positions)
            previous_positions = positions

            yield Frame(
                index=index,
                timestamp=index / self.config.fps,
                image=image,
                ground_truth=tuple(ground_truth),
                domain_name=domain.name,
                motion=motion,
            )

    @staticmethod
    def _mean_motion(
        previous: dict[int, tuple[float, float]],
        current: dict[int, tuple[float, float]],
    ) -> float:
        """Mean displacement of objects present in both frames (for H.264 model)."""
        shared = set(previous) & set(current)
        if not shared:
            return 1.0  # scene cut / full turnover: treat as high motion
        displacements = [
            float(np.hypot(current[i][0] - previous[i][0], current[i][1] - previous[i][1]))
            for i in shared
        ]
        return float(np.mean(displacements))

    # -- convenience ---------------------------------------------------------
    def collect(self, limit: int | None = None) -> list[Frame]:
        """Materialise up to ``limit`` frames into a list."""
        frames: list[Frame] = []
        for frame in self:
            frames.append(frame)
            if limit is not None and len(frames) >= limit:
                break
        return frames
