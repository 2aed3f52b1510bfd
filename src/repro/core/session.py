"""End-to-end collaborative session: one edge device, one cloud, one stream.

The session drives a synthetic video stream through the full architecture in
simulated time: real-time inference on the edge, adaptive frame sampling,
H.264-compressed uploads, online labeling and rate control in the cloud,
adaptive training (on the edge for Shoggoth/Prompt, in the cloud for AMS),
and bandwidth/compute accounting.  All of the paper's comparison strategies
are expressed as option sets over this single engine
(:mod:`repro.core.strategies`).

:class:`CollaborativeSession` is a thin single-camera facade over the
event-driven kernel (:mod:`repro.runtime.events`,
:mod:`repro.core.actors`).  Its cloud is built the way a fleet builds a
camera's: one queued GPU worker, whose service takes no simulated time,
with the camera registered as a tenant (its own drift schedule,
sampling-rate controller and, for AMS, cloud-side trainer).  Messages
cross a zero-latency transport.  Multi-camera sessions sharing one cloud
and one uplink live in :mod:`repro.core.fleet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.adaptive_training import AdaptiveTrainer, TrainingSessionReport
from repro.core.cloud import CloudServer
from repro.core.config import ShoggothConfig
from repro.core.edge import EdgeDevice, TrainingWindow
from repro.core.sampling import SamplingRateController
from repro.core.scheduling import WorkerSpec
from repro.detection.boxes import Detections
from repro.detection.student import StudentDetector
from repro.detection.teacher import TeacherDetector
from repro.network.accounting import BandwidthAccountant, BandwidthSummary
from repro.network.link import NetworkLink
from repro.runtime.device import CloudComputeModel, EdgeComputeModel
from repro.runtime.events import EventScheduler
from repro.video.datasets import DatasetSpec
from repro.video.encoding import H264Encoder
from repro.video.scene import GroundTruthBox

__all__ = [
    "SessionOptions",
    "SessionResult",
    "CollaborativeSession",
    "resolve_session_config",
]


@dataclass(frozen=True)
class SessionOptions:
    """Behavioural switches that turn the engine into each evaluated strategy."""

    name: str = "shoggoth"
    #: adapt the edge model online at all (False: Edge-Only / Cloud-Only)
    adapt: bool = True
    #: where adaptive training runs: "edge" (Shoggoth/Prompt) or "cloud" (AMS)
    train_location: str = "edge"
    #: let the cloud controller adapt the sampling rate (False: fixed rate)
    adaptive_sampling: bool = True
    #: fixed sampling rate used when ``adaptive_sampling`` is False
    fixed_rate_fps: float | None = None
    #: stream every frame to the cloud and use teacher results (Cloud-Only)
    upload_all_frames: bool = False
    use_cloud_detections: bool = False

    def __post_init__(self) -> None:
        if self.train_location not in ("edge", "cloud"):
            raise ValueError("train_location must be 'edge' or 'cloud'")
        if self.fixed_rate_fps is not None and self.fixed_rate_fps <= 0:
            raise ValueError("fixed_rate_fps must be positive")


@dataclass
class SessionResult:
    """Everything a strategy run produces; metrics are derived downstream."""

    strategy_name: str
    dataset_name: str
    evaluated_frame_indices: list[int]
    detections_per_frame: list[Detections]
    ground_truth_per_frame: list[list[GroundTruthBox]]
    domain_per_frame: list[str]
    bandwidth: BandwidthSummary
    fps_trace: np.ndarray
    utilization_trace: np.ndarray
    sampling_rate_history: list[tuple[float, float]]
    training_reports: list[TrainingSessionReport]
    training_windows: list[TrainingWindow]
    cloud_gpu_seconds: float
    duration_seconds: float
    num_uploads: int = 0

    @property
    def average_fps(self) -> float:
        """Mean processed frames per second over the session."""
        if self.fps_trace.size == 0:
            return 0.0
        return float(self.fps_trace.mean())

    @property
    def total_training_seconds(self) -> float:
        """Wall-clock seconds the edge device spent in training windows."""
        return sum(window.duration for window in self.training_windows)


def resolve_session_config(
    config: ShoggothConfig | None, options: SessionOptions
) -> ShoggothConfig:
    """Fold the strategy's sampling switches into the config.

    Shared by the single-camera session and the fleet, so each camera of
    a heterogeneous fleet resolves its own strategy exactly the way a
    standalone session would.
    """
    cfg = config or ShoggothConfig()
    if not options.adaptive_sampling and options.fixed_rate_fps is not None:
        rate = options.fixed_rate_fps
        cfg = cfg.with_sampling(
            adaptive=False,
            initial_rate_fps=rate,
            min_rate_fps=min(cfg.sampling.min_rate_fps, rate),
            max_rate_fps=max(cfg.sampling.max_rate_fps, rate),
        )
    elif not options.adaptive_sampling:
        cfg = cfg.with_sampling(adaptive=False)
    return cfg


class CollaborativeSession:
    """Simulates one strategy over one dataset stream (single camera).

    A facade over the event kernel: construction builds the
    :class:`EdgeDevice` and the :class:`CloudServer`, and :meth:`run`
    drives them through per-actor event handlers.  The cloud is a queued
    worker with zero batch overhead and infinite speed, so each upload
    is labeled at the instant it arrives, and the transport delivers
    labels in that same instant; this is exactly equivalent to the
    original frame-by-frame loop.
    """

    def __init__(
        self,
        dataset: DatasetSpec,
        student: StudentDetector,
        teacher: TeacherDetector,
        options: SessionOptions | None = None,
        config: ShoggothConfig | None = None,
        edge_compute: EdgeComputeModel | None = None,
        cloud_compute: CloudComputeModel | None = None,
        link: NetworkLink | None = None,
        seed: int = 0,
        replay_seed: tuple | None = None,
    ) -> None:
        self.dataset = dataset
        self.options = options or SessionOptions()
        self.config = resolve_session_config(config, self.options)
        self.student = student
        self.teacher = teacher
        self.link = link or NetworkLink()
        self.edge_compute = edge_compute or EdgeComputeModel()
        self.cloud_compute = cloud_compute or CloudComputeModel()
        self.seed = seed
        self.replay_seed = replay_seed

        trainer = None
        if self.options.adapt and self.options.train_location == "edge":
            trainer = AdaptiveTrainer(student, self.config.training, seed=seed)
            if replay_seed is not None:
                trainer.seed_replay(*replay_seed)
        self.edge = EdgeDevice(
            student,
            config=self.config,
            compute=self.edge_compute,
            trainer=trainer,
            seed=seed,
        )
        self.cloud = CloudServer(
            teacher, config=self.config, compute=self.cloud_compute
        )
        self.accountant = BandwidthAccountant()

    # -- main loop -------------------------------------------------------------
    def run(self) -> SessionResult:
        """Simulate the full stream and return the raw session outcome.

        Builds the event kernel around this session's edge device and
        cloud server and drains it.  The horizon is the last frame's
        timestamp: anything still in flight afterwards (e.g. an AMS
        model download) is dropped, as in the original loop.
        """
        from repro.core.actors import (
            CloudActor,
            EdgeActor,
            InstantTransport,
            SessionKernel,
        )

        stream = self.dataset.build()
        scheduler = EventScheduler()
        transport = InstantTransport(self.link)
        cloud_actor = CloudActor(
            self.cloud,
            transport,
            batch_overhead_seconds=0.0,
            spec=WorkerSpec(speed=math.inf),
        )
        edge_actor = EdgeActor(
            camera_id=0,
            edge=self.edge,
            cloud_actor=cloud_actor,
            teacher=self.teacher,
            options=self.options,
            config=self.config,
            encoder=H264Encoder(stream.renderer.nominal_pixels),
            transport=transport,
            dataset=self.dataset,
            link_config=self.link.config,
            edge_compute=self.edge_compute,
            accountant=self.accountant,
        )
        cloud_actor.register_camera(
            edge_actor,
            schedule=self.dataset.schedule,
            controller=SamplingRateController(self.config.sampling),
            seed=self.seed,
            replay_seed=self.replay_seed,
        )
        kernel = SessionKernel(
            scheduler,
            edge_actors={0: edge_actor},
            cloud_actor=cloud_actor,
            transport=transport,
            streams={0: iter(stream)},
        )
        last_frame_time = (self.dataset.num_frames - 1) / self.dataset.fps
        kernel.run(horizon=last_frame_time)
        return edge_actor.build_result(cloud_gpu_seconds=self.cloud.total_gpu_seconds)
