"""Synthetic real-time video substrate.

The paper evaluates on UA-DETRAC, KITTI and Waymo Open video streams.  Those
datasets (and the disks to hold them) are not available in this environment,
so this package provides a synthetic replacement that preserves the property
the paper's claims rest on: **data drift**.  Video frames are generated from a
persistent scene of moving objects (cars / trucks / buses / vans) rendered
under a *domain* (illumination, weather, noise, crowd density) that changes
over time according to a drift schedule.

A lightweight detector trained offline on one domain mix will lose accuracy
when the stream drifts to an unseen domain and recover when it is fine-tuned
on recent frames — exactly the behaviour Shoggoth's adaptive online learning
is designed to exploit.
"""

from repro.video.domains import (
    CLASS_NAMES,
    NUM_CLASSES,
    Domain,
    DAY_SUNNY,
    DAY_CLOUDY,
    RAINY,
    DUSK,
    NIGHT,
    DOMAINS,
)
from repro.video.scene import GroundTruthBox, SceneObject, Scene, SceneConfig
from repro.video.drift import DriftSchedule, DriftSegment, blend_domains
from repro.video.render import FrameRenderer, RenderConfig
from repro.video.stream import Frame, VideoStream, StreamConfig
from repro.video.datasets import (
    DatasetSpec,
    make_detrac_like,
    make_kitti_like,
    make_waymo_like,
    make_stationary,
    DATASET_BUILDERS,
    build_dataset,
)
from repro.video.encoding import H264Encoder, EncodedBuffer, EncoderConfig

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
    "GroundTruthBox",
    "SceneObject",
    "Scene",
    "SceneConfig",
    "DriftSchedule",
    "DriftSegment",
    "blend_domains",
    "FrameRenderer",
    "RenderConfig",
    "Frame",
    "VideoStream",
    "StreamConfig",
    "DatasetSpec",
    "make_detrac_like",
    "make_kitti_like",
    "make_waymo_like",
    "make_stationary",
    "DATASET_BUILDERS",
    "build_dataset",
    "H264Encoder",
    "EncodedBuffer",
    "EncoderConfig",
]
