"""Message types exchanged between the edge device and the cloud server.

Each message knows its own serialized size, which is all the bandwidth
accounting needs.  Sizes are modelled, not measured: boxes serialize to a few
tens of bytes, frame buffers to whatever the H.264 model says, model updates
to ``4 bytes x parameter count`` (float32 weights), and every message pays a
small protocol overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Message",
    "FrameBatchUpload",
    "LabelDownload",
    "ModelDownload",
    "ResultDownload",
    "LABEL_BYTES_PER_BOX",
    "MESSAGE_OVERHEAD_BYTES",
]

#: serialized size of one labelled/detected box (class, 4 coords, score)
LABEL_BYTES_PER_BOX = 28
#: fixed per-message protocol overhead (headers, framing)
MESSAGE_OVERHEAD_BYTES = 256


@dataclass(frozen=True)
class Message:
    """Base class: everything the edge and cloud exchange is a Message."""

    def size_bytes(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class FrameBatchUpload(Message):
    """A compressed buffer of sampled frames sent edge -> cloud for labeling."""

    num_frames: int
    encoded_bytes: int
    first_frame_index: int = 0

    def __post_init__(self) -> None:
        if self.num_frames <= 0:
            raise ValueError("num_frames must be positive")
        if self.encoded_bytes <= 0:
            raise ValueError("encoded_bytes must be positive")

    def size_bytes(self) -> int:
        return self.encoded_bytes + MESSAGE_OVERHEAD_BYTES


@dataclass(frozen=True)
class LabelDownload(Message):
    """Teacher labels for an uploaded batch sent cloud -> edge.

    Also carries the controller's new sampling rate (a few bytes, covered by
    the message overhead).
    """

    num_frames: int
    num_boxes: int

    def __post_init__(self) -> None:
        if self.num_frames < 0 or self.num_boxes < 0:
            raise ValueError("counts must be non-negative")

    def size_bytes(self) -> int:
        return self.num_boxes * LABEL_BYTES_PER_BOX + MESSAGE_OVERHEAD_BYTES


@dataclass(frozen=True)
class ModelDownload(Message):
    """A student-model update streamed cloud -> edge (AMS baseline)."""

    num_parameters: int
    bytes_per_parameter: float = 4.0

    def __post_init__(self) -> None:
        if self.num_parameters <= 0:
            raise ValueError("num_parameters must be positive")
        if self.bytes_per_parameter <= 0:
            raise ValueError("bytes_per_parameter must be positive")

    def size_bytes(self) -> int:
        return int(self.num_parameters * self.bytes_per_parameter) + MESSAGE_OVERHEAD_BYTES


@dataclass(frozen=True)
class ResultDownload(Message):
    """Inference results for one frame sent cloud -> edge (Cloud-Only)."""

    num_boxes: int
    annotated: bool = True

    def __post_init__(self) -> None:
        if self.num_boxes < 0:
            raise ValueError("num_boxes must be non-negative")

    def size_bytes(self) -> int:
        # Cloud-Only returns rich per-frame results (boxes, masks/visual
        # overlays in the paper's system); ``annotated`` adds that payload.
        payload = self.num_boxes * LABEL_BYTES_PER_BOX
        if self.annotated:
            payload += 12_000
        return payload + MESSAGE_OVERHEAD_BYTES
