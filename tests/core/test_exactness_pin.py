"""Absolute bit-for-bit pin of one short fleet run.

The golden pins listed in ``docs/architecture.md`` compare two code
paths of the same tree with each other, or hold a weight checksum to a
relative tolerance.  An inexact rewrite of the detector or the renderer
moves both sides of such a pin and passes it.  This pin instead hashes
what one run computes and compares the digests with constants recorded
before the NumPy fast paths of ``repro.nn``, ``repro.detection`` and
``repro.video.render`` were written:

* every rendered frame (the offline pretraining set, the replay seed and
  both camera streams), per renderer;
* each camera student's raw output maps and decoded detections;
* the pretrained student's weights and normalisation statistics, and
  every camera student's after the run (the ``shoggoth`` camera trains
  on the edge, seeded with latent replay);
* :meth:`FleetResult.fingerprint`.

Any changed float anywhere in that pipeline fails it.  A change that is
*meant* to move floats (float32 math, folding BatchNorm into the conv)
re-records the constants in its own commit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import CameraSpec, FleetSession, ShoggothConfig
from repro.detection import (
    StudentConfig,
    StudentDetector,
    TeacherConfig,
    TeacherDetector,
    generate_offline_dataset,
    pretrain_student,
)
from repro.video import build_dataset
from repro.video.render import FrameRenderer

#: digests recorded before the fast paths landed
GOLDEN = {
    "render[0]": "f9f4dede1789958a",
    "render[1]": "c1a096f4e5344b16",
    "render[2]": "34bc7f6ef2f796d4",
    "render[3]": "88d0356f5a073864",
    "pretrained": "1e87fe1752b6bcce",
    "student[0].outputs": "b3b8ca37ac1b16bb",
    "student[0].detections": "71052dbd5361da45",
    "student[0].weights": "1e87fe1752b6bcce",
    "student[1].outputs": "30b9394c2d3ff160",
    "student[1].detections": "66e0d3d8dbc8bd99",
    "student[1].weights": "bb82591d944bb00d",
    "fingerprint": "9f2c49c008fd1cb1",
}


class Recorder:
    """Running SHA-256 digests, one per named stream, keyed per instance."""

    def __init__(self) -> None:
        self.hashes: dict[str, object] = {}
        # held, not just their ids, so a freed object's id is never reused
        self.instances: dict[str, list[object]] = {}
        self.num_detections = 0

    def key(self, kind: str, instance: object) -> str:
        order = self.instances.setdefault(kind, [])
        if not any(seen is instance for seen in order):
            order.append(instance)
        index = next(i for i, seen in enumerate(order) if seen is instance)
        return f"{kind}[{index}]"

    def update(self, name: str, payload: bytes) -> None:
        self.hashes.setdefault(name, hashlib.sha256()).update(payload)

    def digests(self) -> dict[str, str]:
        return {name: h.hexdigest()[:16] for name, h in self.hashes.items()}


def array_bytes(array: np.ndarray) -> bytes:
    array = np.ascontiguousarray(array)
    return repr((array.dtype.str, array.shape)).encode() + array.tobytes()


def detection_bytes(detections) -> bytes:
    return repr(
        [
            (d.class_id, float(d.cx).hex(), float(d.cy).hex(), float(d.w).hex(),
             float(d.h).hex(), float(d.score).hex())
            for d in detections
        ]
    ).encode()


def model_digest(student: StudentDetector) -> str:
    """Weights plus normalisation running statistics."""
    h = hashlib.sha256()
    for name, value in sorted(student.state_dict().items()):
        h.update(name.encode() + array_bytes(value))
    for name, layer in student.model.named_layers():
        if hasattr(layer, "running_mean"):
            h.update(name.encode() + array_bytes(layer.running_mean))
            h.update(array_bytes(layer.running_var))
            h.update(str(layer.num_batches_tracked).encode())
    return h.hexdigest()[:16]


def install(recorder: Recorder, monkeypatch: pytest.MonkeyPatch) -> None:
    """Observe rendering and student inference without changing either."""
    render = FrameRenderer.render
    forward = StudentDetector.forward
    detect = StudentDetector.detect

    def recorded_render(self, objects, domain):
        image = render(self, objects, domain)
        recorder.update(recorder.key("render", self), array_bytes(image))
        return image

    def recorded_forward(self, images):
        output = forward(self, images)
        key = recorder.key("student", self)
        recorder.update(f"{key}.outputs", array_bytes(output))
        return output

    def recorded_detect(self, image, conf_threshold=None):
        detections = detect(self, image, conf_threshold)
        key = recorder.key("student", self)
        recorder.num_detections += len(detections)
        recorder.update(f"{key}.detections", detection_bytes(detections))
        return detections

    monkeypatch.setattr(FrameRenderer, "render", recorded_render)
    monkeypatch.setattr(StudentDetector, "forward", recorded_forward)
    monkeypatch.setattr(StudentDetector, "detect", recorded_detect)


def pinned_run(monkeypatch: pytest.MonkeyPatch) -> dict[str, str]:
    """Pretrain, seed replay, and run one edge_only + one shoggoth camera."""
    recorder = Recorder()
    install(recorder, monkeypatch)

    student = StudentDetector(StudentConfig(seed=3))
    images, labels = generate_offline_dataset(48, seed=21)
    pretrain_student(student, images, labels, epochs=2, batch_size=16, seed=4)
    replay_seed = generate_offline_dataset(12, seed=22)

    config = (
        ShoggothConfig(eval_stride=1)
        .with_training(train_batch_size=4, replay_capacity=12, minibatch_size=8, epochs=1)
        .with_sampling(initial_rate_fps=2.0)
    )
    cameras = [
        CameraSpec(
            name="edge",
            dataset=build_dataset("detrac", num_frames=150),
            strategy="edge_only",
            seed=31,
        ),
        CameraSpec(
            name="adapt",
            dataset=build_dataset("kitti", num_frames=150),
            strategy="shoggoth",
            seed=32,
        ),
    ]
    result = FleetSession(
        cameras,
        student=student,
        teacher=TeacherDetector(TeacherConfig(seed=9)),
        config=config,
        replay_seed=replay_seed,
    ).run()

    digests = recorder.digests()
    digests["pretrained"] = model_digest(student)
    for index, camera_student in enumerate(recorder.instances["student"]):
        digests[f"student[{index}].weights"] = model_digest(camera_student)
    digests["fingerprint"] = result.fingerprint()[:16]
    # the run must exercise what it pins: detections were decoded and
    # the adapting camera actually trained
    assert recorder.num_detections > 100
    assert any(entry.session.training_reports for entry in result.cameras)
    return digests


def test_fleet_run_is_bit_for_bit_pinned(monkeypatch):
    digests = pinned_run(monkeypatch)
    assert digests == GOLDEN
