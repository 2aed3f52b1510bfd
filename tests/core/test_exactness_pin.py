"""Absolute bit-for-bit pin of one short fleet run.

The golden pins listed in ``docs/architecture.md`` compare two code
paths of the same tree with each other, or hold a weight checksum to a
relative tolerance.  An inexact rewrite of the detector or the renderer
moves both sides of such a pin and passes it.  This pin instead hashes
what one run computes and compares the digests with constants.  They
were first recorded before the NumPy fast paths of ``repro.nn``,
``repro.detection`` and ``repro.video.render`` were written, and
re-recorded once, with the code unchanged, when the run moved to one
BLAS thread.  The fingerprint alone was re-recorded once more when
every fleet result began to carry its region block.  The students'
outputs and detections alone were re-recorded when inference moved to
the compiled eval plan, which folds the norms into the convs: since
then the outputs are those of :meth:`StudentDetector.infer`, not of
the layer-by-layer ``forward``; every other digest held.  The digests
cover:

* every rendered frame (the offline pretraining set, the replay seed and
  both camera streams), per renderer;
* each camera student's raw output maps and decoded detections;
* the pretrained student's weights and normalisation statistics, and
  every camera student's after the run (the ``shoggoth`` camera trains
  on the edge, seeded with latent replay);
* :meth:`FleetResult.fingerprint`.

A second pin does the same for the single-camera engine
(:class:`~repro.core.session.CollaborativeSession`): one ``shoggoth``,
one ``ams`` and one ``cloud_only`` session on the same pretrained
student and replay seed.  It hashes each session's detections, its
cloud GPU seconds, its bandwidth bytes, its training windows, its
sampling-rate history and its student's final weights.

Any changed float anywhere in that pipeline fails it.  A change that is
*meant* to move floats (float32 math, say) re-records the constants in
its own commit.

OpenBLAS splits a product across its threads in a way that changes the
rounding, so the digests depend on the BLAS thread count.  The run
therefore happens in a child process with one BLAS thread, the setting
of the end-to-end benchmark, whatever the parent's environment says.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import CameraSpec, FleetSession, ShoggothConfig, build_strategy
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

#: digests of the run with one BLAS thread
GOLDEN = {
    "render[0]": "f9f4dede1789958a",
    "render[1]": "c1a096f4e5344b16",
    "render[2]": "34bc7f6ef2f796d4",
    "render[3]": "88d0356f5a073864",
    "pretrained": "685bbf67c5590ceb",
    "student[0].outputs": "7dff74becde6e0a7",
    "student[0].detections": "9fe95ab656a3396e",
    "student[0].weights": "685bbf67c5590ceb",
    "student[1].outputs": "4c51a4b3150a6254",
    "student[1].detections": "498ab45d1e9939aa",
    "student[1].weights": "b366ecbd8a539476",
    "fingerprint": "f73ae1632610f076",
}

#: digests of the three single-camera sessions with one BLAS thread
SESSION_GOLDEN = {
    "shoggoth.detections": "268b1068953fea06",
    "shoggoth.gpu": "abfd9a0034f3d3e6",
    "shoggoth.bandwidth": "03faaf7ca98fb076",
    "shoggoth.training": "65932c053ece115d",
    "shoggoth.rates": "df92d042a9734619",
    "ams.detections": "e423101fe4833363",
    "ams.gpu": "468e992771a44bf1",
    "ams.bandwidth": "79637c01bf231fd8",
    "ams.training": "4f53cda18c2baa0c",
    "ams.rates": "040af60eb8ef31cb",
    "cloud_only.detections": "2620677cc36ef3f6",
    "cloud_only.gpu": "f32ac8f16b30fb95",
    "cloud_only.bandwidth": "7ebec0bfff0e62e7",
    "cloud_only.training": "4f53cda18c2baa0c",
    "cloud_only.rates": "4f53cda18c2baa0c",
    "shoggoth.weights": "1ca44f7834f98869",
    "ams.weights": "6039a416f5596ead",
    "cloud_only.weights": "685bbf67c5590ceb",
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
    infer = StudentDetector.infer
    detect = StudentDetector.detect

    def recorded_render(self, objects, domain):
        image = render(self, objects, domain)
        recorder.update(recorder.key("render", self), array_bytes(image))
        return image

    def recorded_infer(self, images):
        output = infer(self, images)
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
    monkeypatch.setattr(StudentDetector, "infer", recorded_infer)
    monkeypatch.setattr(StudentDetector, "detect", recorded_detect)


def pretrained_student() -> StudentDetector:
    student = StudentDetector(StudentConfig(seed=3))
    images, labels = generate_offline_dataset(48, seed=21)
    pretrain_student(student, images, labels, epochs=2, batch_size=16, seed=4)
    return student


def replay_seed_set() -> tuple:
    return generate_offline_dataset(12, seed=22)


def pinned_config() -> ShoggothConfig:
    return (
        ShoggothConfig(eval_stride=1)
        .with_training(train_batch_size=4, replay_capacity=12, minibatch_size=8, epochs=1)
        .with_sampling(initial_rate_fps=2.0)
    )


def pinned_run(monkeypatch: pytest.MonkeyPatch) -> dict[str, str]:
    """Pretrain, seed replay, and run one edge_only + one shoggoth camera."""
    recorder = Recorder()
    install(recorder, monkeypatch)

    student = pretrained_student()
    replay_seed = replay_seed_set()
    config = pinned_config()
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


def session_run() -> dict[str, str]:
    """Run a shoggoth, an ams and a cloud_only session from one student."""
    recorder = Recorder()
    student = pretrained_student()
    replay_seed = replay_seed_set()
    teacher = TeacherDetector(TeacherConfig(seed=9))
    runs = {}
    weights = {}
    for name in ("shoggoth", "ams", "cloud_only"):
        camera_student = student.clone()
        result = build_strategy(name).run(
            dataset=build_dataset("kitti", num_frames=240),
            student=camera_student,
            teacher=teacher,
            config=pinned_config(),
            seed=41,
            replay_seed=replay_seed,
        )
        runs[name] = result
        for detections in result.detections_per_frame:
            recorder.num_detections += len(detections)
            recorder.update(f"{name}.detections", detection_bytes(detections))
        recorder.update(f"{name}.gpu", float(result.cloud_gpu_seconds).hex().encode())
        bandwidth = result.bandwidth
        recorder.update(
            f"{name}.bandwidth",
            repr((bandwidth.uplink_bytes, bandwidth.downlink_bytes)).encode(),
        )
        recorder.update(
            f"{name}.training",
            repr(
                [(w.start.hex(), w.end.hex(), w.report.num_steps)
                 for w in result.training_windows]
            ).encode(),
        )
        recorder.update(
            f"{name}.rates",
            repr([(t.hex(), r.hex()) for t, r in result.sampling_rate_history]).encode(),
        )
        weights[f"{name}.weights"] = model_digest(camera_student)
    digests = {**recorder.digests(), **weights}
    # the sessions must exercise what they pin: detections were decoded,
    # shoggoth trained on the edge and ams streamed trained weights back
    assert recorder.num_detections > 100
    assert runs["shoggoth"].training_windows
    assert digests["ams.weights"] != model_digest(student)
    assert runs["cloud_only"].cloud_gpu_seconds > 0
    return digests


#: every thread-count variable a NumPy BLAS build may read
SINGLE_THREADED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def single_threaded_digests(run: str = "fleet") -> dict[str, str]:
    """Run ``run`` (``fleet`` or ``session``) in a child with one BLAS thread."""
    env = dict(os.environ, **SINGLE_THREADED)
    env["PYTHONPATH"] = os.pathsep.join(path for path in sys.path if path)
    child = subprocess.run(
        [sys.executable, __file__, run],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_fleet_run_is_bit_for_bit_pinned():
    assert single_threaded_digests("fleet") == GOLDEN


def test_single_camera_sessions_are_bit_for_bit_pinned():
    assert single_threaded_digests("session") == SESSION_GOLDEN


if __name__ == "__main__":
    if sys.argv[1:] == ["session"]:
        print(json.dumps(session_run()))
    else:
        with pytest.MonkeyPatch.context() as patch:
            print(json.dumps(pinned_run(patch)))
