"""The student's compiled eval plan: staleness, reference bound, batches, memory.

:meth:`StudentDetector.infer` (behind ``detect`` and ``detect_batch``)
runs an :class:`~repro.nn.plan.EvalPlan` with the norms folded into the
convs. It is the one inference path that does not reproduce the
layer-by-layer bits, so this module holds its reference bound against
:meth:`StudentDetector.forward`, checks that the plan is rebuilt after
every kind of weight change, and checks the memory rules the plan relies
on: ``eval()`` releases the training caches, and weights are read-only.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro import nn
from repro.core import EdgeDevice
from repro.detection import (
    StudentConfig,
    StudentDetector,
    generate_offline_dataset,
    pretrain_student,
)
from repro.nn.plan import EvalPlan
from repro.video import build_dataset

#: largest allowed |plan - layer path| over an output map
REFERENCE_BOUND = 1e-12


@pytest.fixture(scope="module", params=["brn", "bn"])
def student(request) -> StudentDetector:
    """A pretrained student with each kind of norm."""
    student = StudentDetector(StudentConfig(norm=request.param, seed=3))
    images, labels = generate_offline_dataset(48, seed=21)
    pretrain_student(student, images, labels, epochs=2, batch_size=16, seed=4)
    return student


@pytest.fixture(scope="module")
def frames() -> np.ndarray:
    """120 rendered frames, 30 from each of the four datasets."""
    return np.stack([
        frame.image
        for name in ("detrac", "kitti", "waymo", "stationary")
        for frame in build_dataset(name, num_frames=30).build().collect()
    ])


def fresh_plan_maps(student: StudentDetector, images: np.ndarray) -> np.ndarray:
    plan = EvalPlan(student.model)
    return np.stack([plan.run(image) for image in images])


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# -- reference bound ----------------------------------------------------------
def test_plan_is_within_the_reference_bound_of_the_layer_path(student, frames):
    student.model.eval()
    plan_maps = student.infer(frames)
    layer_maps = student.forward(frames)
    assert np.abs(plan_maps - layer_maps).max() <= REFERENCE_BOUND
    decode = student.codec.decode
    num_detections = 0
    for plan_map, layer_map in zip(plan_maps, layer_maps):
        planned, layered = decode(plan_map), decode(layer_map)
        assert len(planned) == len(layered)
        assert np.array_equal(planned.class_ids, layered.class_ids)
        num_detections += len(planned)
    assert num_detections > 0


def test_detect_batch_equals_detect_byte_for_byte(student, frames):
    batch = student.detect_batch(frames[:12])
    for image, detections in zip(frames[:12], batch):
        single = student.detect(image)
        assert len(single) == len(detections)
        for field in ("class_ids", "boxes", "scores"):
            assert_bitwise(getattr(detections, field), getattr(single, field))
    assert_bitwise(student.infer(frames[:12])[5], student.infer(frames[5:6])[0])


# -- staleness ------------------------------------------------------------------
def assert_rebuilt(student: StudentDetector, old: EvalPlan, images: np.ndarray) -> None:
    """``old`` is stale, and inference runs a plan of the current weights."""
    assert not old.is_current()
    maps = student.infer(images)
    assert student._plan is not old
    assert_bitwise(maps, fresh_plan_maps(student, images))


def compiled(student: StudentDetector, images: np.ndarray) -> EvalPlan:
    student.infer(images)
    return student._plan


def test_an_unchanged_model_reuses_its_plan(student, frames):
    copy = student.clone()
    plan = compiled(copy, frames[:2])
    copy.detect(frames[3])
    copy.detect_batch(frames[:4])
    assert plan.is_current()
    assert copy._plan is plan


def test_an_optimizer_step_makes_the_plan_stale(student, frames):
    copy = student.clone()
    plan = compiled(copy, frames[:2])
    params = copy.model.parameters()
    replaced = [weakref.ref(param.data) for param in params]
    for param in params:
        param.grad.fill(1e-3)
    nn.SGD(params, lr=0.1).step()
    # the plan keeps no replaced weights alive
    assert all(ref() is None for ref in replaced)
    assert_rebuilt(copy, plan, frames[:4])


def test_a_model_download_makes_the_plan_stale(student, frames):
    copy = student.clone()
    plan = compiled(copy, frames[:2])
    other = StudentDetector(StudentConfig(norm=copy.config.norm, seed=8))
    EdgeDevice(copy).apply_model_update(other.state_dict())
    assert_rebuilt(copy, plan, frames[:4])


def test_updated_running_statistics_make_the_plan_stale(student, frames):
    copy = student.clone()
    plan = compiled(copy, frames[:2])
    weights = [param.data for param in copy.model.parameters()]
    copy.model.train()
    copy.model.forward(frames[10:18])
    assert all(a is param.data for a, param in zip(weights, copy.model.parameters()))
    assert_rebuilt(copy, plan, frames[:4])


def test_a_clone_compiles_its_own_plan_with_the_same_bits(student, frames):
    plan = compiled(student, frames[:2])
    copy = student.clone()
    maps = copy.infer(frames[:4])
    assert copy._plan is not plan
    assert_bitwise(maps, student.infer(frames[:4]))


class Square(nn.Module):
    """A layer outside the stage pattern."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x * x


@pytest.mark.parametrize(
    "layers",
    [
        [("pool", nn.MaxPool2d(2)), ("conv", nn.Conv2d(3, 4, 3, padding=1))],
        [("conv", nn.Conv2d(3, 4, 3, padding=1)), ("pool", nn.MaxPool2d(3, stride=2))],
        [("conv", nn.Conv2d(3, 4, 3, padding=1)), ("act", Square())],
        [("conv", nn.Conv2d(3, 4, 3, padding=1)), ("pool", nn.MaxPool2d(2)),
         ("norm", nn.BatchNorm2d(4))],
    ],
    ids=["no-leading-conv", "overlapping-pool", "foreign-layer", "norm-after-pool"],
)
def test_a_model_outside_the_stage_pattern_is_refused(layers):
    with pytest.raises(ValueError):
        EvalPlan(nn.Sequential(layers))


# -- memory -----------------------------------------------------------------------
def test_eval_releases_the_training_caches_and_weights_are_read_only(student, frames):
    copy = student.clone()
    model = copy.model
    optimizer = nn.SGD(model.parameters(), lr=0.01)
    model.train()
    outputs = model.forward(frames[:8])
    _, grad = copy.detection_loss(outputs, copy.codec.encode_batch([[]] * 8))
    model.backward(grad)
    optimizer.step()
    model.forward(frames[:8])  # leaves a cache for eval() to release
    model.eval()
    for name, layer in model.named_layers():
        for attr in ("_cache_cols", "_cache_shape", "_cache", "_mask"):
            assert getattr(layer, attr, None) is None, (name, attr)
    with pytest.raises(RuntimeError):
        model.backward(grad)

    arrays = [param.data for param in model.parameters()]
    for _, layer in model.named_layers():
        if hasattr(layer, "running_mean"):
            arrays += [layer.running_mean, layer.running_var]
    assert len(arrays) == 2 * 6 + 2 * 2 * 4
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0


def test_a_parameter_does_not_freeze_the_array_it_was_given():
    value = np.ones(3)
    param = nn.Parameter(value)
    value[0] = 2.0
    assert value.flags.writeable
    with pytest.raises(ValueError):
        param.data[0] = 2.0
