"""Tests for the grid codec, student detector, teacher oracle and pretraining."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection import (
    Detections,
    GridCodec,
    StudentConfig,
    StudentDetector,
    TeacherConfig,
    TeacherDetector,
    evaluate_map,
    generate_offline_dataset,
    pretrain_student,
)
from repro.detection.grid import CELL_CHANNELS
from repro.video import DAY_SUNNY, NIGHT, GroundTruthBox, FrameRenderer, RenderConfig
from repro.video.stream import Frame


def make_frame(boxes, domain=DAY_SUNNY, index=0, seed=0):
    renderer = FrameRenderer(RenderConfig(seed=seed))
    image = renderer.render(list(boxes), domain)
    return Frame(
        index=index,
        timestamp=index / 30.0,
        image=image,
        ground_truth=tuple(boxes),
        domain_name=domain.name,
        motion=0.1,
    )


class TestGridCodec:
    def test_encode_marks_correct_cell(self):
        codec = GridCodec(grid_size=8)
        targets = codec.encode([GroundTruthBox(1, 0.5, 0.5, 0.2, 0.2)])
        assert targets.num_positives == 1
        assert targets.objectness[4, 4] == 1.0
        assert targets.class_ids[4, 4] == 1

    def test_encode_empty(self):
        targets = GridCodec(8).encode([])
        assert targets.num_positives == 0

    def test_encode_ignores_out_of_frame_centres(self):
        targets = GridCodec(8).encode([GroundTruthBox(0, 1.5, 0.5, 0.2, 0.2)])
        assert targets.num_positives == 0

    def test_collision_keeps_larger_object(self):
        codec = GridCodec(4)
        small = GroundTruthBox(0, 0.5, 0.5, 0.05, 0.05)
        large = GroundTruthBox(1, 0.52, 0.52, 0.3, 0.3)
        targets = codec.encode([small, large])
        assert targets.num_positives == 1
        assert targets.class_ids[2, 2] == 1

    def test_decode_roundtrip(self):
        """Encoding a box then building an ideal output map should decode back."""
        codec = GridCodec(8)
        box = GroundTruthBox(2, 0.53, 0.47, 0.2, 0.15)
        targets = codec.encode([box])
        output = np.full((CELL_CHANNELS, 8, 8), -8.0)
        row, col = np.argwhere(targets.objectness)[0]
        output[0, row, col] = 8.0  # objectness logit
        output[1 + 2, row, col] = 8.0  # class logit
        dx, dy, lw, lh = targets.boxes[row, col]
        # invert the sigmoid used for centre offsets
        output[1 + 4 + 0, row, col] = np.log(dx / (1 - dx + 1e-9) + 1e-9)
        output[1 + 4 + 1, row, col] = np.log(dy / (1 - dy + 1e-9) + 1e-9)
        output[1 + 4 + 2, row, col] = lw
        output[1 + 4 + 3, row, col] = lh
        detections = codec.decode(output, conf_threshold=0.5)
        assert len(detections) == 1
        decoded = detections[0]
        assert decoded.class_id == 2
        assert decoded.cx == pytest.approx(box.cx, abs=0.02)
        assert decoded.cy == pytest.approx(box.cy, abs=0.02)
        assert decoded.w == pytest.approx(box.w, abs=0.03)

    def test_decode_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            GridCodec(8).decode(np.zeros((3, 8, 8)))

    def test_targets_to_arrays(self):
        codec = GridCodec(4)
        targets = codec.encode_batch([[GroundTruthBox(0, 0.5, 0.5, 0.2, 0.2)], []])
        obj, cls, boxes = codec.targets_to_arrays(targets)
        assert obj.shape == (2, 4, 4) and cls.shape == (2, 4, 4) and boxes.shape == (2, 4, 4, 4)


class TestStudentDetector:
    def test_forward_shape(self):
        student = StudentDetector(StudentConfig(seed=1))
        out = student.forward(np.random.default_rng(0).random((2, 3, 32, 32)))
        assert out.shape == (2, CELL_CHANNELS, 8, 8)

    def test_empty_batch_gives_empty_maps(self):
        student = StudentDetector(StudentConfig(seed=1))
        empty = np.zeros((0, 3, 32, 32))
        assert student.infer(empty).shape == (0, CELL_CHANNELS, 8, 8)
        assert student.detect_batch(empty) == []
        # infer left the model in eval mode: the layer path too
        assert student.forward(empty).shape == (0, CELL_CHANNELS, 8, 8)

    @pytest.mark.parametrize("norm", ["brn", "bn"])
    def test_empty_training_batch_raises_before_any_statistic_moves(self, norm):
        student = StudentDetector(StudentConfig(norm=norm, seed=3))
        norms = [
            layer for _, layer in student.model.named_layers()
            if hasattr(layer, "running_mean")
        ]
        before = [
            (layer.running_mean, layer.running_var, layer.num_batches_tracked)
            for layer in norms
        ]
        student.model.train()
        with pytest.raises(ValueError):
            student.forward(np.zeros((0, 3, 32, 32)))
        for layer, (mean, var, count) in zip(norms, before):
            assert layer.running_mean is mean and layer.running_var is var
            assert layer.num_batches_tracked == count
        assert np.isfinite(student.forward(np.ones((2, 3, 32, 32)))).all()

    def test_rejects_wrong_input(self):
        student = StudentDetector()
        with pytest.raises(ValueError):
            student.forward(np.zeros((1, 3, 16, 16)))

    def test_detect_returns_detections(self):
        student = StudentDetector(StudentConfig(seed=1))
        detections = student.detect(np.random.default_rng(0).random((3, 32, 32)), conf_threshold=0.01)
        assert isinstance(detections, Detections)

    def test_clone_preserves_outputs(self):
        student = StudentDetector(StudentConfig(seed=1))
        clone = student.clone()
        x = np.random.default_rng(0).random((1, 3, 32, 32))
        student.model.eval(), clone.model.eval()
        assert np.allclose(student.forward(x), clone.forward(x))

    def test_clone_shares_read_only_state_and_trains_apart(self):
        student = StudentDetector(StudentConfig(seed=1))
        rng = np.random.default_rng(0)
        student.model.train()
        student.model.forward(rng.random((4, 3, 32, 32)))  # non-trivial statistics

        def state_bytes(detector):
            arrays = [param.data for param in detector.model.parameters()]
            for _, layer in detector.model.named_layers():
                if hasattr(layer, "running_mean"):
                    arrays += [layer.running_mean, layer.running_var]
                    arrays.append(np.array(layer.num_batches_tracked))
            return [array.tobytes() for array in arrays]

        source = state_bytes(student)
        clone = student.clone()
        assert state_bytes(clone) == source
        with pytest.raises(ValueError):
            clone.model.parameters()[0].data[0] = 1.0
        with pytest.raises(ValueError):
            clone.model["norm1"].running_mean[0] = 1.0

        from repro.nn.optim import SGD

        images = rng.random((4, 3, 32, 32))
        targets = clone.codec.encode_batch([[GroundTruthBox(0, 0.5, 0.5, 0.2, 0.2)]] * 4)
        clone.model.train()
        _, grad = clone.detection_loss(clone.model.forward(images), targets)
        clone.model.backward(grad)
        SGD(clone.model.parameters(), lr=0.05, momentum=0.9).step()
        assert state_bytes(student) == source
        assert all(a != b for a, b in zip(state_bytes(clone), source))

    def test_detection_loss_decreases_with_training(self):
        student = StudentDetector(StudentConfig(seed=1))
        rng = np.random.default_rng(0)
        images = rng.random((8, 3, 32, 32))
        labels = [[GroundTruthBox(0, 0.5, 0.5, 0.2, 0.2)] for _ in range(8)]
        targets = student.codec.encode_batch(labels)
        from repro.nn.optim import SGD

        opt = SGD(student.model.parameters(), lr=0.05, momentum=0.9)
        student.model.train()
        losses = []
        for _ in range(12):
            opt.zero_grad()
            out = student.model.forward(images)
            loss, grad = student.detection_loss(out, targets)
            student.model.backward(grad)
            opt.step()
            losses.append(loss)
        assert losses[-1] < losses[0]

    def test_detection_loss_shape_mismatch(self):
        student = StudentDetector()
        with pytest.raises(ValueError):
            student.detection_loss(np.zeros((1, CELL_CHANNELS, 8, 8)), [])

    def test_layer_macs_and_fraction(self):
        student = StudentDetector()
        macs = student.layer_macs()
        assert macs["conv1"] > 0
        assert student.compute_fraction_before("input") == 0.0
        pool_fraction = student.compute_fraction_before("pool")
        conv_fraction = student.compute_fraction_before("conv5_4")
        assert 0.0 < conv_fraction < pool_fraction < 1.0
        with pytest.raises(KeyError):
            student.compute_fraction_before("bogus")

    def test_norm_choice(self):
        brn = StudentDetector(StudentConfig(norm="brn"))
        bn = StudentDetector(StudentConfig(norm="bn"))
        from repro import nn

        assert isinstance(brn.model["norm1"], nn.BatchRenorm2d)
        assert isinstance(bn.model["norm1"], nn.BatchNorm2d)
        with pytest.raises(ValueError):
            StudentConfig(norm="layernorm")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StudentConfig(image_size=30, grid_size=8)


class TestTeacherDetector:
    def test_labels_near_ground_truth_in_easy_domain(self):
        teacher = TeacherDetector(TeacherConfig(seed=1))
        boxes = [GroundTruthBox(0, 0.5, 0.5, 0.2, 0.2), GroundTruthBox(1, 0.2, 0.3, 0.25, 0.2)]
        frame = make_frame(boxes)
        detections_per_frame = []
        gts = []
        for i in range(40):
            detections_per_frame.append(teacher.detect(frame, DAY_SUNNY))
            gts.append(list(boxes))
        result = evaluate_map(detections_per_frame, gts)
        assert result.map50 > 0.75

    def test_harder_domain_has_lower_quality(self):
        teacher = TeacherDetector(TeacherConfig(seed=2))
        boxes = [GroundTruthBox(0, 0.5, 0.5, 0.2, 0.2)]
        frame = make_frame(boxes)
        day_missing = sum(len(teacher.detect(frame, DAY_SUNNY)) == 0 for _ in range(300))
        night_missing = sum(len(teacher.detect(frame, NIGHT)) == 0 for _ in range(300))
        assert night_missing > day_missing

    def test_label_frames_batch(self):
        teacher = TeacherDetector()
        frame = make_frame([GroundTruthBox(0, 0.5, 0.5, 0.2, 0.2)])
        out = teacher.label_frames([frame, frame], [DAY_SUNNY, NIGHT])
        assert len(out) == 2
        with pytest.raises(ValueError):
            teacher.label_frames([frame], [DAY_SUNNY, NIGHT])

    def test_cost_properties(self):
        teacher = TeacherDetector()
        assert teacher.inference_seconds > 0
        assert teacher.num_parameters > 10_000_000

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TeacherConfig(base_miss_rate=-0.1)
        with pytest.raises(ValueError):
            TeacherConfig(min_confidence=0.9, max_confidence=0.5)


class TestPretraining:
    def test_generate_offline_dataset(self):
        images, labels = generate_offline_dataset(20, seed=1)
        assert images.shape == (20, 3, 32, 32)
        assert len(labels) == 20

    def test_generate_invalid(self):
        with pytest.raises(ValueError):
            generate_offline_dataset(0)

    def test_pretraining_reduces_loss_and_detects(self):
        images, labels = generate_offline_dataset(80, seed=2)
        student = StudentDetector(StudentConfig(seed=4))
        result = pretrain_student(student, images, labels, epochs=4, batch_size=16, lr=0.05)
        assert result.final_loss < result.loss_history[0]
        assert result.num_images == 80

    def test_pretrain_validation(self):
        student = StudentDetector()
        with pytest.raises(ValueError):
            pretrain_student(student, np.zeros((2, 3, 32, 32)), [[]], epochs=1)
