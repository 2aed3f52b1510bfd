"""Tests for the Sequential container and its latent-replay cut-point API."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.detection.pretrain import generate_offline_dataset
from repro.detection.student import StudentConfig, StudentDetector


def small_model(rng) -> nn.Sequential:
    """Three convs with activations between: the student's own layers."""
    return nn.Sequential([
        ("conv1", nn.Conv2d(2, 4, 3, padding=1, rng=rng)),
        ("act1", nn.LeakyReLU(0.1)),
        ("conv2", nn.Conv2d(4, 4, 3, padding=1, rng=np.random.default_rng(5))),
        ("act2", nn.LeakyReLU(0.1)),
        ("head", nn.Conv2d(4, 2, 1, rng=np.random.default_rng(6))),
    ])


def small_input(rng, n: int = 3) -> np.ndarray:
    return rng.normal(size=(n, 2, 4, 4))


class TestSequentialBasics:
    def test_forward_equals_composition(self, rng):
        model = small_model(rng)
        x = small_input(rng)
        manual = x
        for _, layer in model.named_layers():
            manual = layer.forward(manual)
        assert np.allclose(model.forward(x), manual)

    def test_duplicate_name_raises(self, rng):
        model = nn.Sequential([("a", nn.Identity())])
        with pytest.raises(ValueError):
            model.add("a", nn.Identity())

    def test_non_module_raises(self):
        with pytest.raises(TypeError):
            nn.Sequential([("a", "not a module")])  # type: ignore[list-item]

    def test_len_contains_getitem(self, rng):
        model = small_model(rng)
        assert len(model) == 5
        assert "conv2" in model
        assert isinstance(model["conv2"], nn.Conv2d)

    def test_index_of_unknown_layer_raises(self, rng):
        with pytest.raises(KeyError):
            small_model(rng).index_of("nope")

    def test_parameters_collects_all(self, rng):
        model = small_model(rng)
        assert len(model.parameters()) == 6  # three Conv2d layers x (W, b)

    def test_train_eval_propagates(self, rng):
        model = nn.Sequential([("act", nn.LeakyReLU(0.1))])
        model.eval()
        assert not model["act"].training
        model.train()
        assert model["act"].training

    def test_layers_before(self, rng):
        model = small_model(rng)
        assert model.layers_before("conv2") == ["conv1", "act1"]


class TestCutPointExecution:
    def test_forward_until_plus_from_equals_full(self, rng):
        model = small_model(rng)
        x = small_input(rng)
        full = model.forward(x)
        latent = model.forward_until(x, "conv2")
        spliced = model.forward_from(latent, "conv2")
        assert np.allclose(full, spliced)

    def test_backward_from_end_stops_at_cut(self, rng):
        model = small_model(rng)
        x = small_input(rng)
        model.forward_until(x, "conv2")
        latent = model.forward_until(x, "conv2")
        out = model.forward_from(latent, "conv2")
        model.zero_grad()
        model.backward_from_end(np.ones_like(out), "conv2")
        # front layers got no gradient, rear layers did
        assert np.allclose(model["conv1"].weight.grad, 0.0)
        assert not np.allclose(model["conv2"].weight.grad, 0.0)

    def test_backward_front_continues(self, rng):
        model = small_model(rng)
        x = small_input(rng)
        latent = model.forward_until(x, "conv2")
        out = model.forward_from(latent, "conv2")
        model.zero_grad()
        grad_at_cut = model.backward_from_end(np.ones_like(out), "conv2")
        model.backward_front(grad_at_cut, "conv2")
        assert not np.allclose(model["conv1"].weight.grad, 0.0)

    def test_split_backward_matches_full_backward(self, rng):
        model_a = small_model(rng)
        model_b = small_model(rng)
        model_b.load_state_dict(model_a.state_dict())
        x = small_input(rng)

        out_a = model_a.forward(x)
        model_a.zero_grad()
        model_a.backward(np.ones_like(out_a))

        latent = model_b.forward_until(x, "conv2")
        out_b = model_b.forward_from(latent, "conv2")
        model_b.zero_grad()
        grad_cut = model_b.backward_from_end(np.ones_like(out_b), "conv2")
        model_b.backward_front(grad_cut, "conv2")

        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            assert np.allclose(pa.grad, pb.grad, atol=1e-10)

    def test_state_dict_roundtrip(self, rng):
        model_a = small_model(rng)
        model_b = small_model(np.random.default_rng(99))
        model_b.load_state_dict(model_a.state_dict())
        x = small_input(rng, 2)
        assert np.allclose(model_a.forward(x), model_b.forward(x))


class TestSkippedInputGradient:
    """A first ``Conv2d`` skips the input gradient; the rest is unchanged."""

    @staticmethod
    def trained_grads(skip: bool, cut: str | None) -> tuple[dict, object]:
        """One training step of the student: its gradients, and what the
        backward pass returned.  ``skip=False`` runs every layer's full
        backward by hand, as the container did before it skipped."""
        student = StudentDetector(StudentConfig(seed=5))
        images, labels = generate_offline_dataset(4, seed=3)
        targets = student.codec.encode_batch(labels)
        model = student.model.train()
        if cut is None:
            outputs = model.forward(images)
            front = model.layer_names
        else:
            outputs = model.forward_from(model.forward_until(images, cut), cut)
            front = model.layers_before(cut)
        _, grad = student.detection_loss(outputs, targets)
        if cut is not None:
            grad = model.backward_from_end(grad, cut)
        if skip:
            returned = model.backward(grad) if cut is None else model.backward_front(grad, cut)
        else:
            for name in reversed(front):
                grad = model[name].backward(grad)
            returned = grad
        grads = {
            f"{name}.{index}": param.grad.tobytes()
            for name, layer in model.named_layers()
            for index, param in enumerate(layer.parameters())
        }
        return grads, returned

    @pytest.mark.parametrize("cut", [None, "conv3"])
    def test_weight_and_bias_gradients_are_byte_identical(self, cut):
        full, returned_full = self.trained_grads(False, cut)
        skipped, returned_skipped = self.trained_grads(True, cut)
        assert returned_full.shape == (4, 3, 32, 32)
        assert returned_skipped is None
        assert {"conv1.0", "conv1.1"} <= set(full)
        assert skipped == full

    def test_a_first_layer_other_than_conv_returns_the_input_gradient(self, rng):
        model = nn.Sequential([("act0", nn.LeakyReLU(0.1)), *small_model(rng).named_layers()])
        x = small_input(rng)
        assert model.backward(np.ones_like(model.forward(x))).shape == x.shape

    def test_conv2d_without_input_gradient_returns_none(self, rng):
        conv = nn.Conv2d(2, 3, 3, padding=1, rng=rng)
        out = conv.forward(rng.normal(size=(2, 2, 5, 5)))
        assert conv.backward(np.ones_like(out), input_grad=False) is None
        assert conv.weight.grad.any() and conv.bias.grad.any()
