"""Layer attribution for the end-to-end benchmark: wrap, time, restore.

The tracer patches the public entry points of each layer of ``repro``
from *outside* the library — no file under ``src/`` knows it exists.
Each wrapped call pushes a span on one stack; when it returns, its
duration minus the time its child spans covered is added to its
layer's *self time*.  Self times of all layers plus the root span
(``other``: whatever no wrapped boundary covered) add up exactly to
the root's wall time.  Spans are kept as running sums in memory.

Per boundary (one wrapped function) the tracer also keeps call counts
and *inclusive* time (outermost calls only, as cProfile's ``cumtime``
counts them), which the self-test compares against cProfile.

Usage::

    tracer = Tracer()
    with tracer.installed(), tracer.root():
        run_the_workload()
    tracer.self_s["video.render"]
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["BOUNDARIES", "ROOT", "TRAIN_LAYERS", "Tracer"]

#: name of the root span: time inside a traced operation that no
#: wrapped boundary covered (benchmark glue, unwrapped helpers)
ROOT = "other"

#: the two training layers; ``AdaptiveTrainer.train_session`` is one
#: boundary whose layer depends on its caller (see ``_train_layer``)
TRAIN_LAYERS = ("core.edge_train", "core.cloud_train")


def _train_layer(stack: list) -> str:
    """Edge training runs under ``EdgeDevice.run_training_session``."""
    return TRAIN_LAYERS[0] if stack and stack[-1][0] == TRAIN_LAYERS[0] else TRAIN_LAYERS[1]


#: (layer, module, attributes): every attribute is ``Class.method`` or a
#: module-level function.  A method is patched on the class that defines
#: it (first in the MRO), so e.g. BatchNorm2d and BatchRenorm2d share
#: their base's ``forward``.  A layer may be a callable of the span
#: stack, deciding the layer per call.
BOUNDARIES: tuple[tuple[str | Callable, str, tuple[str, ...]], ...] = (
    ("video.render", "repro.video.render", ("FrameRenderer.render",)),
    ("video.scene", "repro.video.scene", ("Scene.step", "Scene.warm_up")),
    ("video.drift", "repro.video.drift", ("DriftSchedule.domain_at",)),
    # the kernel pulls each frame from a VideoStream generator; this
    # private hook is the only call boundary around the generator's own
    # code (motion estimate, Frame assembly), which would otherwise
    # count as kernel time
    ("video.stream", "repro.core.actors", ("SessionKernel._schedule_next_frame",)),
    (
        "detection.student_infer",
        "repro.detection.student",
        ("StudentDetector.detect", "StudentDetector.detect_batch"),
    ),
    (
        "detection.teacher",
        "repro.detection.teacher",
        ("TeacherDetector.detect", "TeacherDetector.label_frames"),
    ),
    ("nn.conv2d.fwd", "repro.nn.layers", ("Conv2d.forward",)),
    ("nn.conv2d.bwd", "repro.nn.layers", ("Conv2d.backward",)),
    (
        "nn.batchnorm.fwd",
        "repro.nn.norm",
        ("BatchNorm2d.forward", "BatchRenorm2d.forward"),
    ),
    (
        "nn.batchnorm.bwd",
        "repro.nn.norm",
        ("BatchNorm2d.backward", "BatchRenorm2d.backward"),
    ),
    ("nn.optim", "repro.nn.optim", ("SGD.step",)),
    ("core.edge_train", "repro.core.edge", ("EdgeDevice.run_training_session",)),
    (_train_layer, "repro.core.adaptive_training", ("AdaptiveTrainer.train_session",)),
    ("core.replay_seed", "repro.core.adaptive_training", ("AdaptiveTrainer.seed_replay",)),
    ("core.labeling", "repro.core.cloud", ("CloudServer.process_upload",)),
    (
        "core.edge",
        "repro.core.actors",
        ("EdgeActor.on_frame", "EdgeActor.on_labels", "EdgeActor.on_model_download"),
    ),
    (
        "core.cluster",
        "repro.core.cluster",
        (
            "CloudCluster.on_upload",
            "CloudCluster.on_labeling_done",
            "CloudCluster.on_batch_timeout",
            "CloudCluster.on_revocation",
            "CloudCluster.on_crash",
            "CloudCluster.on_labels_for_training",
            "CloudCluster.register_camera",
            "CloudCluster.bind",
        ),
    ),
    (
        "core.batching",
        "repro.core.batching",
        (
            "FleetBatcher.on_job",
            "FleetBatcher.on_worker_idle",
            "FleetBatcher.on_timeout",
            "FleetBatcher.on_labeled",
        ),
    ),
    (
        "core.faults",
        "repro.core.faults",
        (
            "ReliableChannel.send",
            "ReliableChannel.on_timer",
            "ReliableChannel.accept",
            "FaultPlan.draw_verdict",
        ),
    ),
    (
        "core.autoscaling",
        "repro.core.autoscaling",
        ("AutoscaleController.start", "AutoscaleController.on_tick"),
    ),
    (
        "core.federation",
        "repro.core.federation",
        (
            "Federation.on_upload",
            "Federation.on_labeling_done",
            "Federation.on_batch_timeout",
            "Federation.on_tick",
            "Federation.on_crash",
            "Federation.on_region_outage",
            "Federation.on_replication_tick",
            "Federation.on_labels_for_training",
            "Federation.register_camera",
            "FederatedTransport.send_upload",
            "FederatedTransport.send_labels",
            "FederatedTransport.send_model",
            "FederatedTransport.uplink_delivered",
            "FederatedTransport.downlink_delivered",
            "FederatedTransport.on_partition",
        ),
    ),
    (
        "network.link",
        "repro.network.link",
        (
            "SharedLink.begin_uplink",
            "SharedLink.begin_downlink",
            "SharedLink.next_uplink_completion",
            "SharedLink.next_downlink_completion",
            "SharedLink.retire",
            "SharedLink.begin_partition",
            "SharedLink.end_partition",
        ),
    ),
    (
        "network.link",
        "repro.core.actors",
        (
            "SharedLinkTransport.send_upload",
            "SharedLinkTransport.send_labels",
            "SharedLinkTransport.send_model",
            "SharedLinkTransport.uplink_delivered",
            "SharedLinkTransport.downlink_delivered",
        ),
    ),
    (
        "network.link",
        "repro.core.faults",
        (
            "ReliableTransport.send_upload",
            "ReliableTransport.send_labels",
            "ReliableTransport.send_model",
        ),
    ),
    (
        "runtime.kernel",
        "repro.runtime.events",
        ("EventScheduler.run", "EventScheduler.schedule", "EventScheduler.cancel"),
    ),
    ("runtime.kernel", "repro.core.actors", ("SessionKernel.dispatch",)),
    (
        "runtime.journal",
        "repro.runtime.journal",
        ("EventJournal.begin", "EventJournal.record_event", "EventJournal.finish"),
    ),
    ("core.fleet.init", "repro.core.fleet", ("FleetSession.__init__",)),
    ("core.fleet.run", "repro.core.fleet", ("FleetSession.run",)),
    (
        "eval.scoring",
        "repro.eval.runner",
        ("evaluate_map", "evaluate_average_iou", "windowed_map"),
    ),
    ("eval.scoring", "repro.detection.metrics", ("evaluate_map",)),
    ("testing.invariants", "repro.testing.shrink", ("check_invariants",)),
)

#: boundaries whose per-call inclusive durations are kept (for p50/p99)
SAMPLED = frozenset({"EdgeActor.on_frame"})


def _resolve(module_name: str, attribute: str) -> tuple[object, str, Callable]:
    """(owner, attribute name, original function) for one boundary."""
    module = importlib.import_module(module_name)
    if "." not in attribute:
        return module, attribute, getattr(module, attribute)
    class_name, method = attribute.split(".")
    cls = getattr(module, class_name)
    owner = next(klass for klass in cls.__mro__ if method in vars(klass))
    return owner, method, vars(owner)[method]


class Tracer:
    """Span-stack self-time attribution over the layers in :data:`BOUNDARIES`."""

    def __init__(self) -> None:
        #: layer -> seconds spent in the layer itself (children excluded)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: layer -> calls into it
        self.layer_calls: Counter[str] = Counter()
        #: boundary -> calls
        self.calls: Counter[str] = Counter()
        #: boundary -> seconds inside outermost calls (cProfile cumtime)
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        #: boundary -> per-call inclusive seconds (``SAMPLED`` boundaries)
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        #: training layer -> optimizer steps taken under it
        self.steps: Counter[str] = Counter()
        #: boundary -> code key of the wrapped function, as cProfile names it
        self.code_keys: dict[str, tuple[str, int, str]] = {}
        self._stack: list[list] = []
        self._depth: Counter[str] = Counter()

    def _wrap(self, boundary: str, layer, fn: Callable) -> Callable:
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        self_s, calls, inclusive = self.self_s, self.calls, self.inclusive
        layer_calls = self.layer_calls
        samples = self.samples[boundary] if boundary in SAMPLED else None
        steps = self.steps if boundary == "SGD.step" else None
        pick = layer if callable(layer) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [pick(stack) if pick else layer, 0.0]
            stack.append(frame)
            depth[boundary] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[boundary] -= 1
                self_s[frame[0]] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                calls[boundary] += 1
                layer_calls[frame[0]] += 1
                if not depth[boundary]:
                    inclusive[boundary] += elapsed
                if samples is not None:
                    samples.append(elapsed)
                if steps is not None:
                    for outer in reversed(stack):
                        if outer[0] in TRAIN_LAYERS:
                            steps[outer[0]] += 1
                            break

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every boundary for the duration of the block, then restore."""
        patched: list[tuple[object, str, Callable]] = []
        seen: set[tuple[int, str]] = set()
        try:
            for layer, module_name, attributes in BOUNDARIES:
                for attribute in attributes:
                    owner, name, original = _resolve(module_name, attribute)
                    if (id(owner), name) in seen:
                        continue
                    seen.add((id(owner), name))
                    boundary = (
                        f"{owner.__name__}.{name}" if isinstance(owner, type) else name
                    )
                    code = original.__code__
                    self.code_keys[boundary] = (
                        code.co_filename,
                        code.co_firstlineno,
                        code.co_name,
                    )
                    setattr(owner, name, self._wrap(boundary, layer, original))
                    patched.append((owner, name, original))
            yield self
        finally:
            for owner, name, original in reversed(patched):
                setattr(owner, name, original)

    @contextmanager
    def root(self) -> Iterator[None]:
        """The root span around one traced operation (layer :data:`ROOT`)."""
        frame = [ROOT, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.self_s[ROOT] += elapsed - frame[1]
            self.inclusive[ROOT] += elapsed
