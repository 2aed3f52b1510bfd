"""The end-to-end benchmark's workloads: set-up, one operation, checks.

A workload builds its inputs from a seed in ``setup`` — pretraining the
student, building datasets or chaos scenarios — and returns a
:class:`Prepared` whose ``run`` performs one fixed *operation* on those
inputs: one ``repro.eval.run_fleet`` call, or one batch of chaos
scenarios built by ``repro.testing.scenarios.session_from_scenario``.
The benchmark repeats the operation for its time budget.  Every repeat
must produce the same fingerprint, and every operation must pass the
checks below.

Sizes are chosen so one operation takes about 2–5 s on one core: long
enough to amortise timer noise, short enough for several repeats per
run.  :func:`tiny` shrinks a workload for the self-test.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.batching import LatencyBudgetBatchPolicy
from repro.core.fleet import CameraSpec
from repro.core.scheduling import WorkerSpec
from repro.detection import metrics
from repro.eval import ExperimentSettings, FleetRunResult, prepare_student, run_fleet
from repro.network.link import LinkConfig, SharedLink
from repro.runtime.journal import EventJournal, stable_digest
from repro.testing import shrink
from repro.testing.scenarios import chaos_scenario, session_from_scenario
from repro.video import build_dataset

__all__ = [
    "Outcome",
    "Prepared",
    "FleetWorkload",
    "ChaosWorkload",
    "WORKLOADS",
    "tiny",
]

DATASETS = ("detrac", "kitti", "waymo", "stationary")
#: one AMS camera per four keeps cloud training in the mix
ADAPT_STRATEGIES = ("shoggoth", "shoggoth", "ams", "shoggoth")


@dataclass(frozen=True)
class Outcome:
    """What one operation produced."""

    #: operations attempted: one per fleet run or chaos scenario
    operations: int
    #: one signature per failed operation (empty when all passed)
    failures: tuple[str, ...]
    #: simulated camera-frames
    frames: int
    #: digest of every exact result; identical on every repeat
    fingerprint: str
    #: deterministic simulated outputs: they guard behaviour, not speed
    outputs: dict[str, float]
    #: uploads sent and labeled, and message retries
    counts: dict[str, int]


@dataclass(frozen=True)
class Prepared:
    """A workload's built inputs; ``run`` performs one operation on them."""

    run: Callable[[], Outcome]
    #: seconds of the set-up spent pretraining the student
    pretrain_s: float


def _outputs(maps, uplinks, waits, sent: int, lost: int) -> dict[str, float]:
    return {
        "map50_pct": 100.0 * float(np.mean(maps)),
        "uplink_kbps": float(np.mean(uplinks)),
        "sim_p95_queue_s": float(np.percentile(waits, 95.0)) if len(waits) else 0.0,
        "label_loss_pct": 100.0 * lost / sent if sent else 0.0,
    }


def _counts(sent: int, labeled: int, retries: int) -> dict[str, int]:
    return {"uploads_sent": sent, "uploads_labeled": labeled, "retries": retries}


def _upload_balance(result) -> tuple[int, int, bool]:
    """(uploads sent, uploads lost, conservation holds) for a FleetResult."""
    sent = sum(camera.session.num_uploads for camera in result.cameras)
    lost = result.num_rejected_uploads + result.num_abandoned_uploads
    return sent, lost, len(result.queue_waits) + lost == sent


def fleet_outcome(
    run: FleetRunResult, cameras: list[CameraSpec], eval_stride: int
) -> Outcome:
    """Check one fleet run and reduce it to an :class:`Outcome`.

    Checks: upload conservation (labeled + rejected + abandoned =
    sent), every camera scored on every ``eval_stride``-th frame, and
    every mAP within [0, 1].
    """
    fleet = run.fleet
    sent, lost, balanced = _upload_balance(fleet)
    maps = [score.map50 for score in run.per_camera.values()]
    failure = None
    if not balanced:
        failure = "upload_conservation"
    elif any(
        len(entry.session.evaluated_frame_indices)
        != math.ceil(spec.dataset.num_frames / eval_stride)
        for entry, spec in zip(fleet.cameras, cameras)
    ):
        failure = "evaluation_coverage"
    elif not all(0.0 <= value <= 1.0 for value in maps):
        failure = "map_range"
    return Outcome(
        operations=1,
        failures=() if failure is None else (failure,),
        frames=sum(spec.dataset.num_frames for spec in cameras),
        fingerprint=stable_digest([fleet.fingerprint(), maps], length=32),
        outputs=_outputs(
            maps,
            [score.uplink_kbps for score in run.per_camera.values()],
            fleet.queue_waits,
            sent,
            lost,
        ),
        counts=_counts(sent, len(fleet.queue_waits), fleet.num_retries),
    )


def _failed(error: Exception, operations: int, frames: int) -> Outcome:
    signature = f"exception:{type(error).__name__}"
    return Outcome(operations, (signature,) * operations, frames, signature, {}, {})


@dataclass(frozen=True)
class FleetWorkload:
    """A ``run_fleet`` configuration on a pretrained student."""

    name: str
    cameras: int
    frames: int
    strategies: tuple[str, ...]
    eval_stride: int
    replay_seed_images: int
    #: extra ``run_fleet`` arguments, built fresh for every operation
    #: (links and batchers carry state)
    fleet_kwargs: Callable[[], dict]
    pretrain_images: int = 160
    pretrain_epochs: int = 3

    def setup(self, seed: int) -> Prepared:
        """Pretrain the student and build the camera fleet for ``seed``.

        ``seed`` picks the camera streams (scene, render and camera
        seeds).  The student, its replay seed images and the teacher
        are the same for every seed: they are the deployed models.  On
        ``edge_infer``, one of eight differently seeded students spent
        50% longer decoding detections, which made the whole run 27%
        slower than the median seed.
        """
        settings = ExperimentSettings(
            num_frames=self.frames,
            eval_stride=self.eval_stride,
            pretrain_images=self.pretrain_images,
            pretrain_epochs=self.pretrain_epochs,
            replay_seed_images=self.replay_seed_images,
            seed=0,
        )
        start = time.perf_counter()
        student = prepare_student(settings)
        pretrain_s = time.perf_counter() - start
        cameras = [
            CameraSpec(
                name=f"cam{i}",
                dataset=build_dataset(
                    DATASETS[i % len(DATASETS)],
                    num_frames=self.frames,
                    seed=1000 * seed + i,
                ),
                strategy=self.strategies[i % len(self.strategies)],
                seed=1000 * seed + i,
            )
            for i in range(self.cameras)
        ]

        def run() -> Outcome:
            try:
                result = run_fleet(
                    cameras, student, settings=settings, **self.fleet_kwargs()
                )
            except Exception as error:
                return _failed(error, 1, self.cameras * self.frames)
            return fleet_outcome(result, cameras, self.eval_stride)

        return Prepared(run=run, pretrain_s=pretrain_s)


@dataclass(frozen=True)
class ChaosWorkload:
    """Journaled chaos scenarios, each checked by the shrinker's oracle."""

    name: str
    #: chaos seeds of the operation, each run with and without regions
    chaos_seeds: tuple[int, ...]
    #: frames per camera; ``None`` keeps the scenarios' own (100)
    num_frames: int | None = None

    def scenarios(self, seed: int) -> list[dict]:
        """The operation's scenario dicts for benchmark seed ``seed``.

        Chaos seed ``s`` fixes a scenario's shape and fault rates, and
        so most of its work; ``seed`` re-seeds only the fault plan's
        random stream (losses, crashes, partitions, outages) to
        ``s + 1000 * seed``.  Drawing whole scenarios per ``seed``
        instead changes the camera count and GPU shape between seeds,
        and moved the run time by up to 60% over ten seeds.  At seed 0
        the scenarios are exactly those ``chaos_scenario`` draws.
        """
        out = []
        for chaos_seed in self.chaos_seeds:
            for regions in (False, True):
                scenario = chaos_scenario(
                    chaos_seed, partitions=True, autoscaler=True, regions=regions
                )
                scenario["fault_plan"]["seed"] = chaos_seed + 1000 * seed
                if self.num_frames is not None:
                    scenario["num_frames"] = self.num_frames
                out.append(scenario)
        return out

    def setup(self, seed: int) -> Prepared:
        """Draw the scenarios and build each session once (fail before timing)."""
        scenarios = self.scenarios(seed)
        for scenario in scenarios:
            session_from_scenario(scenario)
        return Prepared(run=lambda: self.run_batch(scenarios), pretrain_s=0.0)

    def run_batch(self, scenarios: list[dict]) -> Outcome:
        """Run every scenario journaled, as the CI chaos probe does.

        A scenario fails if it raises, breaks an invariant of
        ``repro.testing.shrink.check_invariants``, or its journal seals
        a different fingerprint than its result.
        """
        failures, fingerprints = [], []
        maps, uplinks, waits = [], [], []
        sent = lost = frames = retries = 0
        for scenario in scenarios:
            frames += scenario["n_cameras"] * scenario["num_frames"]
            journal = EventJournal()
            try:
                session = session_from_scenario(scenario)
                result = session.run(journal=journal)
            except Exception as error:
                failures.append(f"exception:{type(error).__name__}")
                continue
            signature = shrink.check_invariants(session, result)
            if signature is None and journal.result_fingerprint != result.fingerprint():
                signature = "journal_fingerprint"
            if signature is not None:
                failures.append(signature)
            fingerprints.append([result.fingerprint(), journal.num_events])
            scenario_sent, scenario_lost, _ = _upload_balance(result)
            sent += scenario_sent
            lost += scenario_lost
            waits.extend(result.queue_waits)
            retries += result.num_retries
            for entry in result.cameras:
                maps.append(
                    metrics.evaluate_map(
                        entry.session.detections_per_frame,
                        entry.session.ground_truth_per_frame,
                    ).map50
                )
                uplinks.append(entry.session.bandwidth.uplink_kbps)
        return Outcome(
            operations=len(scenarios),
            failures=tuple(failures),
            frames=frames,
            fingerprint=stable_digest(fingerprints, length=32),
            outputs=_outputs(maps, uplinks, waits, sent, lost) if maps else {},
            counts=_counts(sent, len(waits), retries),
        )


def _adapt_kwargs() -> dict:
    return {
        "link": SharedLink(LinkConfig(uplink_kbps=10_000.0, downlink_kbps=20_000.0)),
        "num_gpus": 2,
        "placement": "least_loaded",
    }


def _wide_kwargs() -> dict:
    return {
        "link": SharedLink(LinkConfig()),
        "num_gpus": 4,
        "placement": "least_loaded",
        "worker_specs": [WorkerSpec(batch_scaling=0.7) for _ in range(4)],
        "batching": LatencyBudgetBatchPolicy(
            max_batch_delay_seconds=0.02, slo_seconds=1.0
        ),
    }


WORKLOADS = {
    workload.name: workload
    for workload in (
        FleetWorkload(
            name="edge_infer",
            cameras=8,
            frames=120,
            strategies=("edge_only",),
            eval_stride=1,
            replay_seed_images=0,
            fleet_kwargs=dict,
        ),
        FleetWorkload(
            name="fleet_adapt",
            cameras=16,
            frames=120,
            strategies=ADAPT_STRATEGIES,
            eval_stride=3,
            replay_seed_images=30,
            fleet_kwargs=_adapt_kwargs,
        ),
        FleetWorkload(
            name="fleet_wide",
            cameras=32,
            frames=60,
            strategies=ADAPT_STRATEGIES,
            eval_stride=3,
            replay_seed_images=30,
            fleet_kwargs=_wide_kwargs,
        ),
        ChaosWorkload(name="chaos_sweep", chaos_seeds=(0, 1, 2, 3)),
    )
}


def tiny(workload):
    """The workload at self-test size (well under a second per operation)."""
    if isinstance(workload, ChaosWorkload):
        return dataclasses.replace(workload, chaos_seeds=(0,), num_frames=30)
    return dataclasses.replace(
        workload,
        cameras=min(workload.cameras, 3),
        frames=80 if workload.replay_seed_images else 20,
        replay_seed_images=min(workload.replay_seed_images, 6),
        pretrain_images=16,
        pretrain_epochs=1,
    )
