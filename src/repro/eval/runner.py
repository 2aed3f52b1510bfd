"""Experiment runner: pretraining, strategy execution and metric aggregation."""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from repro.core.config import ShoggothConfig
from repro.core.faults import FaultPlan
from repro.core.federation import RegionSelector, RegionSpec
from repro.core.fleet import CameraSpec, FleetResult, FleetSession
from repro.core.session import SessionResult
from repro.core.strategies import Strategy, build_strategy
from repro.detection.metrics import (
    FrameMatches,
    evaluate_average_iou,
    evaluate_map,
    windowed_map,
)
from repro.detection.pretrain import generate_offline_dataset, pretrain_student
from repro.detection.student import StudentConfig, StudentDetector
from repro.detection.teacher import TeacherConfig, TeacherDetector
from repro.eval.results import StrategyRunResult, format_dollars
from repro.runtime.metrics import reduce_metric
from repro.network.link import LinkConfig, SharedLink, WanProfile
from repro.video.datasets import DatasetSpec

__all__ = [
    "ExperimentSettings",
    "prepare_student",
    "run_strategy",
    "compare_strategies",
    "FleetRunResult",
    "run_fleet",
]


@dataclass(frozen=True)
class ExperimentSettings:
    """Shared experiment knobs used by the benchmarks."""

    #: frames per synthetic stream (paper streams are much longer; this is
    #: sized so the whole benchmark suite completes in CPU-minutes)
    num_frames: int = 2400
    #: evaluate accuracy on every N-th frame
    eval_stride: int = 2
    #: offline pre-training set size and schedule
    pretrain_images: int = 400
    pretrain_epochs: int = 8
    #: window (in evaluated frames) for the Figure-5 windowed mAP
    map_window: int = 15
    #: offline images used to seed the replay memory at deployment time
    replay_seed_images: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.num_frames, self.eval_stride, self.pretrain_images,
               self.pretrain_epochs, self.map_window) <= 0:
            raise ValueError("experiment settings must be positive")
        if self.replay_seed_images < 0:
            raise ValueError("replay_seed_images must be non-negative")

    def shoggoth_config(self) -> ShoggothConfig:
        """Session config matching these settings (eval stride threaded)."""
        return ShoggothConfig(eval_stride=self.eval_stride)

    @classmethod
    def from_env(cls, **overrides) -> "ExperimentSettings":
        """Build settings honouring ``REPRO_*`` environment overrides.

        The CI smoke job runs every example and benchmark at a tiny
        scale by exporting e.g. ``REPRO_NUM_FRAMES=120``; locally the
        scripts keep their documented defaults.  Recognised variables:
        ``REPRO_NUM_FRAMES``, ``REPRO_EVAL_STRIDE``,
        ``REPRO_PRETRAIN_IMAGES``, ``REPRO_PRETRAIN_EPOCHS``,
        ``REPRO_REPLAY_SEED_IMAGES``, ``REPRO_SEED``.
        """
        env_fields = (
            "num_frames",
            "eval_stride",
            "pretrain_images",
            "pretrain_epochs",
            "replay_seed_images",
            "seed",
        )
        for name in env_fields:
            raw = os.environ.get(f"REPRO_{name.upper()}")
            if raw is not None:
                overrides[name] = int(raw)
        return cls(**overrides)


def prepare_student(
    settings: ExperimentSettings | None = None,
    student_config: StudentConfig | None = None,
) -> StudentDetector:
    """Pre-train the offline student every strategy starts from."""
    settings = settings or ExperimentSettings()
    student = StudentDetector(student_config or StudentConfig(seed=settings.seed + 3))
    images, labels = generate_offline_dataset(
        settings.pretrain_images, seed=settings.seed + 100
    )
    pretrain_student(
        student,
        images,
        labels,
        epochs=settings.pretrain_epochs,
        batch_size=16,
        lr=0.05,
        seed=settings.seed,
    )
    return student


def run_strategy(
    strategy: Strategy | str,
    dataset: DatasetSpec,
    student: StudentDetector,
    settings: ExperimentSettings | None = None,
    config: ShoggothConfig | None = None,
    teacher_config: TeacherConfig | None = None,
) -> StrategyRunResult:
    """Evaluate one strategy on one dataset starting from a fresh student copy."""
    settings = settings or ExperimentSettings()
    if isinstance(strategy, str):
        strategy = build_strategy(strategy)
    config = config or settings.shoggoth_config()
    teacher = TeacherDetector(teacher_config or TeacherConfig(seed=settings.seed + 7))

    replay_seed = None
    if settings.replay_seed_images > 0:
        replay_seed = generate_offline_dataset(
            settings.replay_seed_images, seed=settings.seed + 900
        )

    session = strategy.run(
        dataset=dataset,
        student=student.clone(),
        teacher=teacher,
        config=config,
        seed=settings.seed,
        replay_seed=replay_seed,
    )
    return _score_session(session, dataset.name, settings)


def _score_session(
    session: SessionResult, dataset_name: str, settings: ExperimentSettings
) -> StrategyRunResult:
    """Turn a raw session outcome into the reported metric bundle."""
    # matched once, by whichever metric runs first
    frames = FrameMatches(session.detections_per_frame, session.ground_truth_per_frame)
    map_result = evaluate_map(frames)
    avg_iou = evaluate_average_iou(frames)
    windows = windowed_map(frames, window=settings.map_window)
    return StrategyRunResult(
        strategy=session.strategy_name,
        dataset=dataset_name,
        map_result=map_result,
        average_iou=avg_iou,
        uplink_kbps=session.bandwidth.uplink_kbps,
        downlink_kbps=session.bandwidth.downlink_kbps,
        average_fps=session.average_fps,
        windowed_map=windows,
        cloud_gpu_seconds=session.cloud_gpu_seconds,
        num_training_sessions=len(session.training_reports),
        session=session,
    )


@dataclass(frozen=True)
class FleetRunResult:
    """A fleet evaluated end-to-end: per-camera metrics plus shared-resource stats."""

    fleet: FleetResult
    per_camera: dict[str, StrategyRunResult]

    @property
    def num_cameras(self) -> int:
        """How many cameras the fleet ran."""
        return self.fleet.num_cameras

    @property
    def mean_map50(self) -> float:
        """Mean per-camera mAP@0.5 across the fleet."""
        return reduce_metric(r.map50 for r in self.per_camera.values())

    @property
    def mean_fps(self) -> float:
        """Mean per-camera processed FPS across the fleet."""
        return reduce_metric(r.average_fps for r in self.per_camera.values())

    @property
    def mean_upload_latency(self) -> float:
        """Mean uplink transfer time over every upload of the fleet (seconds)."""
        return reduce_metric(
            lat for c in self.fleet.cameras for lat in c.upload_latencies
        )

    def row(self) -> dict[str, float | str]:
        """Flat summary row for fleet-scaling and scheduler-policy tables."""
        return {
            "policy": self.fleet.scheduler,
            "GPUs": self.fleet.num_gpus,
            "placement": self.fleet.placement,
            "cameras": self.num_cameras,
            "mean mAP@0.5 (%)": round(100.0 * self.mean_map50, 1),
            "mean FPS": round(self.mean_fps, 1),
            "queue delay (s)": round(self.fleet.mean_queue_delay, 3),
            "max delay (s)": round(self.fleet.max_queue_delay, 3),
            "upload latency (s)": round(self.mean_upload_latency, 3),
            "cloud GPU (s)": round(self.fleet.cloud_gpu_seconds, 1),
            "cloud util": round(self.fleet.cloud_utilization, 3),
            "load imbalance": round(self.fleet.load_imbalance, 3),
            "GPU fairness": round(self.fleet.gpu_fairness, 3),
            "migrations": self.fleet.num_migrations,
            "rejected": self.fleet.num_rejected_uploads,
        }

    def autoscale_row(self) -> dict[str, float | str]:
        """Row for autoscaling tables: elastic-capacity metrics added.

        Units: ``provisioned GPU-s`` integrates provisioned capacity
        over simulated time (GPU-seconds paid for), ``mean GPUs`` is
        that integral over the duration, and ``SLO viol`` is the
        fraction of labeling jobs whose queue delay exceeded the
        policy's SLO.
        """
        fleet = self.fleet
        return {
            "autoscaler": fleet.autoscaler,
            "GPUs (start/peak/end)": (
                f"{fleet.num_gpus}/{fleet.peak_num_gpus}/{fleet.final_num_gpus}"
            ),
            "cameras": self.num_cameras,
            "mean mAP@0.5 (%)": round(100.0 * self.mean_map50, 1),
            "queue delay (s)": round(fleet.mean_queue_delay, 3),
            "p95 delay (s)": round(fleet.p95_queue_delay, 3),
            # a run with no SLO cannot "meet" one: print n/a, not a
            # clean-looking 0.0, so fixed rows don't outrank the scaler
            "SLO viol": (
                round(fleet.slo_violation_fraction, 3)
                if fleet.slo_seconds is not None
                else "n/a"
            ),
            "provisioned GPU-s": round(fleet.gpu_seconds_provisioned, 1),
            "mean GPUs": round(fleet.mean_gpu_count, 2),
            "cloud util": round(fleet.cloud_utilization, 3),
            "scale out/in": f"{fleet.num_scale_outs}/{fleet.num_scale_ins}",
        }

    def cost_row(self) -> dict[str, float | str]:
        """Row for spot/heterogeneous-capacity tables: the cost axis.

        Units: ``$ cost`` bills each worker's
        :class:`~repro.core.scheduling.WorkerSpec` rate over its
        provisioned wall-seconds; ``spot share`` is the fraction of
        provisioned GPU-seconds on preemptible workers; ``revoked``
        counts spot workers killed mid-run, with the in-flight jobs
        they interrupted split into relabeled / checkpoint-resumed; and
        ``wasted GPU-s`` is labeling/training work thrown away by
        relabel-mode kills.
        """
        fleet = self.fleet
        tier_counts = Counter(spec.tier for spec in fleet.worker_specs)
        return {
            "capacity": "+".join(
                f"{count}x{tier}" for tier, count in sorted(tier_counts.items())
            ),
            "cameras": self.num_cameras,
            "$ cost": format_dollars(fleet.dollar_cost),
            "spot share": round(fleet.spot_fraction, 3),
            "p95 delay (s)": round(fleet.p95_queue_delay, 3),
            "queue delay (s)": round(fleet.mean_queue_delay, 3),
            "revoked": fleet.num_revocations,
            "relabeled/resumed": (
                f"{fleet.num_relabeled_jobs}/{fleet.num_checkpoint_resumed_jobs}"
            ),
            "wasted GPU-s": round(fleet.wasted_gpu_seconds, 2),
            "provisioned GPU-s": round(fleet.gpu_seconds_provisioned, 1),
        }

    def serving_row(self) -> dict[str, float | str]:
        """Row for serving-throughput tables: the batching axis.

        Units: ``labels/busy-s`` is labeled frames per GPU-busy
        wall-second (the saturation-robust serving-throughput measure
        ``benchmarks/bench_serving_throughput.py`` compares policies
        on), ``labels/s`` divides by episode duration instead,
        ``batch jobs`` is the mean labeling jobs per merged
        cluster-wide batch (n/a without a fleet batcher), and
        ``busy periods`` counts GPU busy periods that served labeling —
        fewer at equal labels means better overhead amortisation.
        """
        fleet = self.fleet
        return {
            "batching": fleet.batching,
            "GPUs": fleet.num_gpus,
            "cameras": self.num_cameras,
            "labels/busy-s": round(fleet.labels_per_busy_second, 1),
            "labels/s": round(
                fleet.num_labeled_frames / fleet.duration_seconds, 1
            ),
            "p95 delay (s)": round(fleet.p95_queue_delay, 3),
            "queue delay (s)": round(fleet.mean_queue_delay, 3),
            "busy periods": fleet.num_labeling_batches,
            "batch jobs": (
                round(fleet.mean_merged_batch_jobs, 1)
                if fleet.num_merged_batches
                else "n/a"
            ),
            "GPU busy frac": round(fleet.cloud_utilization, 3),
        }


@contextmanager
def _maybe_profile():
    """Opt-in cProfile wrapper around the hot path (``REPRO_PROFILE=1``).

    When the environment variable is unset (the default) this is a
    zero-overhead no-op; when set, the wrapped block runs under
    :class:`cProfile.Profile` and the stats are dumped to
    ``REPRO_PROFILE_PATH`` (default ``repro_fleet.prof``), readable
    with ``python -m pstats`` or snakeviz — see ``docs/performance.md``.
    """
    if os.environ.get("REPRO_PROFILE") != "1":
        yield
        return
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        path = os.environ.get("REPRO_PROFILE_PATH", "repro_fleet.prof")
        profiler.dump_stats(path)


def run_fleet(
    cameras: list[CameraSpec],
    student: StudentDetector,
    settings: ExperimentSettings | None = None,
    teacher_config: TeacherConfig | None = None,
    config: ShoggothConfig | None = None,
    link: SharedLink | None = None,
    link_config: LinkConfig | None = None,
    batch_overhead_seconds: float = 0.02,
    faults: FaultPlan | None = None,
    journal: object | None = None,
    regions: "list[RegionSpec] | None" = None,
    region_selector: "RegionSelector | str | None" = None,
    region_outages: list[tuple[float, float, int]] | None = None,
    replication_interval_seconds: float | None = None,
    failover: bool = True,
    **cluster,
) -> FleetRunResult:
    """Run N cameras against one shared cloud/link and score each stream.

    Every camera starts from a fresh clone of ``student``; the fleet
    shares one cloud and one processor-sharing link, so the per-camera
    metrics degrade as the fleet grows — the scaling behaviour
    ``benchmarks/bench_fleet_scaling.py`` measures.

    Without ``regions`` the cloud is one region, and ``cluster`` holds
    its :class:`~repro.core.federation.RegionSpec` fields by keyword:
    ``scheduler`` (how each GPU is shared, FIFO merged-batch by
    default; see :mod:`repro.core.scheduling`), ``num_gpus`` and
    ``placement`` (shard the cloud into a
    :class:`~repro.core.cluster.CloudCluster`), ``autoscaler``
    (``"none"`` default, ``"slo"``, ``"step"`` or a policy instance),
    ``worker_specs`` with ``revocations`` and ``revocation_mode`` (a
    heterogeneous, partly preemptible cluster) and ``batching``
    (cluster-wide teacher batches).  ``link_config`` shapes its free
    WAN; a ready ``link`` is folded as its config (give one or the
    other: both raise ``ValueError``).  The benchmarks
    ``bench_scheduler_policies``, ``bench_cloud_sharding``,
    ``bench_autoscaling``, ``bench_spot_preemption`` and
    ``bench_serving_throughput`` sweep these knobs.  ``regions`` (a
    list of :class:`~repro.core.federation.RegionSpec`, plus
    ``region_selector`` / ``region_outages`` /
    ``replication_interval_seconds`` / ``failover``) instead federates
    the cloud across WAN-profiled regions with cross-region failover,
    which ``benchmarks/bench_federation.py`` measures — see
    ``docs/federation.md``; the cluster and link knobs then live on
    each spec.  ``faults`` attaches a seeded
    :class:`~repro.core.faults.FaultPlan` (lossy links + worker
    crashes + reliable delivery), which
    ``benchmarks/bench_fault_recovery.py`` sweeps, and ``journal``
    records the run into an :class:`~repro.runtime.journal.EventJournal`
    for determinism checks and replay.  Exporting ``REPRO_PROFILE=1``
    wraps the simulation in :mod:`cProfile` and dumps the stats to
    ``REPRO_PROFILE_PATH`` (default ``repro_fleet.prof``) — see
    ``docs/performance.md``.
    """
    if link is not None:
        if link_config is not None:
            raise ValueError("give run_fleet a link or a link_config, not both")
        link_config = link.config
    if link_config is not None:
        cluster["wan"] = WanProfile(**asdict(link_config))
    if regions is None:
        regions = [RegionSpec("default", **cluster)]
    elif cluster:
        raise ValueError(
            "with regions=[...] the cluster and link knobs live on each "
            f"RegionSpec; got {sorted(cluster)}"
        )
    settings = settings or ExperimentSettings()
    teacher = TeacherDetector(teacher_config or TeacherConfig(seed=settings.seed + 7))

    replay_seed = None
    if settings.replay_seed_images > 0:
        replay_seed = generate_offline_dataset(
            settings.replay_seed_images, seed=settings.seed + 900
        )

    fleet = FleetSession(
        cameras=cameras,
        student=student,
        teacher=teacher,
        config=config or settings.shoggoth_config(),
        replay_seed=replay_seed,
        batch_overhead_seconds=batch_overhead_seconds,
        faults=faults,
        regions=regions,
        region_selector=region_selector,
        region_outages=region_outages,
        replication_interval_seconds=replication_interval_seconds,
        failover=failover,
    )
    with _maybe_profile():
        outcome = fleet.run(journal=journal)
    per_camera = {
        entry.camera: _score_session(entry.session, entry.session.dataset_name, settings)
        for entry in outcome.cameras
    }
    return FleetRunResult(fleet=outcome, per_camera=per_camera)


def compare_strategies(
    dataset: DatasetSpec,
    student: StudentDetector,
    strategy_names: list[str] | None = None,
    settings: ExperimentSettings | None = None,
    config: ShoggothConfig | None = None,
    teacher_config: TeacherConfig | None = None,
) -> dict[str, StrategyRunResult]:
    """Run several strategies on the same dataset (Table I row group)."""
    settings = settings or ExperimentSettings()
    names = strategy_names or ["edge_only", "cloud_only", "prompt", "ams", "shoggoth"]
    results: dict[str, StrategyRunResult] = {}
    for name in names:
        results[name] = run_strategy(
            name, dataset, student, settings=settings, config=config,
            teacher_config=teacher_config,
        )
    return results
