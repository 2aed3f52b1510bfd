"""Seeded chaos scenarios: one source of truth for draws and builders.

The chaos suites (``tests/core/test_faults.py``, the randomized
invariant harness) and the shrinker CLI must agree *exactly* on what
"chaos seed N" means, or a failing CI seed could not be handed to
``python -m repro.testing.shrink`` and reproduced.  This module owns
that contract:

* :func:`sample_chaos_plan` / :func:`sample_chaos_shape` — the seeded
  draws.  Their base RNG sequences are frozen (they predate this
  module); the autoscaler and partition extensions draw *after* the
  base sequence, so enabling them never shifts an existing seed's plan.
* scenario dicts — a canonical-JSON-safe description of one chaos run
  (camera count, frames, GPUs, scheduler, batching, autoscaler
  fingerprint, fault-plan fingerprint).  :func:`session_from_scenario`
  builds the live :class:`~repro.core.fleet.FleetSession`;
  :func:`scenario_from_journal_meta` recovers a scenario from a
  recorded journal's meta header.  Scenario dicts are what the
  shrinker mutates and what regression fixtures store.
"""

from __future__ import annotations

import numpy as np

from repro.core import CameraSpec, FaultPlan, FleetSession, ShoggothConfig
from repro.network.link import WanProfile
from repro.core.autoscaling import autoscaler_from_fingerprint, build_autoscaler
from repro.core.faults import CRASH_RECOVERY_MODES
from repro.core.federation import SELECTORS, RegionSpec
from repro.detection import (
    StudentConfig,
    StudentDetector,
    TeacherConfig,
    TeacherDetector,
)
from repro.video import build_dataset

__all__ = [
    "DATASETS",
    "STRATEGIES",
    "small_fleet_config",
    "build_cameras",
    "sample_chaos_plan",
    "sample_chaos_shape",
    "sample_chaos_regions",
    "chaos_scenario",
    "session_from_scenario",
    "scenario_from_journal_meta",
]

#: dataset cycle chaos cameras draw from (camera i gets DATASETS[i % 4])
DATASETS = ["detrac", "kitti", "waymo", "stationary"]
#: strategy cycle paired with :data:`DATASETS`
STRATEGIES = ["shoggoth", "ams", "shoggoth", "shoggoth"]

#: floor on the frames-per-camera shrink axis: below this the streams
#: are too short for the sampling controller to act at all
MIN_FRAMES = 20


def small_fleet_config() -> ShoggothConfig:
    """The test suite's small-but-complete config (fast, full pipeline).

    Mirrors the ``small_config`` helper the core test modules share —
    kept here (the library cannot import from ``tests/``) so scenario
    runs and test runs are byte-identical.
    """
    return (
        ShoggothConfig(eval_stride=5)
        .with_training(
            train_batch_size=4, replay_capacity=12, minibatch_size=8, epochs=1
        )
        .with_sampling(initial_rate_fps=2.0)
    )


def build_cameras(
    n_cameras: int,
    num_frames: int,
    datasets: list[str] | None = None,
    strategies: list[str] | None = None,
    seed_base: int = 0,
) -> list[CameraSpec]:
    """The chaos suites' camera fleet: cycled datasets/strategies.

    Camera ``i`` is named ``cam{i}``, streams ``datasets[i % len]``
    with ``strategies[i % len]`` and is seeded ``seed_base + i``.
    """
    datasets = datasets or DATASETS
    strategies = strategies or STRATEGIES
    return [
        CameraSpec(
            name=f"cam{i}",
            dataset=build_dataset(datasets[i % len(datasets)], num_frames=num_frames),
            strategy=strategies[i % len(strategies)],
            seed=seed_base + i,
        )
        for i in range(n_cameras)
    ]


def sample_chaos_plan(seed: int, partitions: bool = False) -> FaultPlan:
    """Draw chaos seed ``seed``'s fault plan: rates span mild to hostile.

    The base draw sequence (RNG ``7000 + seed``) is frozen — it is what
    every historical chaos seed means.  With ``partitions=True`` the
    plan additionally draws a link-partition process *after* the base
    sequence, so the message/crash parameters of a seed are identical
    with and without partitions (70% of seeds get partitions, mean
    2–10 s between cuts, mean 0.5–2 s outages).
    """
    rng = np.random.default_rng(7000 + seed)
    params = dict(
        seed=seed,
        loss_rate=float(rng.uniform(0.0, 0.25)),
        duplicate_rate=float(rng.uniform(0.0, 0.15)),
        delay_rate=float(rng.uniform(0.0, 0.2)),
        mean_delay_seconds=float(rng.uniform(0.2, 1.5)),
        retry_timeout_seconds=float(rng.uniform(0.4, 1.2)),
        retry_backoff=float(rng.uniform(1.2, 2.5)),
        max_attempts=int(rng.integers(2, 5)),
        mean_time_between_crashes=(
            float(rng.uniform(2.0, 8.0)) if rng.random() < 0.7 else None
        ),
        crash_recovery=CRASH_RECOVERY_MODES[int(rng.integers(2))],
    )
    if partitions and rng.random() < 0.7:
        params["mean_time_between_partitions"] = float(rng.uniform(2.0, 10.0))
        params["mean_partition_seconds"] = float(rng.uniform(0.5, 2.0))
    return FaultPlan(**params)


def sample_chaos_shape(seed: int, autoscaler: bool = False) -> dict:
    """Draw chaos seed ``seed``'s fleet shape (cameras, GPUs, policies).

    The base draw sequence (RNG ``8000 + seed``) is frozen.  With
    ``autoscaler=True`` an autoscaler choice is drawn *after* the base
    sequence (40% none, 40% slo, 20% step — the slo/step knobs are
    fixed small values so scale actions actually fire at test scale)
    and returned under the ``"autoscaler"`` key as a policy
    fingerprint dict (None when the draw says no autoscaler).
    """
    rng = np.random.default_rng(8000 + seed)
    shape = {
        "n_cameras": int(rng.integers(3, 5)),
        "num_gpus": int(rng.integers(1, 4)),
        "scheduler": ["fifo", "staleness", "admission"][int(rng.integers(3))],
        "batching": [None, "greedy", "size_capped", "latency_budget"][
            int(rng.integers(4))
        ],
        "num_frames": 100,
    }
    if autoscaler:
        choice = ["none", "none", "slo", "slo", "step"][int(rng.integers(5))]
        if choice == "none":
            shape["autoscaler"] = None
        else:
            kwargs = dict(
                interval_seconds=2.0,
                window_seconds=6.0,
                min_gpus=1,
                max_gpus=shape["num_gpus"] + 2,
                cooldown_seconds=3.0,
            )
            if choice == "slo":
                kwargs.update(slo_seconds=0.4, sustained_idle_ticks=2)
            shape["autoscaler"] = build_autoscaler(choice, **kwargs).fingerprint()
    return shape


def sample_chaos_regions(seed: int) -> tuple[dict, dict]:
    """Draw chaos seed ``seed``'s region topology and outage rates.

    A *separate* RNG (``9000 + seed``) so enabling regions never shifts
    the frozen plan/shape sequences of an existing seed.  Returns
    ``(regions, plan_extras)``: ``regions`` is the scenario's
    ``"regions"`` value — a selector name plus one WAN-profile dict per
    region (2–3 regions, latency/bandwidth/egress-price spread wide
    enough that selectors disagree) — and ``plan_extras`` holds the
    region-outage process parameters to merge into the fault plan (70%
    of seeds get outages, mean 3–10 s between, mean 0.5–2 s long; WAN
    partitions already come from the plan's per-region partition
    streams).
    """
    rng = np.random.default_rng(9000 + seed)
    n_regions = int(rng.integers(2, 4))
    wan = [
        {
            "uplink_kbps": float(rng.uniform(4_000.0, 20_000.0)),
            "downlink_kbps": float(rng.uniform(8_000.0, 40_000.0)),
            "rtt_seconds": float(rng.uniform(0.01, 0.25)),
            "cost_per_gb": float(rng.uniform(0.0, 0.12)),
        }
        for _ in range(n_regions)
    ]
    selector = sorted(SELECTORS)[int(rng.integers(len(SELECTORS)))]
    regions = {"selector": selector, "wan": wan}
    plan_extras = {}
    if rng.random() < 0.7:
        plan_extras = {
            "mean_time_between_region_outages": float(rng.uniform(3.0, 10.0)),
            "mean_region_outage_seconds": float(rng.uniform(0.5, 2.0)),
        }
    return regions, plan_extras


def chaos_scenario(
    seed: int,
    partitions: bool = False,
    autoscaler: bool = False,
    regions: bool = False,
) -> dict:
    """The full scenario dict for chaos seed ``seed`` (plan + shape).

    ``regions=True`` federates the scenario: a ``"regions"`` key (drawn
    by :func:`sample_chaos_regions`) homes the fleet across 2–3
    WAN-profiled regions and the fault plan gains the seed's
    region-outage process.  The base plan/shape draws are untouched, so
    the same seed means the same message/crash chaos with and without
    regions.
    """
    shape = sample_chaos_shape(seed, autoscaler=autoscaler)
    plan_kwargs = sample_chaos_plan(seed, partitions=partitions).fingerprint()
    scenario = {
        "n_cameras": shape["n_cameras"],
        "num_frames": shape["num_frames"],
        "num_gpus": shape["num_gpus"],
        "scheduler": shape["scheduler"],
        "batching": shape["batching"],
        "autoscaler": shape.get("autoscaler"),
    }
    if regions:
        region_axes, plan_extras = sample_chaos_regions(seed)
        plan_kwargs = dict(plan_kwargs) | plan_extras
        scenario["regions"] = region_axes
    scenario["fault_plan"] = FaultPlan(**plan_kwargs).fingerprint()
    return scenario


def session_from_scenario(scenario: dict) -> FleetSession:
    """Build the live fleet a scenario dict describes (one session per call).

    The inverse of the scenario's serialisation: the fault plan is
    rebuilt from its fingerprint, the autoscaler (if any) from its
    fingerprint via :func:`~repro.core.autoscaling.
    autoscaler_from_fingerprint`, and the cameras from the canonical
    cycles in :func:`build_cameras`.  The shape knobs (GPUs, scheduler,
    batching, autoscaler) apply uniformly to every region: a
    ``"regions"`` key names the selector and one WAN profile per
    region (``region0``, ``region1``, ...), and without it the fleet
    is one region named ``"default"`` whose WAN takes the optional
    ``uplink_kbps``/``downlink_kbps`` keys.  Deterministic: two sessions
    from the same scenario produce byte-identical journals.
    """
    region_axes = scenario.get("regions")
    if region_axes:
        wans = {
            f"region{i}": WanProfile(**wan) for i, wan in enumerate(region_axes["wan"])
        }
        selector = region_axes["selector"]
    else:
        defaults = WanProfile()
        wans = {
            "default": WanProfile(
                uplink_kbps=scenario.get("uplink_kbps", defaults.uplink_kbps),
                downlink_kbps=scenario.get("downlink_kbps", defaults.downlink_kbps),
            )
        }
        selector = None
    specs = [
        RegionSpec(
            name=name,
            num_gpus=scenario["num_gpus"],
            wan=wan,
            scheduler=scenario["scheduler"],
            batching=scenario.get("batching"),
            autoscaler=(
                autoscaler_from_fingerprint(scenario["autoscaler"])
                if scenario.get("autoscaler")
                else None
            ),
        )
        for name, wan in wans.items()
    ]
    return FleetSession(
        build_cameras(scenario["n_cameras"], scenario["num_frames"]),
        student=StudentDetector(StudentConfig(seed=5)),
        teacher=TeacherDetector(TeacherConfig(seed=9)),
        config=small_fleet_config(),
        regions=specs,
        region_selector=selector,
        faults=FaultPlan(**scenario["fault_plan"]),
    )


def scenario_from_journal_meta(meta: dict) -> dict:
    """Recover a scenario dict from a recorded journal's meta header.

    Best-effort inverse of :meth:`~repro.core.fleet.FleetSession.
    _journal_meta` for runs built by :func:`session_from_scenario` (or
    shaped like them): camera count and frames come from the cameras
    list, the shape knobs from the first region (a scenario applies
    them to every region), the batching policy name is parsed off its
    parameterised ``describe()`` string, and the autoscaler — journaled
    by bare name — is rebuilt with default knobs.  One region named
    ``"default"`` is a scenario without a ``"regions"`` key, whose WAN
    gives the link overrides; any other region list recovers the
    selector and one WAN profile per region.  Raises
    :class:`ValueError` for journals whose camera list this module's
    cycles cannot express.
    """
    cameras = meta.get("cameras") or []
    if not cameras:
        raise ValueError("journal meta has no cameras")
    frames = {camera["frames"] for camera in cameras}
    if len(frames) != 1:
        raise ValueError(
            "cannot build a scenario from a journal with mixed per-camera "
            f"frame counts {sorted(frames)}"
        )
    if meta.get("faults") is None:
        raise ValueError("journal records a faults-off run; nothing to shrink")
    regions = meta["regions"]
    first = regions[0]
    scenario = {}
    if [region["name"] for region in regions] == ["default"]:
        defaults = WanProfile()
        for key in ("uplink_kbps", "downlink_kbps"):
            if first["wan"][key] != getattr(defaults, key):
                scenario[key] = first["wan"][key]
    else:
        # the outage process rides in the fault plan
        scenario["regions"] = {
            "selector": meta["selector"],
            "wan": [dict(region["wan"]) for region in regions],
        }
    batching = first["batching"]
    autoscaler_name = first["autoscaler"]
    return scenario | {
        "n_cameras": len(cameras),
        "num_frames": frames.pop(),
        "num_gpus": first["num_gpus"],
        "scheduler": first["scheduler"],
        "batching": None if batching is None else batching.split("(")[0],
        "autoscaler": (
            None
            if autoscaler_name == "none"
            else build_autoscaler(autoscaler_name).fingerprint()
        ),
        "fault_plan": dict(meta["faults"]),
    }
