"""Randomized simulation-invariant harness over the policy grid.

The scheduler × placement × autoscaler × worker-mix grid is now far too
large for per-policy golden pins, so this harness samples ~30 seeded
random fleet configurations across all four axes (plus revocation
processes and recovery modes) and checks each against the fleet's
conservation laws — frame and capacity conservation, monotone
timelines, never-reused worker ids — through the one oracle,
:func:`repro.testing.invariants.check_invariants`.  The chaos grids'
sampling contracts are guarded here too; their per-seed invariant cases
run in ``tests/core/test_faults.py``'s rotating seed window.

Each seed is an independent pytest case, so a failure names the exact
configuration (printed in the assertion message) to replay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CameraSpec, FleetSession
from repro.core.autoscaling import SloScaler, StepScaler
from repro.core.cluster import REVOCATION_MODES, RevocationProcess
from repro.core.federation import RegionSpec
from repro.core.scheduling import PLACEMENTS, SCHEDULERS, WORKER_TIERS
from repro.detection import StudentConfig, StudentDetector, TeacherConfig, TeacherDetector
from repro.runtime.events import Event, EventScheduler
from repro.testing import chaos_scenario, check_invariants
from repro.video import build_dataset

from test_scheduling import small_config

NUM_CONFIGS = 30
NUM_CHAOS_CONFIGS = 20
DATASETS = ["detrac", "kitti", "waymo", "stationary"]
STRATEGIES = ["shoggoth", "ams", "shoggoth", "shoggoth"]
TIERS = list(WORKER_TIERS.values())


def sample_config(seed: int) -> dict:
    """Draw one fleet configuration from the full policy grid."""
    rng = np.random.default_rng(1000 + seed)

    def pick(options):
        return options[int(rng.integers(len(options)))]

    num_gpus = int(rng.integers(1, 4))
    config = {
        "seed": seed,
        "scheduler": pick(sorted(SCHEDULERS)),
        "placement": pick(sorted(PLACEMENTS)),
        "num_gpus": num_gpus,
        "worker_specs": [pick(TIERS) for _ in range(num_gpus)],
        "revocation_mode": pick(REVOCATION_MODES),
        "n_cameras": int(rng.integers(3, 6)),
        "num_frames": 120,
    }
    has_spot = any(spec.preemptible for spec in config["worker_specs"])
    config["revocations"] = (
        RevocationProcess(
            mean_uptime_seconds=float(rng.uniform(1.5, 6.0)), seed=seed
        )
        if has_spot and rng.random() < 0.8
        else None
    )
    autoscaler = pick(["none", "none", "slo", "slo", "step"])
    if autoscaler == "slo":
        spot_out = rng.random() < 0.5
        config["autoscaler"] = SloScaler(
            slo_seconds=float(rng.uniform(0.05, 0.5)),
            interval_seconds=0.5,
            window_seconds=2.0,
            cooldown_seconds=0.5,
            min_gpus=1,
            max_gpus=num_gpus + 2,
            sustained_idle_ticks=2,
            scale_out_spec=WORKER_TIERS["spot"] if spot_out else None,
            revocation_headroom=1 if spot_out else 0,
        )
    elif autoscaler == "step":
        config["autoscaler"] = StepScaler(
            high_utilization=0.8,
            low_utilization=0.3,
            interval_seconds=0.5,
            cooldown_seconds=0.5,
            min_gpus=1,
            max_gpus=num_gpus + 2,
        )
    else:
        config["autoscaler"] = None
    return config


def run_config(config: dict):
    cameras = [
        CameraSpec(
            name=f"cam{i}",
            dataset=build_dataset(DATASETS[i % 4], num_frames=config["num_frames"]),
            strategy=STRATEGIES[i % 4],
            seed=i,
        )
        for i in range(config["n_cameras"])
    ]
    session = FleetSession(
        cameras,
        student=StudentDetector(StudentConfig(seed=5)),
        teacher=TeacherDetector(TeacherConfig(seed=9)),
        config=small_config(),
        regions=[
            RegionSpec(
                "default",
                num_gpus=config["num_gpus"],
                scheduler=config["scheduler"],
                placement=config["placement"],
                worker_specs=config["worker_specs"],
                revocations=config["revocations"],
                revocation_mode=config["revocation_mode"],
                autoscaler=config["autoscaler"],
            )
        ],
    )
    return session, session.run()


def describe(config: dict) -> str:
    """Replay line shown on any invariant failure."""
    mix = "+".join(spec.tier for spec in config["worker_specs"])
    scaler = config["autoscaler"].name if config["autoscaler"] else "none"
    revoker = (
        f"uptime~{config['revocations'].mean_uptime_seconds:.2f}s"
        if config["revocations"]
        else "none"
    )
    return (
        f"seed={config['seed']} scheduler={config['scheduler']} "
        f"placement={config['placement']} gpus={config['num_gpus']} "
        f"mix={mix} autoscaler={scaler} revocations={revoker} "
        f"mode={config['revocation_mode']} cams={config['n_cameras']}"
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_conservation_under_churn(seed):
    """Seeded event-kernel stress alongside the fleet invariants.

    Random schedule/cancel/pop interleavings must conserve events
    (scheduled == dispatched + cancelled, nothing lost or duplicated),
    keep the O(1) live counter exact at every step, and keep cancelled
    heap garbage bounded by the compaction threshold.
    """
    rng = np.random.default_rng(2000 + seed)
    scheduler = EventScheduler()
    live: list[Event] = []
    cancelled = 0
    dispatched = 0
    for _ in range(5000):
        roll = rng.random()
        if roll < 0.5 or not live:
            live.append(
                scheduler.schedule(
                    Event(time=scheduler.now + float(rng.uniform(0.0, 5.0)))
                )
            )
        elif roll < 0.8:
            victim = live.pop(int(rng.integers(len(live))))
            scheduler.cancel(victim)
            cancelled += 1
            # right after a cancel, garbage is bounded: either the heap
            # is below the compaction floor, or dead entries are <= half
            garbage = scheduler.heap_entries - len(scheduler)
            assert (
                scheduler.heap_entries < EventScheduler.COMPACTION_MIN_HEAP
                or garbage <= scheduler.heap_entries // 2
            ), f"seed {seed}: {garbage} dead of {scheduler.heap_entries} entries"
        else:
            popped = scheduler.pop()
            assert popped is not None and not popped.cancelled
            live.remove(popped)
            dispatched += 1
        assert len(scheduler) == len(live), "live counter drifted from reality"
    dispatched += sum(1 for _ in scheduler)
    assert scheduler.num_scheduled == dispatched + cancelled, (
        f"seed {seed}: {scheduler.num_scheduled} scheduled but "
        f"{dispatched} dispatched + {cancelled} cancelled"
    )
    assert scheduler.num_dispatched == dispatched
    assert len(scheduler) == 0 and scheduler.heap_entries == 0


@pytest.mark.parametrize("seed", range(NUM_CONFIGS))
def test_simulation_invariants(seed):
    config = sample_config(seed)
    session, result = run_config(config)
    failure = check_invariants(session, result)
    assert failure is None, f"{describe(config)}: invariant broken: {failure}"


def test_chaos_grid_covers_the_fault_axes():
    """The 20-seed window genuinely crosses every axis it claims to.

    Guards the sampling contract: if a draw change silently stopped
    producing autoscaled, batched, partitioned or crashing cells, the
    per-seed invariant cases in ``test_faults.py`` would go green while
    testing nothing.
    """
    scenarios = [
        chaos_scenario(seed, partitions=True, autoscaler=True)
        for seed in range(NUM_CHAOS_CONFIGS)
    ]
    axes = {
        "autoscaler": [bool(s["autoscaler"]) for s in scenarios],
        "batching": [bool(s["batching"]) for s in scenarios],
        "partitions": [
            s["fault_plan"]["mean_time_between_partitions"] is not None
            for s in scenarios
        ],
        "crashes": [
            s["fault_plan"]["mean_time_between_crashes"] is not None
            for s in scenarios
        ],
    }
    for axis, hits in axes.items():
        assert any(hits), f"no scenario in the window exercises {axis}"
        assert not all(hits), f"no scenario in the window runs without {axis}"
    assert any(
        all(column[i] for column in axes.values())
        for i in range(NUM_CHAOS_CONFIGS)
    ), "no scenario crosses autoscaler × batching × partitions × crashes"


def test_region_chaos_grid_covers_the_region_axes():
    """The federated 20-seed window genuinely varies the region axes.

    Same sampling-contract guard as the single-cluster grid: region
    count, selector choice, WAN egress pricing, the region-outage
    process and per-region WAN partitions must all actually appear in
    the window, and at least one cell crosses outages × partitions ×
    autoscaler × batching.
    """
    scenarios = [
        chaos_scenario(seed, partitions=True, autoscaler=True, regions=True)
        for seed in range(NUM_CHAOS_CONFIGS)
    ]
    assert all(s.get("regions") for s in scenarios)
    assert all(len(s["regions"]["wan"]) >= 2 for s in scenarios), (
        "a federated cell collapsed to a single region"
    )
    assert {len(s["regions"]["wan"]) for s in scenarios} >= {2, 3}
    assert len({s["regions"]["selector"] for s in scenarios}) >= 2, (
        "the window exercises only one region selector"
    )
    assert any(
        wan["cost_per_gb"] > 0.0 for s in scenarios for wan in s["regions"]["wan"]
    ), "no region in the window charges WAN egress"
    axes = {
        "region_outages": [
            s["fault_plan"]["mean_time_between_region_outages"] is not None
            for s in scenarios
        ],
        "partitions": [
            s["fault_plan"]["mean_time_between_partitions"] is not None
            for s in scenarios
        ],
    }
    for axis, hits in axes.items():
        assert any(hits), f"no federated scenario exercises {axis}"
        assert not all(hits), f"no federated scenario runs without {axis}"
    assert any(
        axes["region_outages"][i]
        and axes["partitions"][i]
        and scenarios[i]["autoscaler"]
        and scenarios[i]["batching"]
        for i in range(NUM_CHAOS_CONFIGS)
    ), "no cell crosses outages × partitions × autoscaler × batching"
