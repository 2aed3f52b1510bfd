"""Determinism gate: identical runs -> identical journals -> exact replay.

This is the test CI's ``determinism`` job runs on every push.  It
asserts the control plane's reproducibility contract end to end:

* two fleet runs with identical configuration produce **byte-identical**
  serialized journals (canonical JSON + shortest-roundtrip floats);
* replaying a journal re-executes the run event-for-event and lands on
  the *same* :class:`~repro.core.fleet.FleetResult` fingerprint as the
  live run — for the faults-off fleet and for a chaos fleet alike;
* attaching a journal is observation-only: the journaled run's result
  is bit-for-bit the un-journaled run's result (the golden pins in
  ``test_scheduling.py`` then anchor that result across PRs).

On failure each check dumps the offending journal(s) to
``REPRO_JOURNAL_ARTIFACT_DIR`` (when set — CI sets it and uploads the
directory as an artifact), so a red determinism job ships the exact
event trace needed to bisect the divergence locally via
``EventJournal.load(...).replay(...)``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core import FaultPlan, FleetSession
from repro.core.federation import RegionSpec
from repro.eval import ExperimentSettings, fleet_fingerprint, run_fleet
from repro.runtime.journal import EventJournal
from repro.detection import (
    StudentConfig,
    StudentDetector,
    TeacherConfig,
    TeacherDetector,
    generate_offline_dataset,
)
from repro.testing.scenarios import build_cameras, small_fleet_config

SEED = 11


def dump_on_failure(name: str, *journals: EventJournal) -> str:
    """Persist journals for CI artifact upload; returns a hint string."""
    directory = os.environ.get("REPRO_JOURNAL_ARTIFACT_DIR")
    if not directory:
        return "(set REPRO_JOURNAL_ARTIFACT_DIR to dump the journals)"
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, journal in enumerate(journals):
        path = target / f"{name}.{index}.journal.json"
        journal.save(path)
        paths.append(str(path))
    return f"journals dumped to {paths}"


def build_fleet(faults: FaultPlan | None = None) -> FleetSession:
    """One deterministic mixed fleet; every call builds it identically."""
    return FleetSession(
        build_cameras(
            3,
            90,
            datasets=["detrac", "kitti", "waymo"],
            strategies=["shoggoth", "ams", "shoggoth"],
            seed_base=SEED,
        ),
        student=StudentDetector(StudentConfig(seed=5)),
        teacher=TeacherDetector(TeacherConfig(seed=9)),
        config=small_fleet_config(),
        regions=[
            RegionSpec(
                "default", num_gpus=2, placement="least_loaded", scheduler="staleness"
            )
        ],
        faults=faults,
    )


def chaos_plan() -> FaultPlan:
    return FaultPlan(
        seed=SEED,
        loss_rate=0.12,
        duplicate_rate=0.08,
        delay_rate=0.1,
        mean_delay_seconds=0.6,
        retry_timeout_seconds=0.6,
        max_attempts=3,
        mean_time_between_crashes=5.0,
    )


def test_identical_runs_produce_byte_identical_journals():
    first, second = EventJournal(), EventJournal()
    build_fleet().run(journal=first)
    build_fleet().run(journal=second)
    assert first.serialize() == second.serialize(), (
        "two identical faults-off runs diverged; "
        + dump_on_failure("faults_off_divergence", first, second)
    )


def test_replay_matches_the_live_result():
    journal = EventJournal()
    live = build_fleet().run(journal=journal)
    report = journal.replay(build_fleet)
    assert not report.halted and report.events_checked == journal.num_events
    assert fleet_fingerprint(report.result) == fleet_fingerprint(live), (
        "journal replay landed on a different result than the live run; "
        + dump_on_failure("replay_divergence", journal)
    )


def test_journal_round_trips_through_disk_before_replay(tmp_path):
    journal = EventJournal()
    live = build_fleet().run(journal=journal)
    path = tmp_path / "run.journal.json"
    journal.save(path)
    report = EventJournal.load(path).replay(build_fleet)
    assert fleet_fingerprint(report.result) == fleet_fingerprint(live)


def test_chaos_run_is_byte_stable_and_replayable():
    first, second = EventJournal(), EventJournal()
    live = build_fleet(chaos_plan()).run(journal=first)
    build_fleet(chaos_plan()).run(journal=second)
    assert first.serialize() == second.serialize(), (
        "two identical chaos runs diverged; "
        + dump_on_failure("chaos_divergence", first, second)
    )
    report = first.replay(lambda: build_fleet(chaos_plan()))
    assert fleet_fingerprint(report.result) == fleet_fingerprint(live), (
        "chaos replay landed on a different result; "
        + dump_on_failure("chaos_replay_divergence", first)
    )
    # the chaos run actually exercised the fault machinery
    assert live.num_messages_sent > 0


def test_journaling_is_observation_only():
    """Attaching a journal must not perturb the simulation at all."""
    bare = build_fleet().run()
    journaled = build_fleet().run(journal=EventJournal())
    assert fleet_fingerprint(bare) == fleet_fingerprint(journaled)


def test_mid_run_prefix_replay_stops_cleanly():
    journal = EventJournal()
    build_fleet().run(journal=journal)
    stop_after = journal.num_events // 3
    report = journal.replay(build_fleet, stop_after=stop_after)
    assert report.halted and report.result is None
    assert report.events_checked == stop_after
    assert report.last_record is not None
    assert report.last_record["seq"] == stop_after - 1


def build_batched_fleet() -> FleetSession:
    """A latency-budget batched fleet: guarantees BatchTimeout events."""
    return FleetSession(
        build_cameras(
            3,
            90,
            datasets=["detrac", "kitti", "waymo"],
            strategies=["shoggoth", "ams", "shoggoth"],
            seed_base=SEED,
        ),
        student=StudentDetector(StudentConfig(seed=5)),
        teacher=TeacherDetector(TeacherConfig(seed=9)),
        config=small_fleet_config(),
        regions=[
            RegionSpec(
                "default", num_gpus=2, placement="least_loaded", batching="latency_budget"
            )
        ],
    )


def build_spot_fleet() -> FleetSession:
    """A revocable spot fleet: guarantees RevocationEvent events."""
    from repro.core.cluster import RevocationProcess
    from repro.core.scheduling import WORKER_TIERS

    return FleetSession(
        build_cameras(
            3,
            90,
            datasets=["detrac", "kitti", "waymo"],
            strategies=["shoggoth", "ams", "shoggoth"],
            seed_base=SEED,
        ),
        student=StudentDetector(StudentConfig(seed=5)),
        teacher=TeacherDetector(TeacherConfig(seed=9)),
        config=small_fleet_config(),
        regions=[
            RegionSpec(
                "default",
                num_gpus=2,
                worker_specs=[WORKER_TIERS["spot"], WORKER_TIERS["spot"]],
                revocations=RevocationProcess(mean_uptime_seconds=2.0, seed=3),
            )
        ],
    )


def assert_clean_halt_at(journal: EventJournal, build, boundary: int) -> None:
    """Truncated replay must halt exactly at ``boundary``, touching nothing past it.

    If a stale timer (a cancelled or superseded BatchTimeout, a
    revocation's pending restore) fired anyway, the replayed run would
    dispatch an event the journal never recorded — surfacing as a
    divergence or an events_checked drift, both asserted here.
    """
    report = journal.replay(build, stop_after=boundary)
    assert report.halted and report.result is None
    assert report.events_checked == boundary
    if boundary > 0:
        assert report.last_record is not None
        assert report.last_record["seq"] == boundary - 1


@pytest.mark.parametrize(
    ("builder", "event_type"),
    [
        (build_batched_fleet, "BatchTimeout"),
        (build_spot_fleet, "RevocationEvent"),
    ],
    ids=["batch_timeout", "revocation"],
)
def test_prefix_replay_truncates_cleanly_at_timer_boundaries(builder, event_type):
    """Halting right at / right after a timer event leaves no stale timers.

    BatchTimeout dispatches are generation-guarded and RevocationEvents
    cancel-and-restore in their handlers; truncating the replay exactly
    *at* such an event (the handler never runs) and exactly *after* it
    (the handler is the last thing that runs) are the two boundary
    cases where a leaked timer would fire into the truncated prefix.
    The same journal must then still replay in full, event-for-event —
    truncation is read-only.
    """
    journal = EventJournal()
    builder().run(journal=journal)
    seqs = [
        record["seq"]
        for record in journal.records
        if record["type"] == event_type
    ]
    assert seqs, f"fleet produced no {event_type} events to truncate at"
    boundary = seqs[len(seqs) // 2]
    assert_clean_halt_at(journal, builder, boundary)
    assert_clean_halt_at(journal, builder, boundary + 1)
    full = journal.replay(builder)
    assert not full.halted and full.events_checked == journal.num_events


def test_replay_seeded_run_journals_and_replays_to_the_live_result():
    """A replay seed's arrays are journaled as a digest, not raw ndarrays."""
    settings = ExperimentSettings(num_frames=60, eval_stride=5, replay_seed_images=4, seed=2)
    config = small_fleet_config()

    def cameras():
        return build_cameras(
            2, 60, datasets=["detrac", "kitti"], strategies=["shoggoth", "ams"], seed_base=SEED
        )

    def build(replay_seed) -> FleetSession:
        return FleetSession(
            cameras(),
            student=StudentDetector(StudentConfig(seed=5)),
            teacher=TeacherDetector(TeacherConfig(seed=settings.seed + 7)),
            config=config,
            replay_seed=replay_seed,
        )

    journal = EventJournal()
    live = run_fleet(
        cameras(), StudentDetector(StudentConfig(seed=5)), settings=settings,
        config=config, journal=journal,
    )
    images, labels = generate_offline_dataset(4, seed=settings.seed + 900)
    report = journal.replay(lambda: build((images, labels)))
    assert not report.halted and report.events_checked == journal.num_events
    assert fleet_fingerprint(report.result) == fleet_fingerprint(live.fleet)

    digest = journal.meta["replay_seed"]
    changed = images.copy()
    changed[0, 0, 0, 0] += 1e-9
    assert build((changed, labels))._journal_meta()["replay_seed"] != digest
    # without a replay seed the header keeps its committed form
    assert build(None)._journal_meta()["replay_seed"] is None


def test_replay_rejects_a_differently_configured_session():
    from repro.runtime.journal import JournalDivergence

    journal = EventJournal()
    build_fleet().run(journal=journal)
    with pytest.raises(JournalDivergence, match="configured differently"):
        journal.replay(lambda: build_fleet(chaos_plan()))
