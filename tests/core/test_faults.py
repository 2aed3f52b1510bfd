"""Chaos suite: seeded fault plans vs. the fleet's conservation laws.

Each case runs a fleet under one seeded :class:`FaultPlan` — lossy /
duplicating / delaying link, edge retry-with-backoff, cloud-side dedup,
Poisson worker crashes with supervised recovery — and checks it with
the one invariant oracle, :func:`repro.testing.invariants.
check_invariants`: message and upload conservation, exactly-once
labeling, crash supervision, capacity conservation and the rest hold
*whatever* the faults do.  The same window runs over three axis sets:
the plain plan; partitions × autoscaler; and partitions × autoscaler ×
2–3 WAN-profiled regions with region outages.

The seed window rotates: ``REPRO_CHAOS_SEEDS`` sets how many plans run
(default 20; CI's nightly sweep widens it) and
``REPRO_CHAOS_SEED_OFFSET`` shifts the window (CI passes the run number
so successive nightlies explore fresh seeds).  Every failure names the
broken law, the plan and the shrinker command that minimises it; the
seed replays locally with
``REPRO_CHAOS_SEED_OFFSET=<seed> REPRO_CHAOS_SEEDS=1``.
"""

from __future__ import annotations

import os

import pytest

from repro.core import FaultPlan
from repro.core.faults import ReliableChannel
from repro.runtime.events import EventScheduler, RetryTimer
from repro.runtime.journal import EventJournal
from repro.testing import check_invariants
from repro.testing.scenarios import chaos_scenario, session_from_scenario

NUM_PLANS = int(os.environ.get("REPRO_CHAOS_SEEDS", "20"))
SEED_OFFSET = int(os.environ.get("REPRO_CHAOS_SEED_OFFSET", "0"))
SEEDS = [SEED_OFFSET + index for index in range(NUM_PLANS)]


def chaos_test(*flags: str):
    """The window's invariant test for one axis set of chaos draws.

    ``flags`` are the :func:`~repro.testing.scenarios.chaos_scenario`
    axes (``"partitions"``, ``"autoscaler"``, ``"regions"``), which are
    also the shrinker CLI's flags, so a failing seed minimises directly
    with ``python -m repro.testing.shrink --<flag>... <seed>``.
    """
    cli_flags = [f"--{flag}" for flag in flags]

    @pytest.mark.parametrize("seed", SEEDS)
    def test(seed):
        session = session_from_scenario(
            chaos_scenario(seed, **{flag: True for flag in flags})
        )
        failure = check_invariants(session, session.run())
        shrink = " ".join(["python -m repro.testing.shrink", *cli_flags, str(seed)])
        assert failure is None, (
            f"chaos seed {seed} broke the {failure!r} invariant "
            f"(plan[{session.faults.describe()}]); minimise with: {shrink}"
        )

    return test


test_chaos_invariants = chaos_test()
test_chaos_autoscaler_invariants = chaos_test("partitions", "autoscaler")
test_chaos_invariants_multi_region = chaos_test("partitions", "autoscaler", "regions")


def test_faults_off_runs_report_no_fault_activity(fleet_factory):
    """A plain fleet run carries all-default fault fields."""
    result = fleet_factory(
        n_cameras=2, num_frames=60, datasets=["detrac"], strategies=["shoggoth"]
    ).run()
    assert result.fault_plan == "none"
    assert result.num_crashes == 0 and not result.crash_records
    assert result.num_lost_messages == 0
    assert result.num_retries == 0 and result.num_duplicate_drops == 0
    assert result.num_messages_sent == 0 and result.label_loss_fraction == 0.0


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_chaos_runs_are_deterministic_and_replayable(seed):
    """Same plan + same fleet -> byte-identical journals and exact replay."""

    def build():
        return session_from_scenario(chaos_scenario(seed))

    first, second = EventJournal(), EventJournal()
    result = build().run(journal=first)
    build().run(journal=second)
    assert first.serialize() == second.serialize(), (
        f"seed {seed}: two identical chaos runs produced different journals"
    )
    report = first.replay(build)
    assert report.result.fingerprint() == result.fingerprint(), (
        f"seed {seed}: journal replay landed on a different result"
    )


def test_plan_validation_rejects_bad_parameters():
    with pytest.raises(ValueError, match="loss_rate"):
        FaultPlan(loss_rate=1.5)
    with pytest.raises(ValueError, match="must not exceed 1"):
        FaultPlan(loss_rate=0.5, duplicate_rate=0.4, delay_rate=0.3)
    with pytest.raises(ValueError, match="retry_backoff"):
        FaultPlan(retry_backoff=0.5)
    with pytest.raises(ValueError, match="max_attempts"):
        FaultPlan(max_attempts=0)
    with pytest.raises(ValueError, match="mean_time_between_crashes"):
        FaultPlan(mean_time_between_crashes=-1.0)
    with pytest.raises(ValueError, match="crash_recovery"):
        FaultPlan(crash_recovery="reboot")


def test_plan_draws_are_reproducible():
    first, second = FaultPlan(seed=4, loss_rate=0.3), FaultPlan(seed=4, loss_rate=0.3)
    assert [first.draw_verdict() for _ in range(50)] == [
        second.draw_verdict() for _ in range(50)
    ]
    plan = FaultPlan(seed=4, mean_time_between_crashes=1.0)
    assert plan.draw_crash_times(30.0) == plan.draw_crash_times(30.0)
    # crash draws must not perturb the message verdict stream
    with_crashes = FaultPlan(seed=4, loss_rate=0.3, mean_time_between_crashes=1.0)
    with_crashes.draw_crash_times(30.0)
    first.reset()
    assert [with_crashes.draw_verdict() for _ in range(20)] == [
        first.draw_verdict() for _ in range(20)
    ]


def test_reliable_channel_dedup_and_abandonment():
    """Channel unit semantics, no fleet needed: retry, dedup, abandon."""
    plan = FaultPlan(seed=0, retry_timeout_seconds=1.0, max_attempts=2)
    channel = ReliableChannel(plan)
    scheduler = EventScheduler()
    attempts: list[tuple[float, int]] = []
    message_id = channel.send(
        scheduler, "upload", 0, lambda at, mid: attempts.append((at, mid)), now=0.0
    )
    assert attempts == [(0.0, message_id)]
    assert channel.num_in_flight == 1

    # first delivery acks (cancelling the timer); the second is dropped
    assert channel.accept(message_id, scheduler)
    assert not channel.accept(message_id, scheduler)
    assert channel.num_duplicate_drops == 1
    assert channel.num_in_flight == 0
    assert len(scheduler) == 0, "delivery must cancel the pending retry timer"

    # untracked (faults-off) ids always pass
    assert channel.accept(-1, scheduler) and channel.accept(-1, scheduler)

    # an unacked message retries once, then is abandoned on the next timer
    lost_id = channel.send(
        scheduler, "labels", 1, lambda at, mid: attempts.append((at, mid)), now=0.0
    )
    first_timer = scheduler.pop()
    assert isinstance(first_timer, RetryTimer)
    channel.on_timer(first_timer, scheduler)
    assert channel.num_retries == 1
    second_timer = scheduler.pop()
    channel.on_timer(second_timer, scheduler)
    assert channel.abandoned_by_kind["labels"] == 1
    # a late copy of the abandoned id is dropped, not resurrected
    assert not channel.accept(lost_id, scheduler)
    assert channel.num_late_drops == 1
    # a stale timer (attempt number superseded) is ignored
    channel.on_timer(first_timer, scheduler)
    assert channel.num_retries == 1


def test_run_fleet_folds_a_ready_link_as_its_config():
    """A ready link is built afresh from its config, so a fault plan can
    wrap it: the run equals one given the config, and loses messages."""
    from repro.detection import StudentConfig, StudentDetector
    from repro.eval import ExperimentSettings, run_fleet
    from repro.network.link import LinkConfig, SharedLink
    from repro.testing.scenarios import build_cameras, small_fleet_config

    config = LinkConfig(uplink_kbps=3_000.0)
    journals = []
    for link in ({"link": SharedLink(config)}, {"link_config": config}):
        journals.append(EventJournal())
        result = run_fleet(
            build_cameras(2, 90, datasets=["detrac"]),
            StudentDetector(StudentConfig(seed=5)),
            settings=ExperimentSettings(num_frames=90, replay_seed_images=0),
            config=small_fleet_config(),
            faults=FaultPlan(seed=0, loss_rate=0.5),
            journal=journals[-1],
            **link,
        )
        assert result.fleet.num_lost_messages > 0
    assert journals[0].serialize() == journals[1].serialize()
    assert journals[0].meta["regions"][0]["wan"]["uplink_kbps"] == 3_000.0
