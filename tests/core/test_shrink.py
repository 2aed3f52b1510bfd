"""Chaos shrinker tests: convergence, determinism, budget, CLI.

The shrinker is exercised against a *planted* invariant-violating bug
(``"dedup_off"`` — the cloud dedup gate waved duplicates through,
breaking upload conservation), so these tests can watch it minimise a
real failure without depending on any actual bug existing: with the
flag planted a hostile scenario goes red, and the shrinker must walk it
down to a minimal case — autoscaler/batching/crashes/partitions all
stripped, retry budget at its floor, at most the fault rates the
failure genuinely needs — the same way on every run.  The oracle
itself is pinned law by law: a result doctored to break one law must
fail with exactly that law's signature.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.faults import PLANTED_BUGS
from repro.runtime.journal import EventJournal, canonical_dumps
from repro.testing import (
    ChaosShrinker,
    chaos_scenario,
    check_invariants,
    run_scenario,
    scenario_from_journal_meta,
    session_from_scenario,
)
from repro.testing.scenarios import MIN_FRAMES
from repro.testing.shrink import main, planted, write_fixture

from test_invariants import run_config, sample_config

#: a seed whose chaos draw fails under the planted dedup bug (its plan
#: draws a meaningful duplicate_rate); pinned by the probe test below
FAILING_SEED = 0
#: a seed whose chaos draw stays green even under the planted bug (its
#: duplicate draw is too small to ever double-handle an upload)
PASSING_SEED = 4


def hostile_scenario() -> dict:
    """The failing starting point the convergence tests minimise."""
    return chaos_scenario(FAILING_SEED, partitions=True, autoscaler=True)


def test_planted_bug_context_is_scoped():
    assert "dedup_off" not in PLANTED_BUGS
    with planted("dedup_off"):
        assert "dedup_off" in PLANTED_BUGS
    assert "dedup_off" not in PLANTED_BUGS
    with planted(None):
        assert not PLANTED_BUGS


def test_seed_probes_pin_the_test_vocabulary():
    """The seeds these tests rely on behave as documented."""
    failure, events, _ = run_scenario(hostile_scenario(), "dedup_off")
    assert failure == "upload_conservation" and events > 0
    passing = chaos_scenario(PASSING_SEED, partitions=True, autoscaler=True)
    assert run_scenario(passing, "dedup_off")[0] is None
    # and without the planted bug the hostile scenario is healthy too
    assert run_scenario(hostile_scenario())[0] is None


def journaled_meta(scenario: dict) -> dict:
    """The journal header of one run of ``scenario``."""
    journal = EventJournal()
    session_from_scenario(scenario).run(journal=journal)
    return journal.meta


@pytest.mark.parametrize("regions", [False, True], ids=["one_region", "regions"])
@pytest.mark.parametrize("seed", range(8))
def test_scenario_recovered_from_a_journal_journals_the_same_header(seed, regions):
    """The shrinker's journal input: the header names the run exactly."""
    scenario = chaos_scenario(seed, partitions=True, autoscaler=True, regions=regions)
    scenario["num_frames"] = MIN_FRAMES
    meta = journaled_meta(scenario)
    assert journaled_meta(scenario_from_journal_meta(meta)) == meta


def test_scenario_recovered_from_a_journal_keeps_its_link_overrides():
    scenario = chaos_scenario(1, partitions=True) | {
        "num_frames": MIN_FRAMES,
        "uplink_kbps": 640_000.0,
        "downlink_kbps": 1_280_000.0,
    }
    recovered = scenario_from_journal_meta(journaled_meta(scenario))
    assert recovered == scenario


@pytest.fixture(scope="module")
def clean_run():
    """One short chaos run that passes every law (for doctoring)."""
    scenario = chaos_scenario(PASSING_SEED, partitions=True, autoscaler=True)
    scenario["n_cameras"], scenario["num_frames"] = 2, 40
    session = session_from_scenario(scenario)
    result = session.run()
    assert check_invariants(session, result) is None
    return session, result


@pytest.fixture(scope="module")
def crash_run():
    """A short federated chaos run with checkpointed crash restarts."""
    scenario = chaos_scenario(19, partitions=True, autoscaler=True, regions=True)
    scenario["n_cameras"], scenario["num_frames"] = 2, 40
    session = session_from_scenario(scenario)
    result = session.run()
    assert check_invariants(session, result) is None
    assert result.crash_records and result.region_metrics
    assert session.faults.crash_recovery == "checkpoint"
    return session, result


@pytest.fixture(scope="module")
def spot_run():
    """A faults-off grid config with spot revocations and scaling events."""
    session, result = run_config(sample_config(20))
    assert check_invariants(session, result) is None
    assert len(session.cluster.revocation_log) >= 2
    return session, result


def test_oracle_accepts_a_faults_off_run(fleet_factory):
    session = fleet_factory(n_cameras=2, num_frames=40)
    assert check_invariants(session, session.run()) is None


def bump(field: str):
    """A doctor raising one result field by one."""
    return lambda s, r, patch: dataclasses.replace(r, **{field: getattr(r, field) + 1})


def bump_region(key: str):
    """A doctor raising region 0's ``key`` metric by one."""

    def doctor(session, result, patch):
        first, *rest = result.region_metrics
        metrics = [{**first, key: first[key] + 1}, *rest]
        return dataclasses.replace(result, region_metrics=metrics)

    return doctor


def edit(target, attr: str, change):
    """A doctor setting ``target(session).attr`` to ``change(old value)``."""

    def doctor(session, result, patch):
        record = target(session)
        patch(record, attr, change(getattr(record, attr)))

    return doctor


def busiest(session):
    """The worker with the longest completion log."""
    workers = [w for cluster in session.clusters for w in cluster.workers]
    return max(workers, key=lambda worker: len(worker.completed_jobs))


def crashed(session):
    """The first cluster that logged a crash."""
    return next(cluster for cluster in session.clusters if cluster.crash_log)


def busy_past_the_end(session, result, patch):
    """A still-provisioned worker kept busy long after the run ended."""
    worker = next(w for w in session.cluster.workers if w.retired_at is None)
    patch(worker, "busy_until", worker.busy_until + 100.0)
    patch(worker, "busy_seconds", worker.busy_seconds + 50.0)


def revoked(session):
    """The first spot worker a revocation hit."""
    return session.cluster.workers[session.cluster.revocation_log[0].worker_id]


def reverse(items):
    return items[::-1]


def first_crash(**changes):
    """A crash-log edit replacing fields of its first record."""
    return lambda log: [dataclasses.replace(log[0], **changes), *log[1:]]


#: (signature, run fixture, doctor): each doctor breaks exactly one law,
#: either returning a replaced result or editing one record in place
#: through ``patch`` (``monkeypatch.setattr``, undone after the case)
DOCTORED = [
    ("revocation_counter", "clean_run", bump("num_relabeled_jobs")),
    ("tier_split", "clean_run", bump("gpu_seconds_provisioned")),
    ("completion_order", "clean_run", edit(busiest, "completed_jobs", reverse)),
    (
        "provision_timeline",
        "clean_run",
        edit(lambda s: s.cluster, "_provision_log", lambda log: [(0.0, -1), *log]),
    ),
    (
        "revocation_log_order",
        "spot_run",
        edit(lambda s: s.cluster, "revocation_log", reverse),
    ),
    ("revocation_victim_state", "spot_run", edit(revoked, "revoked", lambda _: False)),
    ("repeat_crash", "crash_run", edit(crashed, "crash_log", lambda log: [log[0], *log])),
    ("crash_mode", "crash_run", edit(crashed, "crash_log", first_crash(mode="reboot"))),
    (
        "crash_without_replacement",
        "crash_run",
        edit(crashed, "crash_log", first_crash(replacement_id=None)),
    ),
    (
        "scaling_event_order",
        "spot_run",
        edit(lambda s: s.federation.regions[0].controller, "events", reverse),
    ),
    ("capacity_within_run", "spot_run", busy_past_the_end),
    ("revocation_without_record", "clean_run", bump("wasted_gpu_seconds")),
    ("crash_without_record", "clean_run", bump("crash_wasted_gpu_seconds")),
    ("checkpoint_waste", "crash_run", bump("crash_wasted_gpu_seconds")),
    (
        "worker_specs_count",
        "clean_run",
        lambda s, r, patch: dataclasses.replace(r, worker_specs=r.worker_specs[1:]),
    ),
    ("completion_count", "clean_run", edit(busiest, "completed_jobs", lambda j: j[1:])),
    ("wan_cost_split", "crash_run", bump("wan_dollar_cost")),
    ("camera_homing", "crash_run", bump_region("num_cameras_homed")),
    ("migration_balance", "crash_run", bump_region("num_migrations_in")),
]


@pytest.mark.parametrize(
    "signature, run, doctor", DOCTORED, ids=[row[0] for row in DOCTORED]
)
def test_oracle_names_the_broken_law(signature, run, doctor, request, monkeypatch):
    """A result doctored to break one law fails with that law's signature."""
    session, result = request.getfixturevalue(run)
    doctored = doctor(session, result, monkeypatch.setattr) or result
    assert check_invariants(session, doctored) == signature


@pytest.mark.parametrize(
    "signature, doctor",
    [
        ("wan_cost_split", bump("wan_dollar_cost")),
        ("camera_homing", bump_region("num_cameras_homed")),
        ("migration_balance", bump_region("num_migrations_in")),
    ],
    ids=["wan_cost_split", "camera_homing", "migration_balance"],
)
def test_region_laws_check_one_region_runs(signature, doctor, clean_run):
    """A one-region fleet reports its region too, and the laws read it."""
    session, result = clean_run
    assert len(result.region_metrics) == 1
    assert check_invariants(session, doctor(session, result, None)) == signature


def test_passing_config_reports_no_failure_found():
    scenario = chaos_scenario(PASSING_SEED, partitions=True, autoscaler=True)
    shrinker = ChaosShrinker(scenario, budget=3, planted_bug="dedup_off")
    assert shrinker.shrink() is None


def test_shrinker_converges_to_a_minimal_case():
    """Every axis the failure does not need ends at its floor."""
    fixture = ChaosShrinker(
        hostile_scenario(), budget=150, planted_bug="dedup_off"
    ).shrink()
    assert fixture is not None
    assert fixture["failure"] == "upload_conservation"
    scenario = fixture["scenario"]
    plan = scenario["fault_plan"]
    # upload conservation only needs duplicated deliveries: everything
    # else must have been stripped or floored
    assert scenario["autoscaler"] is None
    assert scenario["batching"] is None
    assert plan["mean_time_between_crashes"] is None
    assert plan["mean_time_between_partitions"] is None
    assert plan["max_attempts"] == 1
    assert plan["duplicate_rate"] > 0.0
    nonzero = [
        rate
        for rate in ("loss_rate", "duplicate_rate", "delay_rate")
        if plan[rate] > 0.0
    ]
    assert len(nonzero) <= 2, f"shrink left {nonzero} rates non-zero"
    assert scenario["n_cameras"] <= hostile_scenario()["n_cameras"]
    assert (
        fixture["shrunk"]["num_events"] <= fixture["original"]["num_events"]
    )
    # the shrunk case still fails exactly the recorded way
    assert (
        run_scenario(scenario, fixture["planted_bug"])[0] == fixture["failure"]
    )


def test_shrinking_is_deterministic():
    """Same failing input -> byte-identical fixture, same run count."""
    first = ChaosShrinker(hostile_scenario(), budget=60, planted_bug="dedup_off")
    second = ChaosShrinker(hostile_scenario(), budget=60, planted_bug="dedup_off")
    fixture_a, fixture_b = first.shrink(), second.shrink()
    assert canonical_dumps(fixture_a) == canonical_dumps(fixture_b)
    assert first.runs == second.runs


def test_budget_bounds_simulation_runs():
    shrinker = ChaosShrinker(
        hostile_scenario(), budget=5, planted_bug="dedup_off"
    )
    fixture = shrinker.shrink()
    # even out of budget the shrinker returns its best-so-far fixture
    assert fixture is not None and fixture["failure"] == "upload_conservation"
    assert shrinker.runs <= 5
    with pytest.raises(ValueError, match="budget"):
        ChaosShrinker(hostile_scenario(), budget=0)


def test_construction_errors_shrink_as_exception_failures():
    """A scenario that cannot even build is a failure, not a crash."""
    scenario = hostile_scenario()
    scenario["autoscaler"] = {
        "name": "step",
        "interval_seconds": 2.0,
        "window_seconds": 6.0,
        "min_gpus": scenario["num_gpus"] + 5,
        "max_gpus": scenario["num_gpus"] + 6,
        "cooldown_seconds": 3.0,
        "high_utilization": 0.85,
        "low_utilization": 0.3,
    }
    failure, events, _ = run_scenario(scenario)
    assert failure == "exception:ValueError" and events == 0
    fixture = ChaosShrinker(scenario, budget=30).shrink()
    assert fixture is not None
    assert fixture["failure"] == "exception:ValueError"
    # the broken autoscaler is the failure: it must survive the shrink
    assert fixture["scenario"]["autoscaler"] is not None


def test_fixture_round_trips_canonically(tmp_path):
    fixture = ChaosShrinker(
        hostile_scenario(), budget=20, planted_bug="dedup_off"
    ).shrink()
    path = write_fixture(fixture, str(tmp_path))
    raw = open(path, encoding="utf-8").read()
    assert raw == canonical_dumps(json.loads(raw)) + "\n"
    assert json.loads(raw) == fixture
    # idempotent: re-writing the same fixture lands on the same file
    assert write_fixture(fixture, str(tmp_path)) == path
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_cli_shrinks_a_seed_into_a_fixture(tmp_path, capsys):
    code = main(
        [
            str(FAILING_SEED),
            "--partitions",
            "--autoscaler",
            "--planted-bug",
            "dedup_off",
            "--budget",
            "30",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    written = list(tmp_path.glob("*.json"))
    assert len(written) == 1
    fixture = json.loads(written[0].read_text())
    assert fixture["kind"] == "chaos_regression"
    assert fixture["failure"] == "upload_conservation"
    assert "upload_conservation" in capsys.readouterr().out


def test_cli_reports_no_failure_found(tmp_path, capsys):
    code = main(
        [
            str(PASSING_SEED),
            "--partitions",
            "--autoscaler",
            "--planted-bug",
            "dedup_off",
            "--budget",
            "3",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 2
    assert "no failure found" in capsys.readouterr().out
    assert not list(tmp_path.glob("*.json"))
