"""Chaos shrinker: minimise a failing chaos case into a tiny fixture.

A failing chaos seed hands the developer a hostile
:class:`~repro.core.faults.FaultPlan` and a huge journal.  The
:class:`ChaosShrinker` closes that loop QuickCheck-style: starting from
the failing scenario it greedily minimises along independent axes —
toggling the autoscaler / batching / crash / partition machinery off,
un-federating a multi-region scenario (drop the regions, else collapse
to one region and zero the outage rates),
binary-searching the camera count, per-camera frames and GPU count
down, binary-searching each fault rate toward zero, and (for
crash-mode failures) bisecting the journal ``stop_after`` replay
prefix — re-running the deterministic simulation at every step and
keeping any candidate that still fails *the same way*, until a fixed
point or the run budget (``REPRO_SHRINK_BUDGET``) is spent.

The result serialises (canonical JSON, like the journal) into
``tests/fixtures/regressions/*.json``, which
``tests/core/test_regressions.py`` auto-discovers and replays as
permanent tier-1 regression tests.  The CLI::

    python -m repro.testing.shrink <chaos-seed | journal.json> [--out DIR]
    python -m repro.testing.shrink --sweep         # CI: shrink the
                                                   # REPRO_CHAOS_* window

Everything is deterministic: the shrinker draws no randomness of its
own, so the same failing input always minimises to the same fixture.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import Iterator

from repro.core.faults import PLANTED_BUGS
from repro.runtime.journal import (
    EventJournal,
    JournalError,
    canonical_dumps,
    stable_digest,
)
from repro.testing.scenarios import (
    MIN_FRAMES,
    chaos_scenario,
    scenario_from_journal_meta,
    session_from_scenario,
)

__all__ = [
    "ChaosShrinker",
    "check_invariants",
    "run_scenario",
    "planted",
    "write_fixture",
    "main",
    "DEFAULT_BUDGET",
    "FIXTURE_VERSION",
]

#: default simulation-run budget when ``REPRO_SHRINK_BUDGET`` is unset
DEFAULT_BUDGET = 200

#: regression-fixture format version; bumped on any layout change
FIXTURE_VERSION = 1

#: where regression fixtures live, relative to the repo root
DEFAULT_FIXTURE_DIR = os.path.join("tests", "fixtures", "regressions")


@contextmanager
def planted(flag: str | None) -> Iterator[None]:
    """Temporarily plant a bug flag in :data:`~repro.core.faults.PLANTED_BUGS`.

    ``None`` is a no-op.  Used by the shrinker (and the regression
    replayer) so a fixture minimised against a planted bug reproduces
    red with the flag and green without — never leaking the flag into
    other runs.
    """
    if flag is None:
        yield
        return
    PLANTED_BUGS.add(flag)
    try:
        yield
    finally:
        PLANTED_BUGS.discard(flag)


def check_invariants(session, result) -> str | None:
    """The fleet's conservation laws as a failure oracle.

    Returns ``None`` when every invariant holds, else a short stable
    failure signature naming the first broken law — the same laws the
    chaos suite asserts (message conservation, upload conservation,
    exactly-once completion, crash and revocation supervision,
    capacity conservation and its per-tier split, never-reused worker
    ids, and dollar-cost closure across compute and WAN egress),
    packaged so the shrinker and the regression replayer agree exactly
    on what "fails" means.  Per-cluster laws run over
    ``session.clusters`` (one entry per region).
    """
    if result.num_messages_in_flight != 0:
        return "messages_outstanding"
    if (
        result.num_messages_delivered + result.num_abandoned_messages
        != result.num_messages_sent
    ):
        return "message_conservation"
    for kind, abandoned in result.abandoned_by_kind.items():
        if not 0 <= abandoned <= result.sends_by_kind[kind]:
            return "abandoned_out_of_range"
    sent_uploads = result.sends_by_kind["upload"]
    labeled = len(result.queue_waits)
    if (
        labeled + result.num_rejected_uploads + result.num_abandoned_uploads
        != sent_uploads
    ):
        return "upload_conservation"
    if not 0.0 <= result.label_loss_fraction <= 1.0:
        return "label_loss_fraction"
    completed = [
        job
        for cluster in session.clusters
        for worker in cluster.workers
        for job in worker.completed_jobs
    ]
    if len({id(job) for job in completed}) != len(completed):
        return "duplicate_completion"
    if any(job.wait_seconds < -1e-9 for job in completed):
        return "negative_queue_delay"
    if result.num_crash_recovered_jobs != sum(
        record.jobs_in_flight for record in result.crash_records
    ):
        return "crash_counter"
    if result.num_relabeled_jobs + result.num_checkpoint_resumed_jobs != sum(
        record.jobs_in_flight for record in result.revocation_records
    ):
        return "revocation_counter"
    capacity = result.gpu_seconds_provisioned
    tiers = sum(result.gpu_seconds_by_tier.values())
    if abs(tiers - capacity) > 1e-6 * max(1.0, capacity):
        return "tier_split"
    for cluster in session.clusters:
        crash_times = [record.time for record in cluster.crash_log]
        if crash_times != sorted(crash_times):
            return "crash_log_order"
        for record in cluster.crash_log:
            victim = cluster.workers[record.worker_id]
            if not (victim.crashed and victim.draining):
                return "crash_victim_state"
            if abs(victim.retired_at - record.time) > 1e-9:
                return "crash_billing"
            if record.replacement_id is not None:
                if cluster.workers[record.replacement_id].spec != victim.spec:
                    return "crash_replacement_spec"
            if record.jobs_in_flight < 0 or record.jobs_queued < 0:
                return "crash_negative_jobs"
        for worker in cluster.workers:
            horizon = max(result.duration_seconds, worker.busy_until)
            provisioned = cluster.worker_provisioned_seconds(worker, horizon)
            if worker.busy_seconds > provisioned + 1e-6:
                return "capacity_conservation"
        ids = [worker.worker_id for worker in cluster.workers]
        if ids != list(range(len(cluster.workers))):
            return "worker_id_reuse"
    federation = session.federation
    expected = federation.compute_dollar_cost(
        result.duration_seconds
    ) + federation.wan_dollar_cost()
    if abs(result.dollar_cost - expected) > 1e-6 * max(1.0, expected):
        return "cost_closure"
    return None


def run_scenario(
    scenario: dict, planted_bug: str | None = None
) -> tuple[str | None, int, EventJournal]:
    """Run one scenario and report (failure signature, events, journal).

    The failure signature is ``None`` for a clean run, an invariant name
    from :func:`check_invariants`, or ``"exception:<TypeName>"`` when
    the simulation itself crashed (the journal then holds the prefix up
    to and including the fatal event — ``stop_after`` bisection
    material).
    """
    journal = EventJournal()
    with planted(planted_bug):
        try:
            session = session_from_scenario(scenario)
            result = session.run(journal=journal)
        except Exception as error:
            return f"exception:{type(error).__name__}", journal.num_events, journal
    return check_invariants(session, result), journal.num_events, journal


class ChaosShrinker:
    """Greedy, deterministic minimisation of one failing chaos scenario.

    ``scenario`` is a dict in the :mod:`repro.testing.scenarios` format
    (what :func:`~repro.testing.scenarios.chaos_scenario` returns);
    ``budget`` bounds the number of simulation runs (defaulting to the
    ``REPRO_SHRINK_BUDGET`` environment variable, then
    :data:`DEFAULT_BUDGET`); ``planted_bug`` optionally plants a flag
    from :data:`~repro.core.faults.PLANTED_BUGS`' vocabulary for every
    oracle run, for exercising the shrinker against a known bug.

    :meth:`shrink` probes the scenario, and — if it fails — walks the
    axes to a fixed point, keeping only candidates that fail with the
    *same* signature (so minimisation cannot wander onto a different
    bug), then returns the regression-fixture dict.  Probes are
    memoised on the candidate's canonical JSON, so re-visiting a
    scenario costs nothing and the budget counts real simulation runs.
    """

    def __init__(
        self,
        scenario: dict,
        budget: int | None = None,
        planted_bug: str | None = None,
    ) -> None:
        if budget is None:
            budget = int(os.environ.get("REPRO_SHRINK_BUDGET", str(DEFAULT_BUDGET)))
        if budget < 1:
            raise ValueError(f"shrink budget must be >= 1, got {budget}")
        self.original = json.loads(canonical_dumps(scenario))
        self.current = json.loads(canonical_dumps(scenario))
        self.budget = budget
        self.planted_bug = planted_bug
        self.failure: str | None = None
        self.runs = 0
        self._cache: dict[str, tuple[str | None, int]] = {}

    # -- oracle --------------------------------------------------------------
    def _probe(self, scenario: dict) -> tuple[str | None, int]:
        """Failure signature + event count for a candidate (memoised).

        Once the budget is exhausted every un-cached probe reports "no
        failure", which the shrink loop reads as "candidate rejected" —
        shrinking stops at the best scenario found so far.
        """
        key = canonical_dumps(scenario)
        if key in self._cache:
            return self._cache[key]
        if self.runs >= self.budget:
            return (None, 0)
        self.runs += 1
        failure, num_events, _ = run_scenario(scenario, self.planted_bug)
        self._cache[key] = (failure, num_events)
        return self._cache[key]

    def _try(self, candidate: dict) -> bool:
        """Adopt ``candidate`` iff it still fails with the same signature."""
        failure, _ = self._probe(candidate)
        if failure == self.failure:
            self.current = candidate
            return True
        return False

    # -- candidate construction ---------------------------------------------
    def _with(self, key: str, value) -> dict:
        """A copy of the current scenario with one top-level key changed."""
        candidate = json.loads(canonical_dumps(self.current))
        candidate[key] = value
        if key == "num_gpus" and candidate.get("autoscaler"):
            # keep the scaler's bounds consistent with the smaller
            # cluster, or the candidate would fail construction instead
            # of failing the invariant under test
            fingerprint = candidate["autoscaler"]
            fingerprint["min_gpus"] = min(fingerprint["min_gpus"], value)
            fingerprint["max_gpus"] = max(
                fingerprint["max_gpus"], fingerprint["min_gpus"]
            )
        return candidate

    def _with_plan(self, key: str, value) -> dict:
        """A copy of the current scenario with one fault-plan key changed."""
        candidate = json.loads(canonical_dumps(self.current))
        candidate["fault_plan"][key] = value
        return candidate

    # -- axes ----------------------------------------------------------------
    def _shrink_toggle(self, build) -> bool:
        """Try one all-or-nothing simplification (e.g. autoscaler off)."""
        candidate = build()
        if canonical_dumps(candidate) == canonical_dumps(self.current):
            return False
        return self._try(candidate)

    def _shrink_int(self, key: str, floor: int, plan: bool = False) -> bool:
        """Binary-search one integer axis down to the smallest failing value."""
        holder = self.current["fault_plan"] if plan else self.current
        value = holder[key]
        if value is None or value <= floor:
            return False
        make = self._with_plan if plan else self._with
        low, high = floor, value
        changed = False
        while low < high:
            mid = (low + high) // 2
            if self._try(make(key, mid)):
                high = mid
                changed = True
            else:
                low = mid + 1
        return changed

    def _shrink_rate(self, key: str, iterations: int = 8) -> bool:
        """Push one float fault rate toward zero (zero first, then bisect)."""
        value = self.current["fault_plan"][key]
        if value <= 0.0:
            return False
        if self._try(self._with_plan(key, 0.0)):
            return True
        low, high = 0.0, value
        changed = False
        for _ in range(iterations):
            mid = (low + high) / 2.0
            if self._try(self._with_plan(key, mid)):
                high = mid
                changed = True
            else:
                low = mid
        return changed

    def _pass(self) -> bool:
        """One full walk over every axis; True if anything shrank."""
        changed = False
        changed |= self._shrink_toggle(lambda: self._with("autoscaler", None))
        changed |= self._shrink_toggle(lambda: self._with("batching", None))
        changed |= self._shrink_toggle(
            lambda: self._with_plan("mean_time_between_crashes", None)
        )

        def _no_partitions() -> dict:
            candidate = json.loads(canonical_dumps(self.current))
            candidate["fault_plan"].pop("mean_time_between_partitions", None)
            candidate["fault_plan"].pop("mean_partition_seconds", None)
            return candidate

        changed |= self._shrink_toggle(_no_partitions)

        def _no_region_outages() -> dict:
            candidate = json.loads(canonical_dumps(self.current))
            candidate["fault_plan"].pop("mean_time_between_region_outages", None)
            candidate["fault_plan"].pop("mean_region_outage_seconds", None)
            return candidate

        def _no_regions() -> dict:
            candidate = _no_region_outages()
            candidate.pop("regions", None)
            return candidate

        def _one_region() -> dict:
            candidate = json.loads(canonical_dumps(self.current))
            regions = candidate.get("regions")
            if regions and len(regions["wan"]) > 1:
                regions["wan"] = regions["wan"][:1]
            return candidate

        if self.current.get("regions"):
            # region axes, simplest first: un-federate entirely, then
            # collapse to one region, then quiet the outage process
            changed |= self._shrink_toggle(_no_regions)
        if self.current.get("regions"):
            changed |= self._shrink_toggle(_one_region)
            changed |= self._shrink_toggle(_no_region_outages)
        changed |= self._shrink_int("n_cameras", 1)
        changed |= self._shrink_int("num_frames", MIN_FRAMES)
        changed |= self._shrink_int("num_gpus", 1)
        for rate in ("loss_rate", "duplicate_rate", "delay_rate"):
            changed |= self._shrink_rate(rate)
        changed |= self._shrink_int("max_attempts", 1, plan=True)
        return changed

    # -- stop_after bisection -------------------------------------------------
    def _bisect_stop_after(self, journal: EventJournal) -> int | None:
        """Shortest replay prefix of the shrunk run that still crashes.

        Only meaningful for ``exception:`` failures: invariant failures
        are judged on the *completed* result, which a halted prefix
        replay (``result=None``) cannot produce.  Replays the shrunk
        scenario against its own journal with a bisected ``stop_after``;
        a prefix short enough to halt before the fatal handler replays
        cleanly, so the smallest crashing prefix is the failure's exact
        event horizon.  Each replay is a full simulation and is charged
        against the run budget.
        """

        def crashes(stop_after: int) -> bool:
            if self.runs >= self.budget:
                return False
            self.runs += 1
            with planted(self.planted_bug):
                try:
                    journal.replay(
                        lambda: session_from_scenario(self.current),
                        stop_after=stop_after,
                    )
                except JournalError:
                    return False
                except Exception:
                    return True
            return False

        total = journal.num_events
        if not crashes(total):
            return None
        low, high = 0, total
        while low < high:
            mid = (low + high) // 2
            if crashes(mid):
                high = mid
            else:
                low = mid + 1
        return high

    # -- driver ---------------------------------------------------------------
    def shrink(self) -> dict | None:
        """Minimise to a fixed point; returns the fixture dict (or None).

        ``None`` means the starting scenario does not fail at all ("no
        failure found") — there is nothing to minimise.
        """
        self.runs += 1
        failure, original_events, _ = run_scenario(self.original, self.planted_bug)
        self._cache[canonical_dumps(self.original)] = (failure, original_events)
        if failure is None:
            return None
        self.failure = failure
        while self.runs < self.budget and self._pass():
            pass
        # one uncached final run of the winner: exact event count + the
        # journal the stop_after bisection replays against
        final_failure, shrunk_events, journal = run_scenario(
            self.current, self.planted_bug
        )
        stop_after = None
        if final_failure is not None and final_failure.startswith("exception:"):
            stop_after = self._bisect_stop_after(journal)
        return {
            "version": FIXTURE_VERSION,
            "kind": "chaos_regression",
            "failure": self.failure,
            "planted_bug": self.planted_bug,
            "scenario": self.current,
            "stop_after": stop_after,
            "original": {
                "scenario": self.original,
                "num_events": original_events,
            },
            "shrunk": {"num_events": shrunk_events},
            "runs": self.runs,
            "budget": self.budget,
        }


def write_fixture(fixture: dict, out_dir: str) -> str:
    """Serialise a fixture (canonical JSON) into ``out_dir``; returns path.

    The filename is the failure signature plus a digest of the shrunk
    scenario, so distinct minimal cases never collide and re-shrinking
    the same failure is idempotent.
    """
    os.makedirs(out_dir, exist_ok=True)
    slug = fixture["failure"].replace(":", "-").lower()
    name = f"{slug}-{stable_digest(fixture['scenario'])}.json"
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_dumps(fixture) + "\n")
    return path


def _scenario_from_target(target: str, args: argparse.Namespace) -> dict:
    """Resolve the CLI positional: a chaos seed or a journal file path."""
    try:
        seed = int(target)
    except ValueError:
        journal = EventJournal.load(target)
        return scenario_from_journal_meta(journal.meta)
    return chaos_scenario(
        seed,
        partitions=args.partitions,
        autoscaler=args.autoscaler,
        regions=args.regions,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: shrink a chaos seed, a journal, or a CI seed window.

    Exit codes: 0 — a fixture was written (or, under ``--sweep``, the
    sweep completed); 2 — the target scenario does not fail, so there
    is nothing to shrink.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.shrink",
        description=(
            "Minimise a failing chaos case into a regression fixture. "
            "Pass a chaos seed (integer) or a journal file path; or pass "
            "--sweep to probe the REPRO_CHAOS_SEEDS/REPRO_CHAOS_SEED_OFFSET "
            "window (what CI does on a chaos-job failure) and shrink every "
            "failing seed in it."
        ),
    )
    parser.add_argument(
        "target", nargs="?", help="chaos seed (integer) or journal file path"
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="max simulation runs (default: REPRO_SHRINK_BUDGET or "
        f"{DEFAULT_BUDGET})",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_FIXTURE_DIR,
        help="directory to write fixtures into",
    )
    parser.add_argument(
        "--partitions",
        action="store_true",
        help="seed mode: draw the plan with link partitions enabled",
    )
    parser.add_argument(
        "--autoscaler",
        action="store_true",
        help="seed mode: draw the fleet shape with an autoscaler",
    )
    parser.add_argument(
        "--regions",
        action="store_true",
        help="seed mode: federate the fleet across 2-3 WAN-profiled "
        "regions with a region-outage process",
    )
    parser.add_argument(
        "--planted-bug",
        default=None,
        help="plant a bug flag (see repro.core.faults.PLANTED_BUGS) for "
        "every run — the shrinker's own demo/test mode",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="probe the REPRO_CHAOS_* seed window and shrink every failure",
    )
    args = parser.parse_args(argv)

    if args.sweep:
        count = int(os.environ.get("REPRO_CHAOS_SEEDS", "20"))
        offset = int(os.environ.get("REPRO_CHAOS_SEED_OFFSET", "0"))
        written = 0
        for seed in range(offset, offset + count):
            scenario = chaos_scenario(
                seed,
                partitions=args.partitions,
                autoscaler=args.autoscaler,
                regions=args.regions,
            )
            shrinker = ChaosShrinker(
                scenario, budget=args.budget, planted_bug=args.planted_bug
            )
            fixture = shrinker.shrink()
            if fixture is None:
                continue
            path = write_fixture(fixture, args.out)
            written += 1
            print(
                f"seed {seed}: {fixture['failure']} shrank "
                f"{fixture['original']['num_events']} -> "
                f"{fixture['shrunk']['num_events']} events "
                f"({shrinker.runs} runs) -> {path}"
            )
        print(f"sweep done: {written} failing seed(s) minimised")
        return 0

    if args.target is None:
        parser.error("pass a chaos seed / journal path, or --sweep")
    scenario = _scenario_from_target(args.target, args)
    shrinker = ChaosShrinker(
        scenario, budget=args.budget, planted_bug=args.planted_bug
    )
    fixture = shrinker.shrink()
    if fixture is None:
        print("no failure found: the scenario satisfies every invariant")
        return 2
    path = write_fixture(fixture, args.out)
    print(
        f"{fixture['failure']}: shrank "
        f"{fixture['original']['num_events']} -> "
        f"{fixture['shrunk']['num_events']} events in {shrinker.runs} runs "
        f"-> {path}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
