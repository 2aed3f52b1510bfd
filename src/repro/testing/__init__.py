"""Correctness tooling: the invariant oracle, chaos scenarios, the shrinker.

This package is the test harness's *library* half — importable from the
test suite and from CI, but shipping with the simulator so the
``python -m repro.testing.shrink`` CLI works in any checkout:

* :mod:`repro.testing.invariants` — :func:`~repro.testing.invariants.
  check_invariants`, the one place the fleet's conservation laws are
  written; every test grid, the shrinker and the regression replayer
  call it;
* :mod:`repro.testing.scenarios` — seeded chaos scenario builders (the
  single source of truth for the fault-plan and fleet-shape draws the
  chaos suites sample) plus the JSON scenario <-> live
  :class:`~repro.core.fleet.FleetSession` round-trip the shrinker's
  regression fixtures rest on;
* :mod:`repro.testing.shrink` — the :class:`~repro.testing.shrink.
  ChaosShrinker`: greedy, deterministic minimisation of a failing chaos
  case along independent axes (fault rates, cameras, frames, GPUs,
  autoscaler/batching/crash/partition toggles, journal replay prefix)
  into a tiny regression fixture under ``tests/fixtures/regressions/``.
"""

from repro.testing.invariants import check_invariants
from repro.testing.scenarios import (
    chaos_scenario,
    sample_chaos_plan,
    sample_chaos_regions,
    sample_chaos_shape,
    scenario_from_journal_meta,
    session_from_scenario,
    small_fleet_config,
)
from repro.testing.shrink import ChaosShrinker, run_scenario

__all__ = [
    "ChaosShrinker",
    "chaos_scenario",
    "check_invariants",
    "run_scenario",
    "sample_chaos_plan",
    "sample_chaos_regions",
    "sample_chaos_shape",
    "scenario_from_journal_meta",
    "session_from_scenario",
    "small_fleet_config",
]
