"""A finished run is freed by reference counting alone.

The fleet's object graph is acyclic: each object has one strong owner,
and a reference back towards an owner is weak (or the owner is passed
per call).  So dropping a :class:`~repro.core.fleet.FleetSession` and
its result frees the whole run at once, without CPython's cyclic
collector.  Each case below runs with the collector disabled, drops the
run, and checks that

* weak references to the session, its federation, one cluster and one
  edge actor are dead, and
* a collection that saves everything it finds (``DEBUG_SAVEALL``)
  finds no object of a ``repro`` type: nothing was left in a cycle.

Before the graph was acyclic, every finished session stayed resident
until a full collection happened to run.  A second group checks that
gradient buffers are allocated on first use, so a student that never
trains holds none.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.eval.runner as runner
from repro.core.fleet import CameraSpec, FleetSession
from repro.detection import StudentConfig, StudentDetector, TeacherDetector
from repro.eval import ExperimentSettings, run_fleet
from repro.runtime.journal import EventJournal
from repro.testing.invariants import check_invariants
from repro.testing.scenarios import chaos_scenario, session_from_scenario
from repro.video import build_dataset


def is_repro(obj) -> bool:
    module = type(obj).__module__  # not a str on some extension metaclasses
    return isinstance(module, str) and module.startswith("repro.")


@pytest.fixture
def collector_off():
    """Run the test with the cyclic collector disabled (and start clean).

    Every ``repro`` object alive before the test is held until it ends,
    so only objects the test creates can turn up as garbage: an earlier
    test's failure keeps its frames (and the runs in them) alive in a
    traceback that may be released mid-test.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    pinned = [obj for obj in gc.get_objects() if is_repro(obj)]
    try:
        yield
    finally:
        del pinned
        if was_enabled:
            gc.enable()


def repro_garbage() -> list[str]:
    """Types (``module.qualname``) of ``repro`` objects only a collection frees."""
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted(
            {
                f"{type(obj).__module__}.{type(obj).__qualname__}"
                for obj in gc.garbage
                if is_repro(obj)
            }
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def references(session: FleetSession) -> dict[str, weakref.ref]:
    """Weak references to the parts of a run that must die with it."""
    federation = session.federation
    return {
        "session": weakref.ref(session),
        "federation": weakref.ref(federation),
        "cluster": weakref.ref(session.clusters[0]),
        "edge actor": weakref.ref(federation.actors[0]),
    }


def assert_freed(refs: dict[str, weakref.ref]) -> None:
    alive = sorted(name for name, ref in refs.items() if ref() is not None)
    assert alive == [], f"still alive after the run was dropped: {alive}"
    assert repro_garbage() == []


def run_chaos(scenario: dict) -> dict[str, weakref.ref]:
    """Run a scenario journaled, check it after ``run()``, return weak refs."""
    session = session_from_scenario(scenario)
    result = session.run(journal=EventJournal())
    # post-run readers (the oracle, result builders) find everything
    # they read, whichever of their paths cross a weak reference
    assert check_invariants(session, result) is None
    federation = session.federation
    assert federation.transport.federation is federation
    assert federation.actors[0].cloud_actor is federation
    for cluster in session.clusters:
        if cluster.batcher is not None:
            assert cluster.batcher.cluster is cluster
    return references(session)


def test_plain_run_fleet_with_ams_tenants_is_freed(collector_off, monkeypatch):
    sessions: list[dict[str, weakref.ref]] = []
    cloud_students: list[int] = []

    class RecordingSession(FleetSession):
        def run(self, journal=None):
            result = super().run(journal=journal)
            sessions.append(references(self))
            cloud_students.append(
                sum(
                    tenant.student is not None
                    for tenant in self.clusters[0].tenants.values()
                )
            )
            return result

    monkeypatch.setattr(runner, "FleetSession", RecordingSession)

    def run() -> None:
        settings = ExperimentSettings(
            num_frames=60, eval_stride=3, replay_seed_images=4, seed=0
        )
        cameras = [
            CameraSpec(
                name=f"cam{i}",
                dataset=build_dataset("detrac", num_frames=60, seed=i),
                strategy=strategy,
                seed=i,
            )
            for i, strategy in enumerate(("ams", "shoggoth", "ams"))
        ]
        result = run_fleet(
            cameras,
            StudentDetector(StudentConfig(seed=5)),
            settings=settings,
            num_gpus=2,
            placement="least_loaded",
        )
        assert all(camera.session.num_uploads for camera in result.fleet.cameras)

    run()
    (refs,) = sessions
    assert cloud_students == [2]  # each AMS tenant trains a cloud-side copy
    assert_freed(refs)


def test_journaled_one_region_chaos_run_is_freed(collector_off):
    scenario = chaos_scenario(0, partitions=True, autoscaler=True)
    assert scenario["batching"] and scenario["autoscaler"]
    assert_freed(run_chaos(scenario))


def test_two_region_chaos_run_is_freed(collector_off):
    scenario = chaos_scenario(4, partitions=True, autoscaler=True, regions=True)
    plan = scenario["fault_plan"]
    # outages, partitions, an autoscaler and a fleet batcher in every region
    assert plan["mean_time_between_region_outages"] is not None
    assert plan["mean_time_between_partitions"] is not None
    assert scenario["batching"] and scenario["autoscaler"]
    assert len(scenario["regions"]["wan"]) >= 2
    assert_freed(run_chaos(scenario))


# ---------------------------------------------------------------------------
# gradients on first use
# ---------------------------------------------------------------------------
def allocated_grads(student: StudentDetector) -> int:
    return sum(param._grad is not None for param in student.model.parameters())


def test_a_student_that_never_trains_holds_no_gradients():
    cameras = [
        CameraSpec(
            name="cam0",
            dataset=build_dataset("detrac", num_frames=12, seed=0),
            strategy="edge_only",
        )
    ]
    student = StudentDetector(StudentConfig(seed=5))
    session = FleetSession(
        cameras, student=student, teacher=TeacherDetector(),
        config=ExperimentSettings(num_frames=12).shoggoth_config(),
    )
    session.run()
    assert allocated_grads(session.federation.actors[0].edge.student) == 0
    assert allocated_grads(student.clone()) == 0
