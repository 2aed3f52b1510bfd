"""Multi-region federation: golden pins, selectors, failover, replication.

The contract under test, in order of importance:

* **golden pins** — the one-region fleet (``regions=None``, one
  free-WAN ``RegionSpec("default")``) and a two-region fleet are held
  to constant :meth:`~repro.core.fleet.FleetResult.fingerprint` and
  journal digests, with and without chaos; every run journals and
  fingerprints its region block;
* **region selection** — each :class:`~repro.core.federation.RegionSelector`
  homes cameras by its objective, above the per-cluster placement;
* **cross-region failover** — a scripted
  :class:`~repro.runtime.events.RegionOutageEvent` drains the region
  through the same preempt/handoff path crashes use, re-homes its
  cameras onto healthy regions, and the heal re-provisions the torn
  capacity (append-only worker ids throughout);
* **replication** — the periodic weight broadcast bills WAN egress and
  hands a migrated camera a near-fresh student;
* **accounting closure** — the billed dollar total is exactly
  per-region compute plus per-link WAN egress.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core import FaultPlan, FleetSession
from repro.core.federation import (
    SELECTORS,
    CheapestSelector,
    Federation,
    LeastLoadedSelector,
    NearestLatencySelector,
    RegionSpec,
    StickyFailoverSelector,
    build_selector,
)
from repro.core.scheduling import WORKER_TIERS
from repro.detection import (
    StudentConfig,
    StudentDetector,
    TeacherConfig,
    TeacherDetector,
)
from repro.eval import fleet_fingerprint, run_fleet
from repro.network.link import LinkConfig, SharedLink, WanProfile
from repro.runtime.journal import EventJournal
from repro.testing.scenarios import build_cameras, small_fleet_config

NEAR = WanProfile(rtt_seconds=0.02, cost_per_gb=0.08)
FAR = WanProfile(rtt_seconds=0.15, cost_per_gb=0.01)


def build_fleet(n_cameras: int = 3, num_frames: int = 60, **kwargs) -> FleetSession:
    """The suite's standard deterministic fleet, with federation knobs."""
    return FleetSession(
        build_cameras(n_cameras, num_frames),
        student=StudentDetector(StudentConfig(seed=5)),
        teacher=TeacherDetector(TeacherConfig(seed=9)),
        config=small_fleet_config(),
        **kwargs,
    )


def two_regions(**kwargs) -> list[RegionSpec]:
    return [
        RegionSpec(name="near", wan=NEAR, **kwargs),
        RegionSpec(name="far", wan=FAR, **kwargs),
    ]


def chaos_plan() -> FaultPlan:
    return FaultPlan(
        seed=13,
        loss_rate=0.1,
        duplicate_rate=0.05,
        delay_rate=0.08,
        retry_timeout_seconds=0.6,
        max_attempts=3,
        mean_time_between_crashes=4.0,
        mean_time_between_partitions=5.0,
        mean_partition_seconds=1.0,
    )


# ---------------------------------------------------------------------------
# golden pins
# ---------------------------------------------------------------------------
#: (fingerprint, journal sha256) of the pinned runs below
PINS = {
    "one_region": (
        "f83e60e5d4ec9af5555dded7393da4eaf42b3d849c9617cadead86d0ca030e4a",
        "0df09a50961e435a9e37f9fc52b42dd534fcd574ee919bc64924fa91ae0ef2ed",
    ),
    "one_region_chaos": (
        "0b66df9a5d4f9eb7ef8225827a97cba64aa6eee74663f6876d257574b54f537e",
        "f363606069864ca4f293d4964734eb319b82346d7794a5b55327fbe67d17ccd0",
    ),
    "two_regions": (
        "3fddc5da007da7b7d7282f0f3a00d056eef012a82165c11505aeae566291946a",
        "ddfd66a629e1fa72fde86a584366f210711fc4bc1e320b3607ea848dadc78a1d",
    ),
}


def pinned_digests(session: FleetSession):
    """Run ``session`` journaled: (result, (fingerprint, journal sha256))."""
    journal = EventJournal()
    result = session.run(journal=journal)
    assert journal.result_fingerprint == fleet_fingerprint(result)
    return result, (result.fingerprint(), hashlib.sha256(journal.serialize()).hexdigest())


def test_one_region_run_is_pinned():
    """The default fleet is one free-WAN region named "default"."""
    session = build_fleet()
    result, digests = pinned_digests(session)
    assert digests == PINS["one_region"]
    assert [region.name for region in session.federation.regions] == ["default"]
    assert [m["region"] for m in result.region_metrics] == ["default"]
    assert result.wan_bytes > 0.0 and result.wan_dollar_cost == 0.0


def test_one_region_chaos_run_is_pinned():
    """The pin holds under the full fault machinery: region 0's
    partition stream, crashes and retries."""
    result, digests = pinned_digests(build_fleet(num_frames=90, faults=chaos_plan()))
    assert digests == PINS["one_region_chaos"]
    assert result.num_messages_sent > 0  # the chaos actually ran


def test_degenerate_requires_free_wan():
    """A paid-WAN single region bills its egress (the default is free)."""
    result = build_fleet(
        regions=[RegionSpec(name="paid", wan=WanProfile(cost_per_gb=5.0))]
    ).run()
    assert result.wan_bytes > 0.0
    assert result.wan_dollar_cost == pytest.approx(
        result.wan_bytes / 1e9 * 5.0
    )


def test_federated_chaos_run_is_byte_stable_and_replayable():
    def build():
        return build_fleet(
            n_cameras=4,
            regions=two_regions(),
            region_selector="nearest",
            faults=chaos_plan(),
            region_outages=[(1.0, 2.5, 0)],
            replication_interval_seconds=1.0,
        )

    first, second = EventJournal(), EventJournal()
    live = build().run(journal=first)
    build().run(journal=second)
    assert first.serialize() == second.serialize()
    report = first.replay(build)
    assert not report.halted
    assert fleet_fingerprint(report.result) == fleet_fingerprint(live)


# ---------------------------------------------------------------------------
# region selection
# ---------------------------------------------------------------------------
def test_selector_registry_round_trips():
    for name in SELECTORS:
        assert build_selector(name).name == name
    selector = NearestLatencySelector()
    assert build_selector(selector) is selector
    assert build_selector(None).name == "sticky"
    with pytest.raises(ValueError, match="unknown region selector"):
        build_selector("teleport")


def test_nearest_selector_homes_on_lowest_rtt():
    federation = Federation(two_regions(), selector="nearest")
    pick = federation.selector.pick(0, federation.healthy_regions, 0.0, federation)
    assert pick.name == "near"


def test_cheapest_selector_prefers_cheap_compute_then_cheap_egress():
    specs = [
        RegionSpec(
            name="ondemand", wan=NEAR, worker_specs=WORKER_TIERS["on_demand"]
        ),
        RegionSpec(name="spot", wan=FAR, worker_specs=WORKER_TIERS["spot"]),
    ]
    federation = Federation(specs, selector="cheapest")
    pick = federation.selector.pick(0, federation.healthy_regions, 0.0, federation)
    assert pick.name == "spot", "spot compute is cheaper; egress only ties"
    # equal compute -> the cheaper egress wins (FAR at $0.01/GB)
    federation = Federation(two_regions(), selector="cheapest")
    pick = federation.selector.pick(0, federation.healthy_regions, 0.0, federation)
    assert pick.name == "far"


def test_least_loaded_selector_spreads_a_fresh_fleet():
    session = build_fleet(
        n_cameras=4, regions=two_regions(), region_selector="least_loaded"
    )
    result = session.run()
    homed = [m["num_cameras_homed"] for m in result.region_metrics]
    assert homed == [2, 2], f"fresh fleet should spread evenly, got {homed}"


def test_sticky_selector_keeps_homes_until_forced():
    federation = Federation(two_regions(), selector="sticky")
    federation.home[0] = 1  # camera 0 currently far
    pick = federation.selector.pick(0, federation.healthy_regions, 0.0, federation)
    assert pick.index == 1, "sticky must not chase latency"
    # once its home is unavailable, it fails over to the nearest
    pick = federation.selector.pick(0, [federation.regions[0]], 0.0, federation)
    assert pick.index == 0


# ---------------------------------------------------------------------------
# cross-region failover
# ---------------------------------------------------------------------------
def test_scripted_outage_fails_over_and_heals():
    session = build_fleet(
        n_cameras=4,
        num_frames=90,
        regions=two_regions(),
        region_selector="nearest",
        region_outages=[(1.0, 3.0, 0)],
    )
    result = session.run()
    assert result.num_region_outages == 1
    near, far = result.region_metrics
    assert near["num_outages"] == 1 and far["num_outages"] == 0
    # cut: all 4 cameras leave near; heal: nearest re-homes them back
    assert near["num_migrations_away"] == 4 and far["num_migrations_in"] == 4
    assert near["num_migrations_in"] == 4 and far["num_migrations_away"] == 4
    assert result.num_region_migrations == 8
    # the healed region re-provisioned its torn-down workers with fresh
    # ids — never reusing one
    for cluster in session.clusters:
        ids = [worker.worker_id for worker in cluster.workers]
        assert ids == list(range(len(cluster.workers)))
    assert session.federation.regions[0].cluster.num_outages == 1
    assert not session.federation.regions[0].down


def test_sticky_failover_does_not_rehome_on_heal():
    session = build_fleet(
        n_cameras=4,
        num_frames=90,
        regions=two_regions(),
        region_selector="sticky",
        region_outages=[(1.0, 3.0, 0)],
    )
    result = session.run()
    near, far = result.region_metrics
    assert near["num_migrations_away"] == 4 and far["num_migrations_in"] == 4
    assert far["num_migrations_away"] == 0, "sticky cameras stay failed over"
    assert result.num_region_migrations == 4
    assert near["num_cameras_homed"] == 0 and far["num_cameras_homed"] == 4


def test_failover_off_is_partition_only():
    """``failover=False`` degrades an outage to a WAN cut: nothing moves,
    no capacity is torn down, and the region resumes on heal."""
    session = build_fleet(
        n_cameras=4,
        num_frames=90,
        regions=two_regions(),
        region_selector="nearest",
        region_outages=[(1.0, 3.0, 0)],
        failover=False,
    )
    result = session.run()
    assert result.num_region_outages == 1
    assert result.num_region_migrations == 0
    assert result.num_region_job_handoffs == 0
    near, _ = result.region_metrics
    assert near["num_cameras_homed"] == 4
    # upload conservation still holds: transfers queued behind the cut
    # drain after the heal (or the retry budget abandons them)
    labeled = len(result.queue_waits)
    sent = sum(entry.session.num_uploads for entry in result.cameras)
    assert labeled + result.num_rejected_uploads == sent


def test_outage_beats_no_failover_on_labels():
    """With a region down for most of the run, failover must deliver
    strictly more labels — the claim ``bench_federation.py`` measures.

    The no-failover arm needs a *finite retry budget* to actually lose
    anything: under an infinitely patient link, partitioned uploads
    just queue behind the cut and drain late.  A zero-rate fault plan
    adds exactly that budget and no other chaos.
    """

    def run(failover: bool):
        return build_fleet(
            n_cameras=4,
            num_frames=120,
            regions=two_regions(),
            region_selector="nearest",
            region_outages=[(1.0, 10.0, 0)],
            failover=failover,
            faults=FaultPlan(
                seed=1, retry_timeout_seconds=0.4, max_attempts=3
            ),
        ).run()

    with_failover, without = run(True), run(False)
    assert with_failover.num_labeled_frames > without.num_labeled_frames
    assert without.num_abandoned_uploads > 0, (
        "the no-failover arm should abandon uploads into the dead region"
    )


# ---------------------------------------------------------------------------
# replication
# ---------------------------------------------------------------------------
def test_replication_bills_wan_and_snapshots_students():
    session = build_fleet(
        n_cameras=2,
        num_frames=90,
        regions=two_regions(),
        region_selector="nearest",
        replication_interval_seconds=2.0,
    )
    result = session.run()
    federation = session.federation
    assert federation.num_replication_rounds >= 1
    # only cloud-trained tenants have a cloud-side student to broadcast:
    # camera 1 runs "ams" (cloud training), the shoggoth cameras train
    # at the edge and replicate nothing
    assert set(federation.replicas) == {1}
    for state in federation.replicas.values():
        assert all(isinstance(array, np.ndarray) for array in state.values())
    # every broadcast was billed on the source region's egress meter
    replicated = sum(region.link.replication_bytes for region in federation.regions)
    assert replicated > 0.0
    assert result.wan_bytes >= replicated


def test_migrated_camera_resumes_from_replicated_weights():
    session = build_fleet(
        n_cameras=2,
        num_frames=120,
        regions=two_regions(),
        region_selector="sticky",
        region_outages=[(3.0, 20.0, 0)],
        replication_interval_seconds=1.0,
    )
    result = session.run()
    assert result.num_region_migrations >= 2
    federation = session.federation
    # the failover loaded the last pre-outage snapshot into the far
    # region's tenant: its student weights match the stored replica
    far = federation.regions[1]
    for camera_id in federation.cameras_homed_in(far):
        replica = federation.replicas.get(camera_id)
        if replica is None:
            continue
        tenant = far.cluster.tenants[camera_id]
        state = tenant.student.state_dict()
        assert set(state) == set(replica)


# ---------------------------------------------------------------------------
# accounting + validation
# ---------------------------------------------------------------------------
def test_dollar_cost_closes_over_compute_and_wan():
    session = build_fleet(
        n_cameras=4,
        regions=two_regions(),
        region_selector="cheapest",
        replication_interval_seconds=1.0,
    )
    result = session.run()
    federation = session.federation
    expected = federation.compute_dollar_cost(
        result.duration_seconds
    ) + federation.wan_dollar_cost()
    assert result.dollar_cost == pytest.approx(expected, abs=1e-9)
    assert result.wan_dollar_cost == pytest.approx(
        sum(m["wan_dollar_cost"] for m in result.region_metrics), abs=1e-12
    )
    assert result.wan_bytes == pytest.approx(
        sum(m["wan_bytes"] for m in result.region_metrics), abs=1e-9
    )


def test_region_block_is_always_fingerprinted():
    """One region or two, the result carries and digests its region block."""
    federated, digests = pinned_digests(build_fleet(regions=two_regions()))
    assert digests == PINS["two_regions"]
    assert [m["region"] for m in federated.region_metrics] == ["near", "far"]
    one = build_fleet().run()
    assert one.region_selector == federated.region_selector
    moved = dataclasses.replace(one, num_region_outages=1)
    assert moved.fingerprint() != one.fingerprint()


def test_federation_validation_errors():
    with pytest.raises(ValueError, match="at least one region"):
        Federation([])
    with pytest.raises(ValueError, match="unique"):
        Federation([RegionSpec(name="dup"), RegionSpec(name="dup")])
    with pytest.raises(ValueError, match="non-empty"):
        RegionSpec(name="")
    with pytest.raises(ValueError, match="positive"):
        Federation([RegionSpec(name="a")], replication_interval_seconds=0.0)
    # run_fleet's one-region cluster knobs live on each RegionSpec
    for knob in ({"num_gpus": 2}, {"scheduler": "staleness"}, {"link": SharedLink()}):
        with pytest.raises(ValueError, match="live on each RegionSpec"):
            run_fleet(
                build_cameras(1, 30),
                StudentDetector(StudentConfig(seed=5)),
                regions=two_regions(),
                **knob,
            )
    with pytest.raises(ValueError, match="region"):
        # outage index out of range
        build_fleet(regions=two_regions(), region_outages=[(1.0, 2.0, 7)])
    with pytest.raises(ValueError):
        # outage interval must be ordered
        build_fleet(regions=two_regions(), region_outages=[(2.0, 1.0, 0)])


def test_run_fleet_refuses_a_link_and_a_link_config():
    """A ready link is folded as its config, so a second config is refused."""
    with pytest.raises(ValueError, match="not both"):
        run_fleet(
            build_cameras(1, 30),
            StudentDetector(StudentConfig(seed=5)),
            link=SharedLink(),
            link_config=LinkConfig(uplink_kbps=1000.0),
        )


def test_every_region_fails_fast_on_a_cluster_it_cannot_grow():
    """Each region runs the construction checks a lone cluster does."""
    from repro.core.autoscaling import SloScaler
    from repro.core.scheduling import FifoScheduler

    growing = SloScaler(slo_seconds=0.01, interval_seconds=0.5)
    with pytest.raises(ValueError, match="cannot add workers"):
        build_fleet(
            n_cameras=8,
            regions=[
                RegionSpec(name="ok"),
                RegionSpec(name="fixed", scheduler=FifoScheduler(), autoscaler=growing),
            ],
        )
    with pytest.raises(ValueError, match="set num_gpus >= min_gpus"):
        build_fleet(
            regions=[RegionSpec(name="a", num_gpus=1, autoscaler=SloScaler(min_gpus=3))]
        )


def test_crash_records_are_in_time_order_across_regions():
    """Records from every region merge into one timeline, stably."""
    plan = FaultPlan(
        seed=15,
        loss_rate=0.05,
        retry_timeout_seconds=0.6,
        max_attempts=3,
        mean_time_between_crashes=1.5,
    )
    session = build_fleet(
        n_cameras=6,
        num_frames=180,
        regions=two_regions(num_gpus=2),
        region_selector="least_loaded",
        faults=plan,
    )
    result = session.run()
    per_region = [
        record.time for cluster in session.clusters for record in cluster.crash_log
    ]
    assert per_region != sorted(per_region), "crashes hit only one region"
    times = [record.time for record in result.crash_records]
    assert times == sorted(per_region)
