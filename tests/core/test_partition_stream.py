"""Golden pin: region 0's WAN partition schedule, bit for bit.

A one-region fleet draws its link partitions from region 0's stream,
``FaultPlan.draw_partitions_for_region(horizon, 0)``.  The constants
below are the ``float.hex`` of every (cut, heal) pair that stream gives
for four plan seeds and two horizons; they were recorded from the
single-link stream that one-region fleets drew before every fleet became
a federation, so the chaos journals recorded then still replay.
"""

from __future__ import annotations

import pytest

from repro.core import FaultPlan

#: (plan seed, horizon) -> [(cut, heal)] as ``float.hex`` strings
PINNED = {
    (0, 8.0): [
        ("0x1.03e53a2434120p+2", "0x1.60911eb90e19ap+2"),
    ],
    (0, 30.0): [
        ("0x1.03e53a2434120p+2", "0x1.60911eb90e19ap+2"),
        ("0x1.082152c9519c0p+3", "0x1.257e3644b107ep+3"),
        ("0x1.9626ac9245292p+3", "0x1.ba2161ca85277p+3"),
        ("0x1.051d4a5479c09p+4", "0x1.2a0e084bc5228p+4"),
        ("0x1.2cae0d9297a88p+4", "0x1.31ac15137639fp+4"),
    ],
    (1, 8.0): [
        ("0x1.4ecf33770d9bfp-3", "0x1.c6fc03b0c7b8fp-3"),
        ("0x1.cc888bb528b45p+1", "0x1.13a0ff17d1501p+2"),
        ("0x1.3f69db8b27cabp+2", "0x1.4c1db25a5de25p+2"),
    ],
    (1, 30.0): [
        ("0x1.4ecf33770d9bfp-3", "0x1.c6fc03b0c7b8fp-3"),
        ("0x1.cc888bb528b45p+1", "0x1.13a0ff17d1501p+2"),
        ("0x1.3f69db8b27cabp+2", "0x1.4c1db25a5de25p+2"),
        ("0x1.3a9ac75daf7acp+3", "0x1.74da06e994b93p+3"),
        ("0x1.bffeafa2304ecp+3", "0x1.cbdecd08563fcp+3"),
        ("0x1.70ed81cfb0e7cp+4", "0x1.8c32e5fcf0b3bp+4"),
        ("0x1.af3b50116891dp+4", "0x1.b845a3a36bd63p+4"),
        ("0x1.c9a342f34f7c9p+4", "0x1.d40cd5861100ap+4"),
        ("0x1.da10c5d1c89d2p+4", "0x1.fff654d0ff93fp+4"),
    ],
    (42, 8.0): [
        ("0x1.e19a25a5c608ap-1", "0x1.0dcf9dbd1fec6p+1"),
    ],
    (42, 30.0): [
        ("0x1.e19a25a5c608ap-1", "0x1.0dcf9dbd1fec6p+1"),
        ("0x1.e4980c49a9e6cp+3", "0x1.0d1ad63292249p+4"),
        ("0x1.288cb1169cbd3p+4", "0x1.32409c692d4b4p+4"),
        ("0x1.3fc25ba17cad5p+4", "0x1.4cde5db16decfp+4"),
        ("0x1.7da5f300395ffp+4", "0x1.9ee1e715845d5p+4"),
        ("0x1.a0d2b645dd03bp+4", "0x1.d436e805d3c65p+4"),
    ],
    (97, 8.0): [
    ],
    (97, 30.0): [
        ("0x1.3951bf5d52106p+3", "0x1.536c6cc849104p+3"),
        ("0x1.7a61402613636p+3", "0x1.7e1550f0be272p+3"),
        ("0x1.f238892955aacp+3", "0x1.f3e8dcbd13109p+3"),
    ],
}


@pytest.mark.parametrize(("seed", "horizon"), sorted(PINNED))
def test_region_zero_partition_schedule_is_pinned(seed, horizon):
    plan = FaultPlan(
        seed=seed, mean_time_between_partitions=3.0, mean_partition_seconds=1.0
    )
    pairs = plan.draw_partitions_for_region(horizon, 0)
    assert [(cut.hex(), heal.hex()) for cut, heal in pairs] == PINNED[(seed, horizon)]


def test_regions_partition_independently():
    """Another region's stream is its own: same plan, other schedule."""
    plan = FaultPlan(seed=1, mean_time_between_partitions=3.0, mean_partition_seconds=1.0)
    assert plan.draw_partitions_for_region(30.0, 1) != plan.draw_partitions_for_region(
        30.0, 0
    )
    assert FaultPlan(seed=1).draw_partitions_for_region(30.0, 0) == []
