"""Tests for messages, link model and bandwidth accounting."""

from __future__ import annotations

import pytest

from repro.network import (
    BandwidthAccountant,
    FrameBatchUpload,
    LabelDownload,
    LinkConfig,
    MESSAGE_OVERHEAD_BYTES,
    ModelDownload,
    NetworkLink,
    ResultDownload,
)


class TestMessages:
    def test_frame_batch_size(self):
        msg = FrameBatchUpload(num_frames=5, encoded_bytes=10_000)
        assert msg.size_bytes() == 10_000 + MESSAGE_OVERHEAD_BYTES

    def test_label_download_scales_with_boxes(self):
        small = LabelDownload(num_frames=3, num_boxes=2)
        large = LabelDownload(num_frames=3, num_boxes=20)
        assert large.size_bytes() > small.size_bytes()

    def test_model_download_scales_with_parameters(self):
        msg = ModelDownload(num_parameters=50_000)
        assert msg.size_bytes() == pytest.approx(200_000 + MESSAGE_OVERHEAD_BYTES, rel=0.01)

    def test_result_download_annotated_larger(self):
        assert (
            ResultDownload(num_boxes=3, annotated=True).size_bytes()
            > ResultDownload(num_boxes=3, annotated=False).size_bytes()
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameBatchUpload(num_frames=0, encoded_bytes=100)
        with pytest.raises(ValueError):
            LabelDownload(num_frames=-1, num_boxes=0)
        with pytest.raises(ValueError):
            ModelDownload(num_parameters=0)


class TestNetworkLink:
    def test_uplink_time_scales_with_size(self):
        link = NetworkLink(LinkConfig(uplink_kbps=1000, downlink_kbps=1000, rtt_seconds=0.0))
        small = link.uplink_seconds(FrameBatchUpload(1, 1_000))
        large = link.uplink_seconds(FrameBatchUpload(1, 100_000))
        assert large > small

    def test_transfer_time_formula(self):
        link = NetworkLink(LinkConfig(uplink_kbps=8000, downlink_kbps=8000, rtt_seconds=0.0))
        msg = FrameBatchUpload(1, 1_000_000 - MESSAGE_OVERHEAD_BYTES)
        assert link.uplink_seconds(msg) == pytest.approx(1.0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LinkConfig(uplink_kbps=0)


class TestBandwidthAccounting:
    def test_totals_and_kbps(self):
        acc = BandwidthAccountant()
        acc.record_uplink(FrameBatchUpload(1, 10_000 - MESSAGE_OVERHEAD_BYTES))
        acc.record_downlink(LabelDownload(1, 10))
        summary = acc.summary(10.0)
        assert summary.uplink_bytes == 10_000
        assert summary.uplink_kbps == pytest.approx(10_000 * 8 / 1000 / 10)
        assert summary.downlink_kbps > 0

    def test_zero_duration_raises(self):
        with pytest.raises(ValueError):
            BandwidthAccountant().summary(0.0)

    def test_empty_summary(self):
        summary = BandwidthAccountant().summary(5.0)
        assert summary.uplink_kbps == 0.0 and summary.downlink_kbps == 0.0
