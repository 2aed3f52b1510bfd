"""Edge-cloud network substrate: links, messages and bandwidth accounting.

Table I and Table III of the paper report uplink/downlink bandwidth in Kbps
for every strategy; this package provides the pieces those numbers come from:
message size models for each thing the system ships over the network (frame
buffers, labels, model updates, inference results), a link model with finite
capacity and latency, and an accountant that converts transferred bytes into
the average Kbps figures the tables report.
"""

from repro.network.messages import (
    Message,
    FrameBatchUpload,
    LabelDownload,
    ModelDownload,
    ResultDownload,
    LABEL_BYTES_PER_BOX,
    MESSAGE_OVERHEAD_BYTES,
)
from repro.network.link import NetworkLink, LinkConfig, SharedLink, LinkTransfer
from repro.network.accounting import BandwidthAccountant, BandwidthSummary

__all__ = [
    "Message",
    "FrameBatchUpload",
    "LabelDownload",
    "ModelDownload",
    "ResultDownload",
    "LABEL_BYTES_PER_BOX",
    "MESSAGE_OVERHEAD_BYTES",
    "NetworkLink",
    "LinkConfig",
    "SharedLink",
    "LinkTransfer",
    "BandwidthAccountant",
    "BandwidthSummary",
]
