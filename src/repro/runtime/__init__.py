"""Execution-platform simulation: compute models, the event kernel and its journal.

The paper's evaluation platform is an NVIDIA Jetson TX2 edge device and a
single-V100 cloud server.  Neither is available here, so this package models
them and drives the simulation:

* :mod:`repro.runtime.device` models their *capacity*: how long student
  inference, adaptive training and teacher inference take, and how
  training contends with real-time inference on the edge (Figure 4's FPS
  dip);
* :mod:`repro.runtime.events` is the discrete-event kernel: typed,
  timestamped events popped in simulated-time order;
* :mod:`repro.runtime.journal` records every dispatched event with
  byte-stable serialization, and replays a journal to find where two runs
  diverge;
* :mod:`repro.runtime.clock` is the simulated wall clock, and
  :mod:`repro.runtime.metrics` an empty-safe metric reduction.
"""

from repro.runtime.clock import SimulationClock
from repro.runtime.device import (
    EdgeComputeModel,
    CloudComputeModel,
    TrainingCostModel,
    TrainingCost,
)
from repro.runtime.events import (
    Event,
    EventScheduler,
    FrameArrival,
    LabelingDone,
    LabelsReady,
    ModelDownloadComplete,
    TrainingDone,
    UploadComplete,
)
from repro.runtime.events import (
    RetryTimer,
    WorkerCrashEvent,
)
from repro.runtime.journal import (
    EventJournal,
    JournalDivergence,
    JournalError,
    ReplayReport,
)

__all__ = [
    "SimulationClock",
    "EdgeComputeModel",
    "CloudComputeModel",
    "TrainingCostModel",
    "TrainingCost",
    "Event",
    "EventScheduler",
    "FrameArrival",
    "UploadComplete",
    "LabelingDone",
    "LabelsReady",
    "TrainingDone",
    "ModelDownloadComplete",
    "WorkerCrashEvent",
    "RetryTimer",
    "EventJournal",
    "JournalError",
    "JournalDivergence",
    "ReplayReport",
]
