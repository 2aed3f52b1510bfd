"""Shared fixtures for the paper-reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures (see
DESIGN.md section 4 and EXPERIMENTS.md for the mapping).  All benchmarks share
the same pre-trained student (trained once per session) and the same
experiment settings, sized so the full suite completes in CPU-minutes.

Run with::

    pytest benchmarks/ --benchmark-only -s

Result tables are also written to ``benchmarks/results/``.
"""

from __future__ import annotations

import os

import pytest

from repro.eval import ExperimentSettings, prepare_student

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    """Benchmark-scale experiment settings (reduced from the paper's scale).

    ``REPRO_*`` environment variables (see
    :meth:`ExperimentSettings.from_env`) shrink these further for the CI
    smoke job.
    """
    return ExperimentSettings.from_env(
        num_frames=1800,
        eval_stride=3,
        pretrain_images=300,
        pretrain_epochs=6,
        map_window=15,
        replay_seed_images=30,
        seed=0,
    )


@pytest.fixture(scope="session")
def student(settings):
    """Offline pre-trained student shared by every benchmark of a session.

    It is trained afresh each session, so a table always comes from the
    pretraining code of the tree it runs on.
    """
    return prepare_student(settings)


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: str, name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print("\n" + text)
    with open(os.path.join(results_dir, name), "w") as handle:
        handle.write(text + "\n")
