"""Self-test of the end-to-end benchmark, at tiny sizes (a few seconds).

* every metric ``BENCHMARK.json`` names is printed, with its unit, and
  nothing else;
* a traced operation reproduces the untraced fingerprint;
* layer self times (``other`` included) add up to the wall time;
* each wrapped boundary's inclusive share of a run agrees with
  cProfile's ``cumtime`` share of the same run;
* ``compare`` tells worse, better, unchanged and unresolved apart,
  flags more failed operations than the base's, and refuses to pair
  runs of different lengths.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import subprocess
import sys
import time

import pytest

import compare
import run
import workloads
from tracer import ROOT, Tracer

SPEC = json.loads(run.SPEC_PATH.read_text())


def cli(*args: str) -> dict:
    """Run the benchmark command at tiny size; return its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--tiny", *args],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_prints_every_benchmark_metric_with_its_unit(trace, kind):
    result = cli("--workload", "chaos_sweep", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def traced(prepared, profile: cProfile.Profile | None = None):
    """One traced operation: (tracer, outcome, wall seconds of the root)."""
    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        with tracer.root():
            if profile is not None:
                profile.enable()
            outcome = prepared.run()
            if profile is not None:
                profile.disable()
        wall = time.perf_counter() - start
    return tracer, outcome, wall


@pytest.fixture(scope="module")
def adapt():
    """fleet_adapt at tiny size: edge and cloud training, labeling, render."""
    return workloads.tiny(workloads.WORKLOADS["fleet_adapt"]).setup(seed=0)


def test_tracing_keeps_results_and_self_times_add_up(adapt):
    plain = adapt.run()
    tracer, outcome, wall = traced(adapt)
    assert plain.failures == () and outcome.failures == ()
    assert outcome.fingerprint == plain.fingerprint
    assert tracer.steps["core.edge_train"] > 0 and tracer.steps["core.cloud_train"] > 0
    assert abs(sum(tracer.self_s.values()) - wall) <= 0.01 * wall


def test_inclusive_shares_agree_with_cprofile(adapt):
    profile = cProfile.Profile()
    tracer, _, _ = traced(adapt, profile)
    stats = pstats.Stats(profile).stats
    cumtime = {key[:3]: value[3] for key, value in stats.items()}
    total = cumtime[
        (adapt.run.__code__.co_filename, adapt.run.__code__.co_firstlineno,
         adapt.run.__code__.co_name)
    ]
    root = tracer.inclusive[ROOT]
    checked = 0
    for boundary, seconds in tracer.inclusive.items():
        if boundary == ROOT:
            continue
        share = seconds / root
        profiled = cumtime[tracer.code_keys[boundary]] / total
        assert abs(share - profiled) <= 0.05, (boundary, share, profiled)
        checked += 1
    assert checked >= 20


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]

    def label(new, better="lower", bound=0.25, old=base):
        return compare.verdict(old, new, better, bound)[0]

    assert label(base) == "unchanged"
    assert label([v * 1.3 for v in base]) == "worse"
    assert label([v * 0.8 for v in base]) == "better"
    assert label([v * 0.7 for v in base], better="higher") == "worse"
    noisy = [8.0, 12.0, 7.0, 13.0, 10.0, 9.0, 11.0, 6.0, 14.0, 10.0]
    assert label(noisy[::-1], bound=0.1, old=noisy) == "unresolved"


def test_compare_failures_and_run_lengths(tmp_path):
    def results(name: str, failed: int, seconds: float) -> str:
        record = {
            "workload": "edge_infer", "seed": 0, "trace": 0, "tiny": False,
            "seconds": seconds, "attempted": 5, "failed": failed,
            "fingerprint": "f", "outputs": {},
            "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                        for m in SPEC["end_to_end"]},
        }
        path = tmp_path / name
        path.write_text(json.dumps({"runs": [record]}))
        return str(path)

    base = results("base.json", failed=0, seconds=20)
    assert compare.main([base, results("same.json", 0, 20)], SPEC) == 0
    assert compare.main([base, results("failing.json", 1, 20)], SPEC) == 1
    assert compare.main([base, results("short.json", 0, 5)], SPEC) == 2
