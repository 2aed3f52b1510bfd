"""Compare two result files of ``run.py --out``: the rule for claims.

    python3 benchmarks/e2e/run.py compare BASE.json NEW.json

For each workload and each end-to-end metric of ``BENCHMARK.json`` it
prints the median and quartiles of each side, how many paired runs
(base run *i* against new run *i*) the new side wins, and a verdict:

* ``worse`` — the new median is worse than the base median by more
  than the metric's bound;
* ``better`` — at least :data:`MIN_PAIRS` pairs, the new side wins at
  least nine tenths of them, and the medians differ by more than the
  base runs' spread (Q3 − Q1);
* ``unresolved`` — the base spread is wider than the bound, so noise
  hides a regression of that size, and not every new run beats every
  base run;
* ``unchanged`` — otherwise.

Runs of a workload pair only when they measured for the same number
of seconds at the same size; otherwise compare refuses (exit status
2).  ``failed_ops_pct`` (operations failed ÷ attempted, over all runs
of a side) is worse when it is higher on the new side than on the
base side.  The deterministic simulated outputs guard the model's
behaviour, not its speed: they are 0 on some workloads, so
``BENCHMARK.json`` cannot bound them as shares of a median.  Runs of
the same workload and seed are compared instead, and each output may
worsen by its tolerance in :data:`GUARDS` at most.  The exit status is
1 when any row reads ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys

__all__ = ["GUARDS", "MIN_PAIRS", "verdict", "main"]

#: pairs of runs needed before a gain may be claimed; three runs of the
#: same code, alternated, already won 3/3 pairs by 9%
MIN_PAIRS = 10

#: simulated output -> (better, absolute tolerance, relative tolerance);
#: the allowed worsening is the larger of the two
GUARDS = {
    "map50_pct": ("higher", 0.5, 0.0),
    "uplink_kbps": ("lower", 0.1, 0.01),
    "sim_p95_queue_s": ("lower", 0.01, 0.05),
    "label_loss_pct": ("lower", 0.5, 0.0),
}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    base: list[float], new: list[float], better: str, bound: float
) -> tuple[str, int]:
    """The verdict on one metric of one workload, and the pairs new won."""
    sign = 1.0 if better == "higher" else -1.0
    q1, base_median, q3 = _quartiles(base)
    gain = sign * (statistics.median(new) - base_median)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if gain < -bound * abs(base_median):
        return "worse", wins
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "better", wins
    beats_all = min(sign * n for n in new) > max(sign * b for b in base)
    if q3 - q1 > bound * abs(base_median) and not beats_all:
        return "unresolved", wins
    return "unchanged", wins


def _load(path: str) -> list[dict]:
    with open(path) as handle:
        return [run for run in json.load(handle)["runs"] if not run["trace"]]


def _fmt(values: list[float]) -> str:
    q1, median, q3 = _quartiles(values)
    return f"{median:10.4g} [{q1:.4g}, {q3:.4g}]"


def _failed_pct(runs: list[dict]) -> float:
    return 100.0 * sum(run["failed"] for run in runs) / sum(run["attempted"] for run in runs)


def main(argv: list[str], spec: dict) -> int:
    """Print the comparison; 1 if anything regressed, 2 on bad input."""
    if len(argv) != 2:
        print("usage: run.py compare BASE.json NEW.json", file=sys.stderr)
        return 2
    base_runs, new_runs = _load(argv[0]), _load(argv[1])
    for workload in dict.fromkeys(run["workload"] for run in base_runs + new_runs):
        settings = {
            (run["seconds"], run["tiny"])
            for run in base_runs + new_runs
            if run["workload"] == workload
        }
        if len(settings) > 1:
            print(f"error: {workload}: runs of different length or size "
                  f"(seconds, tiny) {sorted(settings)}", file=sys.stderr)
            return 2
    worse = 0
    print(f"{'workload':<12} {'metric':<16} {'base median [Q1, Q3]':>30} "
          f"{'new median [Q1, Q3]':>30} {'change':>8} {'wins':>6}  verdict")
    for workload in dict.fromkeys(run["workload"] for run in base_runs):
        base = [run for run in base_runs if run["workload"] == workload]
        new = [run for run in new_runs if run["workload"] == workload]
        if not new:
            print(f"{workload:<12} (no runs in {argv[1]})")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [run["metrics"][name]["value"] for run in base]
            n = [run["metrics"][name]["value"] for run in new]
            label, wins = verdict(b, n, metric["better"], metric["bound"])
            change = statistics.median(n) / statistics.median(b) - 1
            worse += label == "worse"
            print(f"{workload:<12} {name:<16} {_fmt(b):>30} {_fmt(n):>30} "
                  f"{change:>+8.1%} {wins:>2}/{min(len(b), len(n)):<3}  {label}")
        was, now = _failed_pct(base), _failed_pct(new)
        label = "worse" if now > was else "better" if now < was else "unchanged"
        worse += label == "worse"
        print(f"{workload:<12} {'failed_ops_pct':<16} {was:>30.4g} {now:>30.4g} "
              f"{'':>8} {'':>6}  {label}")
        by_seed = {run["seed"]: run for run in base}
        for run in new:
            old = by_seed.get(run["seed"])
            if old is None:
                continue
            if run["fingerprint"] != old["fingerprint"]:
                print(f"{workload:<12} seed {run['seed']}: fingerprint changed")
            for name, (better, absolute, relative) in GUARDS.items():
                if name not in old["outputs"] or name not in run["outputs"]:
                    continue
                was, now = old["outputs"][name], run["outputs"][name]
                tolerance = max(absolute, relative * abs(was))
                sign = 1.0 if better == "higher" else -1.0
                if sign * (now - was) < -tolerance:
                    worse += 1
                    print(f"{workload:<12} {name:<16} seed {run['seed']}: "
                          f"{was:.6g} -> {now:.6g} (tolerance {tolerance:.3g})  worse")
            by_seed.pop(run["seed"])
    return 1 if worse else 0
