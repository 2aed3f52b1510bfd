"""End-to-end, layer-attributed wall-clock benchmark of the fleet simulator.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--trace [0|1]] [--out FILE] [--tiny]
    python3 benchmarks/e2e/run.py compare BASE.json NEW.json

``PYTHONPATH=src python -m benchmarks.e2e.run ...`` is the same
command.  Each workload (see ``BENCHMARK.json`` at the repository root
and ``workloads.py``) runs in a fresh child process, one at a time,
single-threaded (``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS
=1``): a closed loop with one client.  The child sets the workload up
at least three times (``setup_s`` is the median), then repeats its
operation for ``run_seconds`` of ``BENCHMARK.json`` (at least three
times) and reports medians.  The run length is fixed so that runs of
two commits compare: ``--seconds`` is accepted only with that value
(0 with ``--tiny``), and every record stores it.  Every repeat must
reproduce the first one's fingerprint and pass the workload's checks;
the result says how many operations were attempted and failed.

``--trace 1`` alternates untraced and traced repeats instead.  Traced
repeats run under :class:`tracer.Tracer`, which wraps each layer's
public functions from this directory, and report per-layer self time
and counts per operation (the ``per_layer`` metrics of
``BENCHMARK.json``).  The untraced repeats give ``trace.overhead_pct``
and the reference fingerprint the traced ones must match.

Output goes to stdout only — a table per run, then one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — and, with
``--out FILE``, the full records appended to FILE for ``compare``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

#: the child's BLAS pools: one thread, so a run measures one core
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: set-ups per run: at least this many, and until they took this share
#: of the measuring time (cheap set-ups get a steadier median);
#: ``setup_s`` is their median
SETUP_REPEATS = 3
SETUP_SHARE = 0.05
#: operations per run, at least (per kind in a traced run)
MIN_OPS = 3
MIN_TRACED_OPS = 2


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units and bounds."""
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as error:
        raise BenchmarkError(f"cannot read {SPEC_PATH.name}: {error}") from error


# ---------------------------------------------------------------------------
# child: one workload in this process
# ---------------------------------------------------------------------------
def _median(values) -> float:
    return float(statistics.median(values))


def _import_repro():
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchmarkError(f"imported repro from {repro.__file__}, not {SRC}")


def layer_metrics(tracer, traced_ops: int, counts: dict, extra: dict) -> dict:
    """The ``per_layer`` metrics, per traced operation, with units.

    ``counts`` are one operation's upload and retry counts (identical
    on every repeat); ``extra`` adds metrics measured outside the tracer.
    """
    from tracer import BOUNDARIES, ROOT as ROOT_LAYER

    per_op = 1.0 / traced_ops
    layers = sorted({layer for layer, _, _ in BOUNDARIES if isinstance(layer, str)})
    layers += ["core.cloud_train", ROOT_LAYER]
    out = {f"{layer}.self_s": (tracer.self_s[layer] * per_op, "s") for layer in layers}

    def calls(layer: str) -> float:
        return tracer.layer_calls[layer] * per_op

    for layer in (
        "video.render", "video.scene", "detection.student_infer",
        "detection.teacher", "nn.conv2d.fwd", "nn.conv2d.bwd",
        "core.replay_seed", "core.labeling", "core.cluster", "core.batching",
        "core.faults", "core.autoscaling", "core.federation", "network.link",
        "runtime.journal", "eval.scoring",
    ):
        out[f"{layer}.calls"] = (calls(layer), "count")

    def per_call(boundary: str, scale: float) -> float:
        count = tracer.calls[boundary]
        return tracer.inclusive[boundary] / count * scale if count else 0.0

    out["video.render.us_per_call"] = (per_call("FrameRenderer.render", 1e6), "us")
    out["detection.student_infer.ms_per_call"] = (
        per_call("StudentDetector.detect", 1e3), "ms")
    out["nn.optim.steps"] = (calls("nn.optim"), "count")
    for layer in ("core.edge_train", "core.cloud_train"):
        out[f"{layer}.steps"] = (tracer.steps[layer] * per_op, "count")
    sent = counts.get("uploads_sent", 0)
    out["core.labeling.useful_ratio"] = (
        counts.get("uploads_labeled", 0) / sent if sent else 0.0, "ratio")
    out["core.faults.retries"] = (counts.get("retries", 0), "count")
    events = tracer.calls["SessionKernel.dispatch"]
    out["runtime.kernel.events"] = (events * per_op, "count")
    out["runtime.kernel.us_per_event"] = (
        tracer.self_s["runtime.kernel"] / events * 1e6 if events else 0.0, "us")
    frames = sorted(tracer.samples["EdgeActor.on_frame"])
    out["core.edge.on_frame.n"] = (len(frames) * per_op, "count")
    for name, q in (("p50_ms", 0.50), ("p99_ms", 0.99)):
        value = frames[min(len(frames) - 1, int(q * len(frames)))] * 1e3 if frames else 0.0
        out[f"core.edge.on_frame.{name}"] = (value, "ms")
    wall = tracer.inclusive[ROOT_LAYER]
    out["trace.coverage_pct"] = (100.0 * (1 - tracer.self_s[ROOT_LAYER] / wall), "%")
    out.update(extra)
    return out


def run_child(args) -> dict:
    """Set one workload up, repeat its operation, return the record."""
    _import_repro()
    import numpy as np

    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload[0]]
    if args.tiny:
        workload = workloads.tiny(workload)

    setup_s, pretrain_s, prepared = [], [], None
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SHARE * args.seconds:
        prepared = None
        gc.collect()
        start = time.perf_counter()
        prepared = workload.setup(args.seed)
        setup_s.append(time.perf_counter() - start)
        pretrain_s.append(prepared.pretrain_s)

    tracer = Tracer()
    ops, reference, failures, peak_rss_mb = [], None, {}, 0.0
    deadline = time.perf_counter() + args.seconds

    def enough() -> bool:
        plain = sum(1 for op in ops if not op["traced"])
        traced = len(ops) - plain
        if args.trace:
            return plain >= MIN_TRACED_OPS and traced >= MIN_TRACED_OPS
        return plain >= MIN_OPS

    while not enough() or time.perf_counter() < deadline:
        traced = bool(args.trace) and len(ops) % 2 == 1
        gc.collect()
        if traced:
            with tracer.installed():
                start = time.perf_counter()
                with tracer.root():
                    outcome = prepared.run()
                wall = time.perf_counter() - start
        else:
            start = time.perf_counter()
            outcome = prepared.run()
            wall = time.perf_counter() - start
        if not ops:
            # the high-water mark after the set-ups and one operation:
            # later repeats raise it by however much the allocator
            # fragmented, which grows with the number of repeats
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        signatures = list(outcome.failures)
        if reference is None and not signatures:
            reference = outcome
        if not signatures and outcome.fingerprint != reference.fingerprint:
            kind = "traced_fingerprint" if traced else "nondeterministic"
            signatures = [kind] * outcome.operations
        for signature in signatures:
            failures[signature] = failures.get(signature, 0) + 1
        ops.append({
            "traced": traced,
            "wall_s": wall,
            "frames": outcome.frames,
            "operations": outcome.operations,
            "failed": len(signatures),
        })

    plain = [op for op in ops if not op["traced"]]
    if args.trace:
        traced_ops = [op for op in ops if op["traced"]]
        base = _median(op["wall_s"] for op in plain)
        counts = {} if reference is None else reference.counts
        metrics = layer_metrics(tracer, len(traced_ops), counts, {
            "setup.pretrain_s": (_median(pretrain_s), "s"),
            "trace.overhead_pct": (
                100.0 * (_median(op["wall_s"] for op in traced_ops) / base - 1), "%"),
        })
    else:
        metrics = {
            "wall_s": (_median(op["wall_s"] for op in plain), "s"),
            "frames_per_s": (_median(op["frames"] / op["wall_s"] for op in plain), "1/s"),
            "setup_s": (_median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": int(args.trace),
        "tiny": args.tiny,
        "seconds": args.seconds,
        "numpy": np.__version__,
        "setup_s": setup_s,
        "ops": ops,
        "attempted": sum(op["operations"] for op in ops),
        "failed": sum(op["failed"] for op in ops),
        "failures": failures,
        "fingerprint": "" if reference is None else reference.fingerprint,
        "outputs": {} if reference is None else reference.outputs,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# parent: one child per workload, report
# ---------------------------------------------------------------------------
def spawn(workload: str, args) -> dict:
    """Run one workload in a fresh single-threaded child; return its record.

    The child may take three times the measuring time and a minute
    more (imports, set-ups, the operation that overruns the deadline)
    before it is killed and the run fails.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ] + (["--trace"] if args.trace else []) + (["--tiny"] if args.tiny else [])
    timeout = 3 * args.seconds + 60
    env = dict(os.environ, **BLAS_ENV)
    with subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True) as child:
        try:
            stdout, _ = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise BenchmarkError(f"{workload}: child ran over {timeout} s")
    if child.returncode != 0:
        raise BenchmarkError(f"{workload}: child exited with code {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def environment() -> dict:
    """The reproducibility header every run records."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_ENV,
        "platform": platform.platform(),
    }


def print_record(record: dict) -> None:
    ops = record["ops"]
    plain = sum(1 for op in ops if not op["traced"])
    print(
        f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"numpy={record['numpy']}: {len(ops)} ops ({plain} untraced), "
        f"{record['attempted']} attempted, {record['failed']} failed "
        f"{record['failures'] or ''}"
    )
    print(f"   fingerprint {record['fingerprint']}  set-ups {len(record['setup_s'])}")
    for name, metric in record["metrics"].items():
        print(f"   {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in record["outputs"].items():
        print(f"   (sim) {name:<34} {value:>14.6g}")


def summary_line(records: list[dict]) -> dict:
    """The last stdout line; with several workloads, names get a prefix."""
    metrics = {}
    for record in records:
        for name, metric in record["metrics"].items():
            key = name if len(records) == 1 else f"{record['workload']}.{name}"
            metrics[key] = metric
    failed = sum(record["failed"] for record in records)
    return {
        "correct": failed == 0 and all(record["fingerprint"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": failed,
        "metrics": metrics,
    }


def append_out(path: str, records: list[dict]) -> None:
    """Append this invocation's records to a results file (for compare)."""
    target = Path(path)
    data = json.loads(target.read_text()) if target.exists() else {"runs": []}
    data["runs"].extend(records)
    target.write_text(json.dumps(data, indent=1) + "\n")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="End-to-end, layer-attributed wall-clock benchmark.",
    )
    parser.add_argument("--workload", nargs="+", default=None,
                        help="workloads to run (default: all in BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 1 is the held-out seed for claims")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run; fixed: run_seconds of "
                             "BENCHMARK.json, or 0 with --tiny")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", default=None,
                        help="append the full records to this JSON file")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes, measuring for 0 s")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        try:
            return compare.main(argv[1:], load_spec())
        except (BenchmarkError, OSError, ValueError, KeyError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    args = parse_args(argv)
    try:
        if args.child:
            print(json.dumps(run_child(args)))
            return 0
        spec = load_spec()
        names = [workload["name"] for workload in spec["workloads"]]
        args.workload = args.workload or names
        unknown = sorted(set(args.workload) - set(names))
        if unknown:
            raise BenchmarkError(f"unknown workloads {unknown}; choose from {names}")
        seconds = 0 if args.tiny else spec["run_seconds"]
        if args.seconds not in (None, seconds):
            raise BenchmarkError(
                f"--seconds {args.seconds:g}: the run length is fixed at {seconds} s")
        args.seconds = seconds
        header = environment()
        print(f"# e2e benchmark seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in header.items()))
        records = []
        for workload in args.workload:
            record = spawn(workload, args) | {"env": header}
            print_record(record)
            records.append(record)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.out:
        append_out(args.out, records)
    print(json.dumps(summary_line(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
