"""One benchmark process: set-up, then the timed closed loop; prints JSON.

Started by ``run.py`` with the thread environment pinned and ``src`` on
``PYTHONPATH``; ``--t0`` is the runner's ``perf_counter`` reading just
before the start (CLOCK_MONOTONIC, shared by all processes on Linux), so
``setup_s`` covers interpreter start, ``import rkhsivp``, generating and
loading the problems and one untimed warm-up op.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import tracing
from workloads import WORKLOADS, timed

FAILURES_KEPT = 20


class Phase:
    """Samples of one closed-loop phase."""

    def __init__(self):
        self.seconds: list[float] = []
        self.errors: list[float] = []
        self.failures: list[str] = []
        self.failed = 0
        self.elapsed = 0.0

    def record(self, i: int, dt: float, result) -> None:
        self.seconds.append(dt)
        if math.isfinite(result.error):
            self.errors.append(result.error)
        if not result.ok:
            self.failed += 1
            if len(self.failures) < FAILURES_KEPT:
                self.failures.append(f"op {i}: {result.detail}")

    def summary(self) -> dict:
        return {
            "op_s": self.seconds,
            "elapsed_s": self.elapsed,
            "attempted": len(self.seconds),
            "failed": self.failed,
            "failures": self.failures,
            "max_abs_error": max(self.errors, default=None),
        }


def run_phase(op, duration: float, first: int, phase: Phase) -> int:
    """Closed loop, one client: the next op starts when the last one ends."""
    i = first
    start = time.perf_counter()
    while True:
        dt, result = timed(lambda: op(i))
        phase.record(i, dt, result)
        i += 1
        if time.perf_counter() - start >= duration:
            break
    phase.elapsed = time.perf_counter() - start
    return i


def traced_phase(wl, duration: float, first: int, phase: Phase) -> tracing.Tracer:
    """The closed loop again, with the span wrappers installed."""
    tracer = tracing.Tracer()
    if wl.name == "cli_cold":
        clitrace = os.path.join(os.path.dirname(os.path.abspath(__file__)), "clitrace.py")
        wl.traced_cmd = [sys.executable, "-X", "importtime", clitrace]

        def call(i, root):
            return wl.op(i, on_done=lambda proc: merge_child(tracer, root, proc.stderr))
    else:
        wl.wrap_problems(tracer.count_rhs)

        def call(i, root):
            return wl.op(i)

    def op(i):
        tracer.op_id = i
        root = tracer.begin(tracing.OP_SPAN)
        try:
            return call(i, root)
        finally:
            tracer.finish(root)
            tracer.counts["collocation.basis_bytes"] += tracer.take_bases()

    uninstall = tracing.install(tracer)
    try:
        run_phase(op, duration, first, phase)
    finally:
        uninstall()
    return tracer


def merge_child(tracer: tracing.Tracer, root: int, stderr: str) -> None:
    """Fold a traced CLI process's spans, counters and import times in."""
    for line in stderr.splitlines():
        if line.startswith(tracing.MARKER):
            payload = json.loads(line[len(tracing.MARKER):])
            base = len(tracer.name)
            for name, start, end, parent, _ in payload["spans"]:
                tracer.add(name, start, end, base + parent if parent >= 0 else root)
            for key, value in payload["counts"].items():
                tracer.counts[key] += value
    for key, value in tracing.import_times(stderr).items():
        tracer.counts[key] += value


def layer_metrics(tracer: tracing.Tracer, ops: int) -> dict:
    """Per-op self seconds, calls and counters; the op span's self time is
    the benchmark's own glue, so everything sums to the traced op time."""
    selfs, calls = tracer.self_times()
    out = {}
    for mod, qualname in tracing.TRACED:
        name = tracing.span_name(mod, qualname)
        out[f"{name}.self_s"] = selfs.get(name, 0.0) / ops
        out[f"{name}.calls"] = calls.get(name, 0) / ops
    for key, value in tracer.counts.items():
        out[key] = value / ops
    out["trace.unattributed_s"] = selfs.get(tracing.OP_SPAN, 0.0) / ops
    out["trace.op_s.mean"] = sum(selfs.values()) / ops
    return out


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints instead
        blas = None
    return {
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # The in-process workloads import rkhsivp while they set up.
    wl = WORKLOADS[args.workload](args.root, args.seed, args.toy, args.workdir,
                                  dict(os.environ))
    warmup_s, warmup = timed(lambda: wl.op(0))
    setup_s = time.perf_counter() - args.t0
    out = {"setup_s": setup_s, "warmup_s": warmup_s,
           "warmup": {"ok": warmup.ok, "error": warmup.error, "detail": warmup.detail}}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    untraced = Phase()
    duration = args.seconds / 2 if args.trace else args.seconds
    nxt = run_phase(wl.op, duration, 0, untraced)
    out["untraced"] = untraced.summary()
    who = resource.RUSAGE_CHILDREN if wl.peak_rss_children else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0

    if args.trace:
        traced = Phase()
        tracer = traced_phase(wl, duration, nxt, traced)
        layers = layer_metrics(tracer, len(traced.seconds))
        layers["trace.overhead_ratio"] = (
            statistics.median(traced.seconds) / statistics.median(untraced.seconds) - 1.0
        )
        out["traced"] = traced.summary()
        out["per_layer"] = layers
        out["spans"] = len(tracer.name)
        out["spans_file"] = os.path.join(args.workdir, "spans.json.gz")
        tracer.write(out["spans_file"])
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
