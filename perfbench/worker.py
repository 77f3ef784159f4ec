"""Runs one workload in a fresh process and prints its measurements as one JSON line.

run.py starts this script once per set-up sample and once per measured
run, with the program's ``src`` on PYTHONPATH and BLAS and OpenMP pinned
to one thread.  The load is closed-loop with one client: each request
starts when the previous one returns.  Requests run in whole rounds
(see workloads.py) until at least the requested seconds of request time
and MIN_SAMPLES requests are done.  Only the requests are timed; their
outputs are checked between rounds.

On shared machines the CPU speed can drift by tens of percent over tens
of seconds, so every request is bracketed by a fixed calibration kernel,
and its latency is also reported scaled to the kernel's nominal speed.
The set-up time is scaled the same way, by kernel runs taken right after
set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy

from timdof import cli, linear_sim, schemes, topology

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".bench_trace"
MIN_SAMPLES = 120  # so the 90th percentile has at least 10 samples beyond it
MAX_REASONS_SHOWN = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The calibration kernel uses none of the program's code: exact rational
# Gauss-Jordan elimination plus set and dict work, the instruction mix of
# the exact layers.  Scaled latencies are what they would be on a machine
# where one kernel run takes KERNEL_NOMINAL_S.
KERNEL_NOMINAL_S = 1e-3
KERNEL_WINDOW = 4  # request boundaries on each side
SETUP_KERNEL_RUNS = 10
_KERNEL_MATRIX = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + j) % 5 + 1) for j in range(7)]
                  for i in range(7)]


def _kernel() -> float:
    start = time.perf_counter()
    rows = [row[:] for row in _KERNEL_MATRIX]
    for c in range(len(rows)):
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(len(rows)):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    {frozenset((i, i * 3 % 17)) for i in range(300)}
    {i: bin(i).count("1") for i in range(600)}
    return time.perf_counter() - start


def kernel_seconds() -> float:
    """Best of two kernel timings, with the garbage collector off so the
    program's heap cannot slow the kernel."""
    gc.disable()
    try:
        return min(_kernel(), _kernel())
    finally:
        gc.enable()


def run_embed(req):
    """The TDMA optimum embedded as a linear scheme and simulated back."""
    t = topology.make_locally_connected(req.K, req.L, req.mode)
    assignment, schedule, tdma = schemes.optimal_tdma(t)
    scheme = linear_sim.scheme_from_schedule(t, assignment, schedule)
    simulated = linear_sim.evaluate_dof(scheme, t, req.params["trials"], seed=req.params["seed"])
    return assignment, schedule, tdma, simulated


def run_request(req):
    """Execute one request; returns (exit code, output)."""
    if req.argv is None:
        return 0, run_embed(req)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(req.argv))
    return code, out.getvalue()


class Phase:
    """Closed-loop measurement of whole rounds, with checks between rounds."""

    def __init__(self, workload: str, rng: random.Random, tracer: tracing.Tracer | None = None):
        self.workload, self.rng, self.tracer = workload, rng, tracer
        self.latencies: list[float] = []  # as measured
        self.scaled: list[float] = []  # at the calibration kernel's nominal speed
        self.failed = 0
        self.rounds = 0
        self.round_size = 0
        self.ctx = checks.CheckContext()
        self.layers: dict[str, float] = {}
        self.last_spans: list = []

    def run(self, seconds: float, min_samples: int) -> None:
        while sum(self.latencies) < seconds or len(self.latencies) < min_samples:
            self._round()

    def _round(self) -> None:
        requests = workloads.make_round(self.workload, self.rng)
        done, latencies, kernel = [], [], [kernel_seconds()]
        for req in requests:
            if self.tracer:
                self.tracer.request_id += 1
                self.tracer.active = True
            start = time.perf_counter()
            try:
                code, output = run_request(req)
            except Exception:  # a request that raises is counted as failed, the run goes on
                code, output = -1, traceback.format_exc()
            latencies.append(time.perf_counter() - start)
            if self.tracer:
                self.tracer.active = False
            kernel.append(kernel_seconds())
            done.append((req, code, output))
        self.latencies += latencies
        for i, lat in enumerate(latencies):
            # kernel[i] and kernel[i + 1] bracket request i; the median over a
            # few boundaries each side stands for the machine's speed meanwhile
            speed = statistics.median(kernel[max(0, i - KERNEL_WINDOW):i + KERNEL_WINDOW + 2])
            self.scaled.append(lat * KERNEL_NOMINAL_S / speed)
        if self.tracer:
            spans, work = self.tracer.drain()
            for name, value in list(tracing.summarize(spans).items()) + list(work.items()):
                self.layers[name] = self.layers.get(name, 0.0) + value
            self.last_spans = spans
        self.failed += report_failures(done, checks.check_all(done, self.ctx))
        self.rounds += 1
        self.round_size = len(requests)
        # the checks' garbage is the benchmark's, not the program's: collect it untimed
        del done
        gc.collect()

    @property
    def requests_per_s(self) -> float:
        return len(self.scaled) / sum(self.scaled)


def quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (Biometrika 1982).

    A weighted mean of all order statistics with Beta((n+1)q, (n+1)(1-q))
    weights, here integrated by the midpoint rule.  Unlike interpolating
    between the two nearest samples, it does not jump when samples of
    similar cost swap places around the quantile.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_w = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
             for t in ((i + 0.5) / n for i in range(n))]
    top = max(log_w)
    w = [math.exp(v - top) for v in log_w]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def latency_figures(latencies: list[float]) -> dict[str, float]:
    p90 = quantile(latencies, 0.9)
    return {
        "requests_per_s": len(latencies) / sum(latencies),
        "request_p50_ms": quantile(latencies, 0.5) * 1e3,
        "request_p90_ms": p90 * 1e3,
        "beyond_p90": sum(x > p90 for x in latencies),
    }


def report_failures(done, reasons) -> int:
    failures = [(req, code, output, reason)
                for (req, code, output), reason in zip(done, reasons) if reason is not None]
    for req, code, output, reason in failures[:MAX_REASONS_SHOWN]:
        print(f"failed {req.kind} {' '.join(req.argv or ())} K={req.K} L={req.L}: {reason}",
              file=sys.stderr)
        if code == -1:
            print(output, file=sys.stderr)
    return len(failures)


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def layer_metrics(phase: Phase, untraced: Phase) -> dict[str, dict]:
    """Per-layer figures per traced round, plus ratios with their bases."""
    per_round = {name: value / phase.rounds for name, value in phase.layers.items()}
    out = {}
    for name in tracing.TRACED:
        out[f"{name}.calls"] = (per_round.get(f"{name}.calls", 0.0), "count")
        out[f"{name}.self_s"] = (per_round.get(f"{name}.self_s", 0.0), "s")
    for name in tracing.WORK_COUNTS:
        out[name] = (per_round.get(name, 0.0), "count")
    bounds = phase.layers.get(f"{tracing.BEST_BOUND}.calls", 0.0)
    lps = phase.layers.get("lp_in_bounds", 0.0)
    out["demand_graph.lp_per_bound"] = (lps / bounds if bounds else 0.0, "ratio")
    out["demand_graph.lp_per_bound.base"] = (bounds / phase.rounds, "count")
    trials = phase.ctx.wall_trials
    out["linear_sim.wall_frac"] = (phase.ctx.wall_hits / trials if trials else 0.0, "ratio")
    out["linear_sim.wall_frac.base"] = (trials / phase.rounds, "count")
    out["trace.untraced_requests_per_s"] = (untraced.requests_per_s, "1/s")
    out["trace.traced_requests_per_s"] = (phase.requests_per_s, "1/s")
    out["trace.overhead_requests_per_s"] = (untraced.requests_per_s - phase.requests_per_s, "1/s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    program = Path(cli.__file__).resolve().parent
    if program != ROOT / "src" / "timdof":
        print(f"timdof was imported from {program}, not from this checkout", file=sys.stderr)
        return 2
    rng = random.Random(f"{args.workload}/{args.seed}")
    warm = [(req, *run_request(req)) for req in workloads.warmup_requests(args.workload, rng)]
    if report_failures(warm, checks.check_all(warm, checks.CheckContext())):
        return 1
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    # set-up is one interval, so it is scaled by the machine's speed right
    # after it: the fastest of a few kernel runs, the one least disturbed
    speed = min(kernel_seconds() for _ in range(SETUP_KERNEL_RUNS))
    result = {"setup_s": setup_s * KERNEL_NOMINAL_S / speed, "setup_measured_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        untraced = Phase(args.workload, rng)
        untraced.run(args.seconds / 2, 1)
        tracer = tracing.Tracer()
        tracer.install()
        phase = Phase(args.workload, rng, tracer)
        phase.run(args.seconds / 2, 1)
        result["layers"] = layer_metrics(phase, untraced)
        TRACE_DIR.mkdir(exist_ok=True)
        tracing.write_spans(phase.last_spans, TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl")
        phases = (untraced, phase)
    else:
        phase = Phase(args.workload, rng)
        phase.run(args.seconds, MIN_SAMPLES)
        result.update(latency_figures(phase.scaled))
        result.update({
            "measured": latency_figures(phase.latencies),
            "request_s": sum(phase.latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        phases = (phase,)
    result.update({
        "attempted": sum(len(p.latencies) for p in phases),
        "failed": sum(p.failed for p in phases),
        "rounds": [p.rounds for p in phases],
        "round_size": phase.round_size,
        "environment": environment(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
