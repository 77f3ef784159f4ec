"""timdof benchmark: seeded analysis requests through the CLI, closed loop, one client.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the program is imported from its
``src``.  Each workload runs in fresh worker processes, one after another,
with BLAS and OpenMP pinned to one thread.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
--workload all runs every workload.  Before measuring, a self-test shows
that every output check can fail.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
DEADLINE_S = 170  # the whole command must end within 180 s
# Request seconds that fit the deadline: on top of its request time, each
# workload spends up to about 20 s on set-ups, checks and its last round.
MAX_REQUEST_S = 75

END_TO_END = (
    ("requests_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def worker_env() -> dict[str, str]:
    from worker import THREAD_VARS

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(args, workload: str, deadline: float, setup_only: bool) -> dict:
    """Run one worker process to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker overran the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{workload} worker printed no result") from exc


def run_workload(args, workload: str, deadline: float) -> tuple[dict, dict]:
    """Returns (worker result, metrics) for one workload."""
    if args.trace:
        result = spawn(args, workload, deadline, setup_only=False)
        return result, result["layers"]
    setups = [spawn(args, workload, deadline, setup_only=True)
              for _ in range(SETUP_SAMPLES - 1)]
    result = spawn(args, workload, deadline, setup_only=False)
    setups.append(dict(result))
    result["setup_samples"] = [s["setup_measured_s"] for s in setups]
    result["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    result["measured"]["setup_s"] = statistics.median(result["setup_samples"])
    return result, {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}


def print_report(workload: str, seed: int, result: dict, metrics: dict) -> None:
    env = result["environment"]
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"environment: nproc={env['nproc']} usable={env['cpus_usable']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} {threads}")
    attempted, failed = result["attempted"], result["failed"]
    rounds = "+".join(map(str, result["rounds"]))
    print(f"{workload} seed={seed}: closed loop, 1 client; {rounds} rounds of "
          f"{result['round_size']} requests, {attempted} attempted")
    if "beyond_p90" in result:
        raw = result["measured"]
        print(f"  {result['request_s']:.2f} s of request time; {result['beyond_p90']} samples "
              f"beyond p90; set-up samples {[round(s, 3) for s in result['setup_samples']]} s")
        print(f"  as measured: {raw['requests_per_s']:.6g} requests/s, "
              f"p50 {raw['request_p50_ms']:.6g} ms, p90 {raw['request_p90_ms']:.6g} ms, "
              f"set-up {raw['setup_s']:.6g} s (the figures below are at the kernel's nominal speed)")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    if "beyond_p90" in result:
        print(f"  {'failed_frac':<52} {failed / attempted:>14.6g} ratio ({failed} of {attempted})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    selected = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seconds * len(selected) > MAX_REQUEST_S:
        parser.error(f"--seconds times the number of workloads may be at most {MAX_REQUEST_S}, "
                     f"so the run ends within {DEADLINE_S} s")
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "timdof" / "__init__.py").is_file():
        print(f"no timdof package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import worker

    problems = checks.selftest(worker.run_request)
    for problem in problems:
        print(f"check self-test: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("check self-test: every corrupted output was counted as failed")

    attempted = failed = 0
    metrics = {}
    try:
        for workload in selected:
            result, wl_metrics = run_workload(args, workload, deadline)
            print_report(workload, args.seed, result, wl_metrics)
            attempted += result["attempted"]
            failed += result["failed"]
            if len(selected) == 1:
                metrics = wl_metrics
            else:
                metrics.update({f"{workload}/{k}": v for k, v in wl_metrics.items()})
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
