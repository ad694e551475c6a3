"""qslimit benchmark: one workload, one seed, every metric printed by name.

    python3 perfbench/run.py --workload report --seed 42 --seconds 10 --trace 0

Run it from the root of a source checkout (it imports qslimit from src/).
The loop is closed, with one caller: iterations run one after another, each
in a fresh interpreter (perfbench/worker.py) with BLAS/OpenMP threads capped
at the number of usable cores, until --seconds have been measured; there is
always at least one.

--trace 0 prints the end-to-end metrics: the median wall time of an
iteration, the median set-up time of a fresh process over at least
SETUP_SAMPLES set-ups, the median peak resident memory and the moment gap.
--trace 1 runs the same untraced iterations, then one traced iteration, and
prints the per-layer metrics with the tracing overhead (traced wall time
minus the untraced median).  The traced run's gate details, timings aside,
must equal the untraced run's.

Every check of every iteration counts as one attempt.  The lines before the
last give the environment and each check; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  Results and spans are
also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("report", "density-fine", "simulate")
SETUP_SAMPLES = 3
BUDGET_S = 170.0          # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_TIMING = re.compile(r"\d+(?:\.\d+)?s\b")


def without_timings(detail: str) -> str:
    """A gate detail with its seconds masked, for comparing two runs."""
    return _TIMING.sub("<t>s", detail)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Runner:
    """Starts workers one at a time and keeps the whole run inside its budget."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.nproc = len(os.sched_getaffinity(0))
        self.caps = {var: str(self.nproc) for var in THREAD_VARS}
        self.env = {**os.environ, **self.caps}
        self.t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def worker(self, mode: str, *extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), mode, self.workload,
               str(self.seed), *extra]
        left = BUDGET_S - self.elapsed()
        if left <= 0:
            raise TimeoutError("the run is out of time")
        done = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                              text=True, timeout=left)
        if done.returncode != 0:
            raise RuntimeError(f"worker {mode} exited with code {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def measure(args) -> tuple:
    runner = Runner(args.workload, args.seed)
    runs = []
    while not runs or runner.elapsed() < args.seconds:
        runs.append(runner.worker("run"))
    # every iteration of one seed must give the same outputs
    details = [[(n, ok, without_timings(d)) for n, ok, d in r["checks"]] for r in runs]
    checks = [c for r in runs for c in r["checks"]]
    if len(runs) > 1:
        same = all(d == details[0] for d in details)
        checks.append(["repeatable", same, f"{len(runs)} iterations agree: {same}"])
    setups = [r["setup_s"] for r in runs]
    traced = None
    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        traced = runner.worker("trace", "--spans", str(spans))
        same = [(n, ok, without_timings(d)) for n, ok, d in traced["checks"]] == details[0]
        checks += traced["checks"]
        checks.append(["trace-matches-untraced", same,
                       f"traced gate details equal the untraced ones: {same}"])
    else:
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.worker("setup")["setup_s"])
    env = {
        "git_sha": git_sha(),
        "nproc": runner.nproc,
        "cpu": cpu_model(),
        **runs[0]["versions"],
        "thread_caps": runner.caps,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "iterations": len(runs),
        "setup_samples": len(setups),
    }
    return runs, setups, traced, checks, env


def metrics_of(runs, setups, traced) -> dict:
    walls = [r["wall_s"] for r in runs]
    if traced is None:
        gaps = [r["moment_gap"] for r in runs]
        return {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs),
                            "unit": "MiB"},
            "moment_gap": {"value": None if None in gaps else statistics.median(gaps),
                           "unit": "1"},
        }
    out = {name: {"value": value, "unit": unit}
           for name, (value, unit) in traced["per_layer"].items()}
    out["trace.overhead_s"] = {"value": traced["wall_s"] - statistics.median(walls),
                               "unit": "s"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qslimit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qslimit" / "__init__.py").is_file():
        print(f"perfbench: no qslimit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        runs, setups, traced, checks, env = measure(args)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failed = sum(not ok for _, ok, _ in checks)
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics_of(runs, setups, traced),
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w") as fh:
        json.dump({"env": env, "walls": [r["wall_s"] for r in runs], "setups": setups,
                   "checks": checks,
                   "counters": traced and traced["counters"], **result}, fh, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    print(f"checks_failed {failed}/{len(checks)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
