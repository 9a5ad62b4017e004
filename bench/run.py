"""Benchmark entry point: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository; fsx is loaded from its
``src`` directory.  Each workload run happens in a fresh process
(bench/worker.py).  Set-up time is the median over several fresh processes,
each timed from its start until its inputs are built and its caches warm.
The last line printed is one JSON object: correct, attempted, failed and the
metrics, the end-to-end ones with --trace 0 and the per-layer ones with
--trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("desk_verify", "norm_queries", "halfspace_solves")
SETUP_RUNS = 9  # fresh processes timed for set-up, the measured run included
DEADLINE = 170.0  # seconds the whole benchmark may take


class WorkerError(RuntimeError):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def start_worker(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ready line; returns it and its set-up time."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed), *extra]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, DEADLINE)
        raise WorkerError(f"worker did not get ready: {line!r}")
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise WorkerError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}", proc.returncode)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    began = time.perf_counter()
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                proc, setup = start_worker(args, ["--setup-only"])
                finish(proc, DEADLINE)
                setups.append(setup)
        proc, setup = start_worker(
            args, ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        )
        setups.append(setup)
        out = finish(proc, DEADLINE - (time.perf_counter() - began))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if exc.code > 0 else 1
    run = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        metrics = run["layers"]
    else:
        latencies = run["latencies"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(run["rounds"]), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "op_p90_ms": {
                "value": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
                "unit": "ms",
            },
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    if run["failures"]:
        print("failed operations: " + ", ".join(run["failures"]), file=sys.stderr)
    result = {
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
