"""One workload run in a process of its own; started by run.py.

Prints ``ready`` once set-up is done, then, unless ``--setup-only``, runs
whole rounds until ``--seconds`` have passed and prints one JSON line with
every operation's latency and outcome, the peak resident memory and, with
``--trace 1``, the per-layer metrics.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path[:0] = [SRC, HERE]
    import workloads

    work = workloads.WORKLOADS[args.workload](args.seed)
    try:
        work.load()
    except ImportError as exc:
        print(f"cannot load fsx from {SRC}: {exc}", file=sys.stderr)
        return 2
    fsx_file = os.path.abspath(sys.modules["fsx"].__file__)
    if not fsx_file.startswith(SRC + os.sep):
        print(f"fsx loaded from {fsx_file}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.new_phase()
        tracer.active = True
    work.prepare()
    if tracer:
        tracer.active = False
    print("ready", flush=True)
    if args.setup_only:
        return 0

    for _ in range(work.warmup_rounds):
        work.round(None)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        if tracer:
            tracer.new_phase()
        rounds.append(work.round(tracer))
    result = {
        "rounds": [r.seconds for r in rounds],
        "latencies": [o.seconds for r in rounds for o in r.outcomes],
        "attempted": sum(len(r.outcomes) for r in rounds),
        "failed": sum(o.failed for r in rounds for o in r.outcomes),
        "wrong": sum(o.wrong for r in rounds for o in r.outcomes),
        "failures": sorted({o.name for r in rounds for o in r.outcomes if o.failed}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        from spans import layer_metrics

        result["layers"] = layer_metrics(tracer.phases[0], tracer.phases[1:])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
