"""One workload in one fresh process: warm up, then a timed closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout root with PYTHONPATH=src (run.py does this).  One
client issues each operation after the previous one returned.  Only the
library call is timed; checks run between calls.  Call times are scaled
to a reference host speed by `calibrate`.  `--seconds` sets the work: the
number of whole rounds that took that long on the machine the benchmark
was tuned on (a shared 2-core Linux VM).  So every run of a seed
measures the same operations, and the run length moves with the program's
speed.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import calibrate
import workloads
from tracer import Tracer

SPANS_DIR = Path(".perfbench")
# A program this many times slower than planned stops early, so that the run
# still ends in time; it then reports fewer attempted operations.
WALL_CAP = 3


def report_failure(workload: str, phase: str, index: int, op, reason: str) -> None:
    record = {"workload": workload, "phase": phase, "op": index, "name": op.name,
              "reason": reason, "inputs": op.inputs}
    print("FAILED " + json.dumps(record, default=str), file=sys.stderr, flush=True)


def run_op(op):
    """(seconds, result, failure reason or None)."""
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # any exception is a failed operation
        return time.perf_counter() - t0, None, f"raised {exc!r}"
    elapsed = time.perf_counter() - t0
    return elapsed, result, op.check(result)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    load = workloads.WORKLOADS[args.workload](args.seed)

    warm_failed = 0
    for i, op in enumerate(load.warmup()):
        _, _, reason = run_op(op)
        if reason is not None:
            warm_failed += 1
            report_failure(args.workload, "warmup", i, op, reason)
    if tracer:
        tracer.reset()

    times = calibrate.Scaler()
    round_sizes: list[int] = []
    failed = 0
    rep_bits = 0
    start = time.perf_counter()
    planned = max(1, round(args.seconds / load.ROUND_S))
    while len(round_sizes) < planned and time.perf_counter() - start < WALL_CAP * args.seconds:
        r = len(round_sizes)
        if tracer:
            tracer.record_bits = r == 0
        first = len(times.raw)
        for op in load.round(r):
            index = len(times.raw)
            if tracer:
                tracer.current_op = index
            elapsed, result, reason = run_op(op)
            times.add(elapsed)
            if reason is not None:
                failed += 1
                report_failure(args.workload, "timed", index, op, reason)
            elif r == 0 and op.rep_bits is not None:
                rep_bits = max(rep_bits, op.rep_bits(result))
        round_sizes.append(len(times.raw) - first)
    times.flush()

    out = {
        "attempted": len(times.raw),
        "failed": failed,
        "warmup_failed": warm_failed,
        "rounds": len(round_sizes),
        "wall_s": time.perf_counter() - start,
        "raw_s": sum(times.raw),
        "latencies": times.scaled,
        "round_sizes": round_sizes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        calls, self_ns = tracer.self_times()
        out["trace"] = {
            "calls": calls,
            "self_ns": self_ns,
            "caches": tracer.cache_counts(),
            "snf_bits": tracer.snf_bits,
            "rep_bits": rep_bits,
            "classes": tracer.classes,
            "class_ns": tracer.class_ns,
            "vectors": tracer.vectors,
            "vector_ns": tracer.vector_ns,
        }
        tracer.dump(SPANS_DIR / f"spans-{args.workload}.jsonl.gz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
