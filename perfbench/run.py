"""Run one workload of the combings benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the library is imported from ./src.
With --trace 0 it measures set-up time (fresh interpreters running one
trivial CLI call) and then runs the workload untraced in a fresh process
for S seconds.  With --trace 1 it runs the workload twice, S/2 seconds each
in fresh processes, first untraced and then with spans around every layer
function, and reports the per-layer metrics.  Every end-to-end time is
scaled to a reference host speed (see calibrate.py).  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import manifest

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 9
SETUP_DOC = '{"linking_matrix": []}'
SETUP_WANT = {
    "invariant_factors": [],
    "betti_1": 0,
    "dim_h1_mod2": 0,
    "torsion_order": 1,
    "kernel_basis": [],
}
EXIT_LIMIT_S = 170


class BenchError(Exception):
    pass


def environment(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(root / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_once(env, deadline: float) -> float:
    """Wall time of a fresh `python -m combings.cli homology` on the empty
    presentation, with its output checked, scaled by the host speed read
    right before and after it."""
    before = calibrate.measure()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "combings.cli", "homology"],
        input=SETUP_DOC, capture_output=True, text=True, env=env,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or json.loads(proc.stdout or "null") != SETUP_WANT:
        raise BenchError(f"set-up call failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed * calibrate.scale(before, calibrate.measure())


def run_worker(env, args, seconds: float, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process did not finish: {exc}") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ops_per_s(res: dict) -> float:
    """Median over rounds of the round's operations per (scaled) second
    inside the calls.  Every round has the whole mix of commands and sizes,
    so a change to any of them moves it, while a stall moves only the rounds
    it falls in."""
    lat, rates, first = res["latencies"], [], 0
    for size in res["round_sizes"]:
        rates.append(size / sum(lat[first:first + size]))
        first += size
    return statistics.median(rates)


def quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of each rank
    (Simpson's rule on each 1/n interval).  The plain order statistic jumps
    between neighbours wherever the latencies of a workload's command and
    size mix leave gaps; this estimate moves smoothly."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)  # both >= 1: every round has >= 45 ops
    c = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        return math.exp(c + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) if 0 < t < 1 else 0.0

    steps = 8
    weights = []
    for i in range(n):
        ts = [(i + j / steps) / n for j in range(steps + 1)]
        coef = [1 if j in (0, steps) else 4 if j % 2 else 2 for j in range(steps + 1)]
        weights.append(sum(k * density(t) for k, t in zip(coef, ts)))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(res: dict, setup: list[float]) -> dict[str, float]:
    lat = res["latencies"]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops_per_s(res),
        "latency_p50_ms": quantile(lat, 0.5) * 1e3,
        "latency_p90_ms": quantile(lat, 0.9) * 1e3,
        # add-one estimate: never 0, and one failure at least doubles it
        "failed_ratio": (res["failed"] + 1) / (res["attempted"] + 1),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def layer_metrics(plain: dict, traced: dict) -> dict[str, float]:
    t = traced["trace"]
    out: dict[str, float] = {}
    for layer, functions in manifest.TRACED_FUNCTIONS.items():
        for fn in functions:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = t["calls"].get(name, 0)
            out[f"{name}.self_s"] = t["self_ns"].get(name, 0) / 1e9
        # every wrapped function of the module, listed above or not
        out[f"{layer}.self_s"] = sum(
            ns for name, ns in t["self_ns"].items() if name.startswith(layer + ".")
        ) / 1e9
    out["linalg.snf.max_bits"] = t["snf_bits"]
    out["surgery.rep.max_bits"] = t["rep_bits"]
    out["surgery.enumerate_torsion.us_per_class"] = (
        t["class_ns"] / 1e3 / t["classes"] if t["classes"] else 0.0
    )
    out["combing.p1_image.us_per_vector"] = (
        t["vector_ns"] / 1e3 / t["vectors"] if t["vectors"] else 0.0
    )
    out.update(t["caches"])
    out["trace.overhead_ratio"] = ops_per_s(traced) / ops_per_s(plain)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(manifest.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + EXIT_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "combings" / "__init__.py").is_file():
        print(f"benchmark failed: no src/combings under {root}", file=sys.stderr)
        return 2
    env = environment(root)
    try:
        if args.trace:
            runs = [
                run_worker(env, args, args.seconds / 2, traced, deadline)
                for traced in (False, True)
            ]
            metrics = layer_metrics(*runs)
            units = {k: v[0] for k, v in manifest.per_layer().items()}
        else:
            setup_once(env, deadline)  # compiles the bytecode cache; not timed
            setup = [setup_once(env, deadline) for _ in range(SETUP_RUNS)]
            runs = [run_worker(env, args, args.seconds, False, deadline)]
            metrics = end_to_end(runs[0], setup)
            units = {k: v[0] for k, v in manifest.END_TO_END.items()}
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    warm_failed = sum(r["warmup_failed"] for r in runs)
    for r, label in zip(runs, ("untraced", "traced")):
        print(f"# {args.workload} seed {args.seed} {label}: {r['attempted']} ops "
              f"in {r['rounds']} rounds, {r['wall_s']:.1f} s wall, {r['raw_s']:.2f} s "
              f"in calls ({sum(r['latencies']):.2f} s scaled), {r['failed']} failed, "
              f"{r['warmup_failed']} warm-up failures")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and warm_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
