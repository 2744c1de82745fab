"""Machine-speed calibration: times are scaled to a reference speed.

The benchmark runs on shared hosts whose speed swings by a quarter within
seconds (same process, same inputs, CPU time tracking wall time, so the
cause is the host and not the program).  A fixed kernel of work like the
workloads' own (argparse, json, Fraction elimination, big integers, class
enumeration), made of the standard library and `oracle` and never touching
`combings`, is timed right before and right after every segment of about
SEGMENT_S seconds of measured calls.  Each call's time
is multiplied by REF_KERNEL_S over the mean kernel time around its segment:
the time it would have taken on a host that runs the kernel in REF_KERNEL_S.
A change to the program moves the scaled times exactly as the raw ones; a
change of host speed during a run moves both the calls and the kernel.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time
from fractions import Fraction

import oracle

REF_KERNEL_S = 0.00375  # one kernel on the fast state of a shared 2-core VM
KERNELS = 5  # kernels per measurement; their median is the reading
SEGMENT_S = 0.25  # seconds of measured calls between two measurements

_RNG = random.Random(1)
_DENSE = [[_RNG.randint(-5, 5) for _ in range(16)] for _ in range(16)]
_TORSION = [[3, 1, 0], [1, -4, 2], [0, 2, 5]]


def kernel() -> None:
    """One pass over each kind of work the workloads do: argument parsing and
    JSON (cli-small), Fraction elimination (combing-sweep), fraction-free
    big-integer elimination (large-presentation) and a class enumeration
    with rational self-linkings (torsion-image)."""
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command")
    for i in range(15):
        cmd = sub.add_parser(f"c{i}", help=f"command {i}")
        cmd.add_argument("--box", type=int)
        cmd.add_argument("file", nargs="?")
    parser.parse_args(["c3", "--box", "4"])
    json.loads(json.dumps({"m": _DENSE}))
    m = [[Fraction(x) for x in row[:6]] for row in _DENSE[:6]]
    for k in range(6):
        pivot = next((i for i in range(k, 6) if m[i][k]), None)
        if pivot is None:
            continue
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, 6):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    oracle.det(_DENSE)
    reps, adj, d = oracle.discriminant_group(_TORSION)
    {oracle.self_linking(adj, d, v) for v in reps}


def measure() -> float:
    """Seconds per kernel now: the median of KERNELS timed kernels."""
    times = []
    for _ in range(KERNELS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to reference seconds between two readings."""
    return REF_KERNEL_S / ((before + after) / 2)


class Scaler:
    """Collects raw call times and scales each segment of them by the
    readings taken on both sides of it.  Call `flush` after the last call."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._before = measure()
        self._busy = 0.0

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self._busy += seconds
        if self._busy >= SEGMENT_S:
            self.flush()

    def flush(self) -> None:
        first = len(self.scaled)
        if first == len(self.raw):
            return
        after = measure()
        factor = scale(self._before, after)
        self.scaled.extend(s * factor for s in self.raw[first:])
        self._before, self._busy = after, 0.0
