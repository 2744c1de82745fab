"""Run one benchmark workload on a parent revision and on the working tree,
in alternating pairs, and summarise each end-to-end metric.

The parent revision is exported with `git archive` into a temporary
directory, which is removed at the end, so the repository gains no
worktree entry.  Both trees are byte-compiled first (`python -m compileall
-q src`).  Pair k runs `python3 perfbench/run.py --workload W --seed s
--seconds S --trace 0` once in each tree on seed s = first seed + k, the
parent first on even k and the working tree first on odd k, and reads the
last JSON line of each run.  Every run is printed; then, for each
end-to-end metric of BENCHMARK.json, both medians, the parent's
interquartile range as a share of its median, and the number of pairs the
change wins.  A gain is resolved when the change wins at least nine pairs
in ten and its median differs from the parent's by more than the parent's
interquartile range; a metric is worse when the change's median is worse
than the parent's by more than the metric's bound.  The exit status is nonzero if any run is not
`correct` or prints no result.  Standard library only; pytest does not
collect it.

    python tools/pairs.py PARENT --workload W --pairs N --first-seed K
        [--seconds S] [--json FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
TIMEOUT = 900.0  # seconds of one perfbench run before it counts as failed


class Row(NamedTuple):
    """One end-to-end metric over the pairs: the medians of both sides, the
    parent's quartiles, the change's wins, whether a gain is resolved and
    whether the change is worse than the parent by more than the bound."""

    name: str
    better: str
    bound: float
    parent: float
    change: float
    q1: float
    q3: float
    wins: int
    pairs: int

    @property
    def iqr_share(self) -> float:
        """The parent's interquartile range over its median."""
        return (self.q3 - self.q1) / self.parent if self.parent else 0.0

    @property
    def resolved(self) -> bool:
        """The change wins 9 pairs in 10 and beats the median by more than
        the parent's interquartile range."""
        gain = self.change - self.parent if self.better == "higher" else self.parent - self.change
        return 10 * self.wins >= 9 * self.pairs and gain > self.q3 - self.q1

    @property
    def regressed(self) -> bool:
        """The change's median is worse than the parent's by more than the
        bound, a share of the parent's median."""
        loss = self.parent - self.change if self.better == "higher" else self.change - self.parent
        return loss > self.bound * abs(self.parent)


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(pairs: list[dict[str, dict]], metrics: list[dict]) -> list[Row]:
    """One row per metric of `metrics` (BENCHMARK.json's "end_to_end"
    entries), over `pairs`, each {"parent": record, "change": record} with
    the records as perfbench/run.py prints them.  A pair is a win when the
    change's value is strictly better."""
    rows = []
    for metric in metrics:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        rows.append(Row(name, better, bound, statistics.median(values["parent"]),
                        statistics.median(values["change"]), *_quartiles(values["parent"]),
                        wins, len(pairs)))
    return rows


def report(rows: list[Row]) -> list[str]:
    """The summary as printed lines."""
    lines = [f"{'metric':16s} {'parent':>12s} {'change':>12s} {'delta':>8s} "
             f"{'IQR/med':>8s} {'wins':>7s}  {'gain':10s} bound"]
    for r in rows:
        delta = (r.change - r.parent) / r.parent if r.parent else 0.0
        lines.append(f"{r.name:16s} {r.parent:12.6g} {r.change:12.6g} {delta:+8.1%} "
                     f"{r.iqr_share:8.1%} {r.wins:3d}/{r.pairs:<3d}  "
                     f"{'resolved' if r.resolved else 'unresolved':10s} "
                     f"{'WORSE' if r.regressed else 'within'} {r.bound:.0%}")
    return lines


def _export(revision: str, into: Path) -> None:
    """The files of `revision`, through `git archive`."""
    proc = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", revision],
                            stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(into, filter="data")
    if proc.wait():
        raise SystemExit(f"git archive {revision} failed")


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The last JSON line that one perfbench run prints in `tree`, or None."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent revision, e.g. HEAD~1")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, required=True,
                        help="seed of the first pair; pick seeds no earlier run used")
    parser.add_argument("--json", type=Path, help="write the runs and the summary here")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    pairs, runs, correct = [], [], True
    with tempfile.TemporaryDirectory(prefix="pairs-") as name:
        trees = {"parent": Path(name), "change": ROOT}
        _export(args.parent, trees["parent"])
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
        for k in range(args.pairs):
            seed, pair = args.first_seed + k, {}
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                record = _run(trees[side], args.workload, seed, args.seconds)
                ok = bool(record and record.get("correct"))
                correct &= ok
                values = {m["name"]: record["metrics"][m["name"]]["value"]
                          for m in metrics} if record else {}
                runs.append({"workload": args.workload, "seed": seed, "side": side,
                             "correct": ok, "metrics": values, "run": len(runs)})
                print(f"pair {k:2d} seed {seed} {side:6s} "
                      + ("correct" if ok else "NOT CORRECT") + "  "
                      + "  ".join(f"{n}={v:.6g}" for n, v in values.items()), flush=True)
                if record:
                    pair[side] = record
            if len(pair) == 2:
                pairs.append(pair)
    rows = summary(pairs, metrics) if pairs else []
    print("\n".join(report(rows)))
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "parent": args.parent,
                                         "summary": [r._asdict() for r in rows],
                                         "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
