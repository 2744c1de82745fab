"""`tools/pairs.py`, the parent/change pair runner: its summary of canned
perfbench records.  No process is started."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "pairs.py"
METRICS = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
           {"name": "latency_p90_ms", "better": "lower", "bound": 0.05}]


def _tool():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(ops, p90):
    return {"correct": True, "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                                         "latency_p90_ms": {"value": p90, "unit": "ms"}}}


def test_summary_reads_medians_quartiles_and_wins():
    """Ten pairs: the change is faster on nine and equal on one, so ops_per_s
    wins 9 of 10 and beats the median by more than the parent's IQR; the
    p90 wins 5, since a tie counts as no win, so its gain is unresolved.
    With the sides swapped, each is worse by about 9% and 8%: inside the 25%
    bound of ops_per_s, past the 5% bound of the p90."""
    parent_ops = [100, 102, 98, 101, 99, 100, 103, 97, 100, 100]
    change_ops = [x + 10 for x in parent_ops[:9]] + [100]
    parent_p90 = [1.0, 1.2, 0.8, 1.0, 1.0, 1.1, 0.9, 1.0, 1.0, 1.0]
    change_p90 = [0.9, 1.2, 0.8, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9, 0.95]
    pairs = [{"parent": _record(po, pp), "change": _record(co, cp)}
             for po, co, pp, cp in zip(parent_ops, change_ops, parent_p90, change_p90)]
    ops, p90 = _tool().summary(pairs, METRICS)
    assert (ops.name, ops.parent, ops.change, ops.wins, ops.pairs) == ("ops_per_s", 100, 110, 9, 10)
    assert (ops.q1, ops.q3) == (99.25, 100.75) and ops.resolved
    assert abs(ops.iqr_share - 0.015) < 1e-12
    assert (p90.parent, p90.change, p90.wins) == (1.0, 0.925, 5)
    assert (p90.q1, p90.q3) == (1.0, 1.0) and not p90.resolved
    assert not ops.regressed and not p90.regressed
    lines = _tool().report([ops, p90])
    assert lines[1].split() == ["ops_per_s", "100", "110", "+10.0%", "1.5%", "9/10", "resolved",
                                "within", "25%"]
    assert lines[2].split()[-4:] == ["5/10", "unresolved", "within", "5%"]
    swapped = [{"parent": p["change"], "change": p["parent"]} for p in pairs]
    ops, p90 = _tool().summary(swapped, METRICS)
    assert (ops.parent, ops.change, p90.parent, p90.change) == (110, 100, 0.925, 1.0)
    assert not ops.regressed and p90.regressed


def test_one_pair_has_no_spread():
    (row,) = _tool().summary([{"parent": _record(100, 1), "change": _record(90, 1)}], METRICS[:1])
    assert (row.q1, row.q3, row.wins, row.resolved) == (100, 100, 0, False)
