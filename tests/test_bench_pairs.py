"""``tools/bench_pairs.py``'s verdicts on synthetic pairs of runs."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "route_p90_us", "unit": "us", "better": "lower", "bound": 0.25}]}


def _pairs(base, change):
    return [{"base": {"metrics": {"route_p90_us": b}}, "change": {"metrics": {"route_p90_us": c}}} for b, c in zip(base, change)]


def _verdict(base, change, capsys):
    summary = bench_pairs.summarize(_pairs(base, change), SPEC)
    capsys.readouterr()
    bench_pairs.report({
        "workload": "w", "seed": 1, "seconds": 1, "pairs": len(base), "artifacts_equal": True,
        "failed": {"base": 0, "change": 0}, "attempted": {"base": 1, "change": 1}, "summary": summary,
    })
    line = next(line for line in capsys.readouterr().out.splitlines() if "route_p90_us" in line)
    return summary["route_p90_us"], line.split()[-1]


def test_held_gain_is_resolved_and_ok(capsys):
    s, printed = _verdict([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [80, 81, 79, 80, 82, 78, 80, 81, 79, 85], capsys)
    assert s["gain_holds"] and s["change_wins"] == 10
    assert s["within_bound"] and s["resolved"] and printed == "ok"


def test_base_spread_wider_than_the_bound_is_unresolved(capsys):
    base = [60, 140, 100, 70, 130, 90, 110, 65, 135, 100]  # interquartile range about 60% of the median
    s, printed = _verdict(base, [b * 1.05 for b in reversed(base)], capsys)
    assert s["within_bound"] and not s["gain_holds"]
    assert not s["resolved"] and printed == "unresolved"


def test_wide_base_spread_is_resolved_when_every_change_run_wins(capsys):
    base = [60, 140, 100, 70, 130, 90, 110, 65, 135, 100]
    s, printed = _verdict(base, [50, 55, 40, 45, 58, 52, 41, 44, 57, 59], capsys)
    assert s["resolved"] and s["within_bound"] and printed == "ok"


def test_metric_worse_than_its_bound(capsys):
    s, printed = _verdict([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [140, 141, 139, 140, 142, 138, 140, 141, 139, 140], capsys)
    assert not s["within_bound"] and s["resolved"] and printed == "WORSE"
