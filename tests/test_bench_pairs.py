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
        "workload": "w", "seed": 1, "seconds": 1, "pairs": len(base), "src_lines": {"base": 10, "change": 9},
        "runs_agree": {"base": True, "change": True},
        "artifacts_differ": [], "failed": {"base": 0, "change": 0}, "attempted": {"base": 1, "change": 1},
        "summary": summary,
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


def _artifact_pairs(base_runs, change_runs):
    return [{"base": {"artifacts": b}, "change": {"artifacts": c}} for b, c in zip(base_runs, change_runs)]


def _entry(agreement, failed_change=0):
    return {
        "workload": "w", "seed": 1, "seconds": 0, "pairs": 3, "src_lines": {"base": 10, "change": 9}, **agreement,
        "failed": {"base": 0, "change": failed_change}, "attempted": {"base": 3, "change": 3}, "summary": {},
    }


BASE_RUN = {"messages": "m1", "matrix": "x1", "fill_model": "f1"}


def test_an_artifact_changed_on_purpose_is_named_and_passes(capsys):
    change_run = {**BASE_RUN, "matrix": "x2"}
    agreement = bench_pairs.artifact_agreement(_artifact_pairs([BASE_RUN] * 3, [change_run] * 3))
    assert agreement == {"runs_agree": {"base": True, "change": True}, "artifacts_differ": ["matrix"]}
    entry = _entry(agreement)
    assert bench_pairs.passed(entry)
    bench_pairs.report(entry)
    out = capsys.readouterr().out
    assert "base runs agree True, change runs agree True; differ between base and change: matrix" in out


def test_equal_artifacts_name_none(capsys):
    agreement = bench_pairs.artifact_agreement(_artifact_pairs([BASE_RUN] * 3, [dict(BASE_RUN)] * 3))
    assert agreement["artifacts_differ"] == [] and bench_pairs.passed(_entry(agreement))
    bench_pairs.report(_entry(agreement))
    assert "differ between base and change: none" in capsys.readouterr().out


def test_a_side_whose_runs_disagree_fails():
    wobbly = [BASE_RUN, {**BASE_RUN, "fill_model": "f9"}, BASE_RUN]
    agreement = bench_pairs.artifact_agreement(_artifact_pairs([BASE_RUN] * 3, wobbly))
    assert agreement["runs_agree"] == {"base": True, "change": False}
    assert agreement["artifacts_differ"] == ["fill_model"]
    assert not bench_pairs.passed(_entry(agreement))
    agreement = bench_pairs.artifact_agreement(_artifact_pairs(wobbly, [BASE_RUN] * 3))
    assert agreement["runs_agree"] == {"base": False, "change": True} and not bench_pairs.passed(_entry(agreement))


def test_an_artifact_missing_from_one_run_is_a_disagreement():
    partial = [BASE_RUN, {k: v for k, v in BASE_RUN.items() if k != "matrix"}, BASE_RUN]
    agreement = bench_pairs.artifact_agreement(_artifact_pairs(partial, [BASE_RUN] * 3))
    assert agreement["runs_agree"]["base"] is False and agreement["artifacts_differ"] == ["matrix"]


def test_failed_operations_of_the_change_fail():
    agreement = bench_pairs.artifact_agreement(_artifact_pairs([BASE_RUN] * 3, [BASE_RUN] * 3))
    assert not bench_pairs.passed(_entry(agreement, failed_change=1))


def test_src_lines_is_the_wc_l_total_of_the_modules(tmp_path, capsys):
    package = tmp_path / "src" / "lobkit"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline: wc -l counts none
    (package / "notes.txt").write_text("not a module\n")
    (tmp_path / "src" / "other.py").write_text("outside\n")
    assert bench_pairs.src_lines(tmp_path) == 2
    bench_pairs.report({**_entry(bench_pairs.artifact_agreement([])), "src_lines": {"base": 4445, "change": 4414}})
    assert "src/lobkit/*.py: base 4445 lines, change 4414 (-31)" in capsys.readouterr().out
