"""Tests of the benchmark itself, on tiny streams.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from checks import add_accounting, identical, sha256_file, subject_lifecycles  # noqa: E402
from lobkit import io as lio  # noqa: E402
from metrics import END_TO_END, LAYERS, PER_LAYER  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], duration=120.0, setup_reps=2, route_decisions=3)


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    for name in workloads.WORKLOADS:
        monkeypatch.setitem(workloads.WORKLOADS, name, tiny(name))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


def result_line(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tiny_workloads, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = result_line(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())
    saved = json.loads((tiny_workloads / f"{workload}-seed3-trace{trace}.json").read_text())
    assert saved["provenance"]["artifacts_sha256"]


def test_layer_self_times_account_for_replay(tiny_workloads):
    bench = workloads.Run(workloads.WORKLOADS["deep-book"], 3, tiny_workloads)
    bench.run(0.0, trace=True)
    layers = next(u.layers for u in bench.units if u.traced)
    parts = layers["replay.self_s"] + layers["book.apply_s"] + layers["book.query_s"] + layers["features.assemble_s"]
    assert parts == pytest.approx(layers["replay.track_s"], rel=1e-9)
    shares = sum(layers[f"layer.{name}.share_pct"] for name in LAYERS)
    assert shares + 100 * layers["layer.glue.self_s"] / layers["trace.unit_s"] == pytest.approx(100.0)


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans.extend(
        [
            ["replay.track", 0.0, 10.0, -1, 1],
            ["book.apply", 1.0, 3.0, 0, 1],
            ["features.assemble", 4.0, 8.0, 0, 1],
            ["book.priority_volume", 5.0, 6.0, 2, 1],
        ]
    )
    assert self_times(tracer.spans, 0) == [4.0, 2.0, 3.0, 1.0]


@pytest.fixture(scope="module")
def one_pass(tmp_path_factory):
    work = tmp_path_factory.mktemp("pass")
    bench = workloads.Run(tiny("research-600s"), 5, work)
    bench.setup()
    return bench, bench.pipeline()


def test_checks_pass_on_a_clean_pass(one_pass):
    _, out = one_pass
    assert all(check.ok for check in out.checks)


def test_add_accounting_fails_on_a_dropped_record(one_pass):
    bench, out = one_pass
    records = out.counters["replay.records"]
    assert add_accounting(bench.adds, records, out.diagnostics).ok
    assert not add_accounting(bench.adds, records - 1, out.diagnostics).ok
    uncounted = dataclasses.replace(out.diagnostics, depth_excluded=out.diagnostics.depth_excluded + 1)
    assert not add_accounting(bench.adds, records, uncounted).ok


def test_subject_check_fails_on_a_dropped_or_repeated_lifecycle(one_pass, tmp_path):
    bench, _ = one_pass
    lines = bench.lifecycles_path.read_text().splitlines(keepends=True)
    subject_row = next(i for i, line in enumerate(lines) if line.split(",", 1)[0] in bench.truth)
    dropped = tmp_path / "dropped.csv"
    dropped.write_text("".join(lines[:subject_row] + lines[subject_row + 1 :]))
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("".join(lines + [lines[subject_row]]))
    for path in (dropped, repeated):
        ids = [r.order_id for r in lio.read_lifecycles(path)]
        assert not subject_lifecycles(bench.truth, ids).ok
    assert subject_lifecycles(bench.truth, [r.order_id for r in lio.read_lifecycles(bench.lifecycles_path)]).ok


def test_identity_check_fails_on_a_flipped_byte(one_pass, tmp_path):
    bench, out = one_pass
    for name in ("lifecycles_path", "matrix_path", "fill_path", "cleanup_path"):
        copy = tmp_path / Path(getattr(bench, name)).name
        data = bytearray(getattr(bench, name).read_bytes())
        data[len(data) // 2] ^= 0x01
        copy.write_bytes(bytes(data))
        clean = {"artifact": sha256_file(getattr(bench, name))}
        assert identical("artifact", [clean, dict(clean)], ["a", "b"]).ok
        assert not identical("artifact", [clean, {"artifact": sha256_file(copy)}], ["a", "b"]).ok


def test_route_check_fails_when_a_decision_differs(one_pass):
    bench, out = one_pass
    snapshots = bench.snapshots(out.held)
    _, decisions, _ = bench.route_block(out.fill, out.cleanup, snapshots)
    _, again, _ = bench.route_block(out.fill, out.cleanup, snapshots)
    assert identical("route", [{"route": decisions}, {"route": again}], ["a", "b"]).ok
    flipped = decisions.replace("limit", "market", 1) if "limit" in decisions else decisions.replace("market", "limit", 1)
    assert not identical("route", [{"route": decisions}, {"route": flipped}], ["a", "b"]).ok


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "research-600s", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
