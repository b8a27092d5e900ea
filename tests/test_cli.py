import csv
import dataclasses
import json

import pytest

from lobkit.cli import load_config, main, ConfigInvalid
from lobkit.features import FEATURE_COLUMNS, FeatureVector
from lobkit.messages import Side, read_messages, write_messages
from lobkit.replay import ReplayDiagnostics
from lobkit.synth import GroundTruthConfig, generate_flow, read_truth


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        """
        # instrument
        tick_size = 0.01
        horizon = 2.0
        depth_value = 30
        fee_level = 8
        """
    )
    cfg = load_config(str(cfg_file), ["fee_level=9", "lr=0.01"])
    assert cfg.horizon == 2.0
    assert cfg.depth_value == 30
    assert cfg.fee_level == 9
    assert cfg.lr == 0.01


def test_config_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("no_such_key = 4\n")
    with pytest.raises(ConfigInvalid):
        load_config(str(cfg_file), [])


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    rc = main(["--set", "horizon=-1", "synth", "--seed", "1", "--duration", "5",
               "--out", str(tmp_path / "m.csv"), "--truth", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigInvalid"


def test_missing_input_reports_error(tmp_path, capsys):
    rc = main(["replay", "--messages", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "InputMissing"


def test_message_round_trip_csv_and_ndjson(tmp_path):
    msgs, _ = generate_flow(GroundTruthConfig(seed=3), 5.0)
    for name in ("stream.csv", "stream.ndjson"):
        path = tmp_path / name
        write_messages(path, msgs)
        back = list(read_messages(path))
        assert back == msgs


def _run(args):
    rc = main(args)
    assert rc == 0, f"command failed: {args}"


def _fails(args, capsys) -> dict:
    """Runs a command that must fail; returns its JSON error."""
    capsys.readouterr()
    assert main(args) == 1, f"command succeeded: {args}"
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


BASE = ["--set", "trade_window=20", "--set", "min_bucket_count=10"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Every subcommand once, over two disjoint synthetic periods; returns the artifact directory."""
    d = tmp_path_factory.mktemp("pipeline")
    base = BASE
    _run(base + [
        "synth", "--preset", "monotone-delta", "--seed", "5", "--duration", "120",
        "--out", str(d / "messages.csv"), "--truth", str(d / "truth.csv"),
    ])
    _run(base + [
        "replay", "--messages", str(d / "messages.csv"), "--out", str(d / "lifecycles.csv"),
        "--fill-ratio-out", str(d / "icdf.csv"), "--diagnostics-out", str(d / "diag.json"),
    ])
    _run(base + [
        "features", "--lifecycles", str(d / "lifecycles.csv"), "--truth", str(d / "truth.csv"),
        "--out", str(d / "matrix.csv"),
    ])
    _run(base + [
        "survival", "--lifecycles", str(d / "lifecycles.csv"), "--truth", str(d / "truth.csv"),
        "--out", str(d / "curves.csv"), "--by", "delta", "--edges", "0,1,2,3,6",
    ])
    _run(base + [
        "survival", "--lifecycles", str(d / "lifecycles.csv"), "--mode", "post-and-wait",
        "--out", str(d / "pw.csv"),
    ])
    _run(base + [
        "survival", "--lifecycles", str(d / "lifecycles.csv"), "--truth", str(d / "truth.csv"),
        "--out", str(d / "grid2d.csv"), "--by", "delta", "--by", "spread",
        "--edges", "0,2,6", "--edges", "0,32",
    ])
    _run(base + [
        "train-fill", "--matrix", str(d / "matrix.csv"), "--seed", "7",
        "--out", str(d / "fill.json"), "--report", str(d / "fill_report.json"), "--importance",
    ])
    _run(base + [
        "train-fill", "--matrix", str(d / "matrix.csv"), "--seed", "7", "--per-regime",
        "--out", str(d / "fill_regimes.json"), "--report", str(d / "fill_regimes_report.json"),
    ])
    _run(base + [
        "train-cleanup", "--matrix", str(d / "matrix.csv"), "--seed", "7",
        "--out", str(d / "cleanup.json"), "--report", str(d / "cleanup_report.json"),
        "--bucket-curve-out", str(d / "vhat_by_vol.csv"),
    ])

    # route on a hand-written snapshot
    fv = FeatureVector(
        delta=1.0, spread=4.0, spread_after=4.0, best_imbalance=0.0, add_imbalance=0.0,
        aggressiveness=None, prior_volume=2.0, size=1.0, signed_flow=0.0, flow_imbalance=0.0,
        signed_traded=0.0, traded_imbalance=0.0, time_since_trade=0.1,
        median_trade_duration=0.1, volatility=1.0,
    )
    snapshot = {
        "best_bid": 500.00,
        "best_ask": 500.04,
        "tick_size": 0.01,
        "features": {k: getattr(fv, k) for k in fv.__dataclass_fields__},
    }
    (d / "snap.json").write_text(json.dumps(snapshot))
    _run(base + [
        "route", "--snapshot", str(d / "snap.json"), "--fill-model", str(d / "fill.json"),
        "--cleanup-model", str(d / "cleanup.json"), "--quantity", "1.0",
        "--out", str(d / "decision.json"), "--curve-out", str(d / "curve.csv"),
        "--decision-map-out", str(d / "map.csv"), "--surface-out", str(d / "surface.csv"),
        "--surface-spread-min", "2", "--surface-spread-max", "6",
    ])

    # second period for the backtest
    _run(base + [
        "synth", "--preset", "monotone-delta", "--seed", "6", "--duration", "120",
        "--synth-set", "start_ts=1700000200000000000",  # disjoint later period
        "--out", str(d / "messages2.csv"), "--truth", str(d / "truth2.csv"),
    ])
    _run(base + [
        "replay", "--messages", str(d / "messages2.csv"), "--out", str(d / "lifecycles2.csv"),
    ])
    _run(base + [
        "backtest", "--lifecycles", str(d / "lifecycles2.csv"), "--truth", str(d / "truth2.csv"),
        "--train-matrix", str(d / "matrix.csv"), "--fill-model", str(d / "fill.json"),
        "--cleanup-model", str(d / "cleanup.json"), "--average-trade-size", "1.0",
        "--out", str(d / "metrics.json"), "--decisions-out", str(d / "decisions.csv"),
    ])
    _run(base + ["report", "--dir", str(d), "--out", str(d / "report.html")])
    return d


def test_full_pipeline_through_cli(pipeline):
    d = pipeline
    diag = json.loads((d / "diag.json").read_text())
    assert diag["crossed_rejected"] == 0 and diag["unknown_rejected"] == 0
    curves = (d / "curves.csv").read_text().splitlines()
    assert curves[0].startswith("bucket_delta,cause,time,incidence")
    assert (d / "grid2d.csv").read_text().splitlines()[0].startswith("bucket_delta,bucket_spread")
    assert json.loads((d / "fill_regimes.json").read_text())["kind"] == "fill-per-regime"
    assert (d / "vhat_by_vol.csv").read_text().startswith("volatility_lo,volatility_hi")
    assert "permutation_importance" in json.loads((d / "fill_report.json").read_text())

    decision = json.loads((d / "decision.json").read_text())
    assert decision["action"] in ("limit", "market")
    surface = (d / "surface.csv").read_text().splitlines()
    assert surface[0] == "spread,delta,saved_cost,fill_probability,cleanup_ticks,is_optimum"
    assert len(surface) > 5

    metrics = json.loads((d / "metrics.json").read_text())
    assert set(metrics["metrics"]) == {"I", "II", "III"}
    for model_metrics in metrics["metrics"].values():
        for action in ("limit", "market"):
            m = model_metrics[action]
            if m["precision"] + m["recall"] > 0:
                expected_f = 2 * m["precision"] * m["recall"] / (m["precision"] + m["recall"])
                assert m["f_score"] == pytest.approx(expected_f)

    html = (d / "report.html").read_text()
    assert "metrics.json" in html and "<svg" in html


def test_replay_diagnostics_report_every_counter(pipeline):
    diag = json.loads((pipeline / "diag.json").read_text())
    expected = {f.name for f in dataclasses.fields(ReplayDiagnostics)} | {"records", "average_trade_size"}
    assert set(diag) == expected
    assert diag["average_trade_size"] == pytest.approx(diag["trade_volume"] / diag["trade_count"])


@pytest.mark.parametrize("feature", FEATURE_COLUMNS)
def test_survival_by_every_feature_column(pipeline, tmp_path, feature):
    """Default edges are quantiles of the model-row value, so every column buckets."""
    out = tmp_path / "curves.csv"
    _run(BASE + ["survival", "--lifecycles", str(pipeline / "lifecycles.csv"), "--out", str(out), "--by", feature])
    assert out.read_text().startswith(f"bucket_{feature},cause,time,incidence")


def _survival_by(d, tmp_path, name):
    return ["survival", "--lifecycles", str(d / "lifecycles.csv"), "--out", str(tmp_path / "c.csv"), "--by", name]


def _bucket_feature(d, tmp_path, name):
    return [
        "train-cleanup", "--matrix", str(d / "matrix.csv"), "--seed", "7", "--out", str(tmp_path / "cleanup.json"),
        "--bucket-curve-out", str(tmp_path / "b.csv"), "--bucket-feature", name,
    ]


@pytest.mark.parametrize("command", [_survival_by, _bucket_feature])
def test_unknown_feature_name_rejected_before_any_work(pipeline, tmp_path, capsys, command):
    err = _fails(BASE + command(pipeline, tmp_path, "volatilty"), capsys)
    assert err["error"] == "ConfigInvalid" and "'volatilty'" in err["message"]
    assert "_feature_column" in err["traceback"]  # the JSON error names the raising function
    assert list(tmp_path.iterdir()) == []


def _synth(tmp_path, *synth_set):
    return [
        "synth", "--seed", "1", "--duration", "5", "--out", str(tmp_path / "m.csv"), "--truth", str(tmp_path / "t.csv"),
        *(arg for item in synth_set for arg in ("--synth-set", item)),
    ]


@pytest.mark.parametrize(("item", "key"), [
    ("delta_weights=1", "delta_weights"),  # a tuple-or-None field
    ("censor_rate", "censor_rate"),  # no '='
    ("subject_side=buy", "subject_side"),  # not a Side value
])
def test_bad_synth_set_names_the_option_and_key(tmp_path, capsys, item, key):
    err = _fails(_synth(tmp_path, item), capsys)
    assert err["error"] == "ConfigInvalid"
    assert "--synth-set" in err["message"] and repr(key) in err["message"]


def test_synth_set_parses_enum_and_int_fields(tmp_path):
    _run(_synth(tmp_path, "subject_side=ask", "start_ts=1700000200000000000"))
    messages = list(read_messages(tmp_path / "m.csv"))
    subjects = {row.order_id for row in read_truth(tmp_path / "t.csv")}
    assert subjects and {m.side for m in messages if m.order_id in subjects} == {Side.ASK}
    assert messages[0].ts >= 1700000200000000000


@pytest.mark.parametrize(("flag", "value"), [("--delta-min", "2"), ("--delta-max", "3")])
def test_route_takes_either_distance_bound_alone(pipeline, tmp_path, flag, value):
    """A lone bound replaces its own end of the default sweep; the other end stays."""
    d = pipeline

    def swept(curve):
        deltas = [int(row.split(",", 1)[0]) for row in curve.read_text().splitlines()[1:]]
        return deltas[0], deltas[-1]

    default_lo, default_hi = swept(d / "curve.csv")
    _run(BASE + [
        "route", "--snapshot", str(d / "snap.json"), "--fill-model", str(d / "fill.json"),
        "--cleanup-model", str(d / "cleanup.json"), "--quantity", "1.0",
        "--out", str(tmp_path / "decision.json"), "--curve-out", str(tmp_path / "curve.csv"), flag, value,
    ])
    expected = (int(value), default_hi) if flag == "--delta-min" else (default_lo, int(value))
    assert swept(tmp_path / "curve.csv") == expected


def _route(d, fill, cleanup, out, snapshot=None):
    return BASE + [
        "route", "--snapshot", str(snapshot or d / "snap.json"), "--fill-model", str(fill),
        "--cleanup-model", str(cleanup), "--quantity", "1.0", "--out", str(out),
    ]


def _backtest(d, fill, cleanup, out, scored="2", matrix=None):
    """Scores the second period (``scored="2"``) or the first (``scored=""``)."""
    return BASE + [
        "backtest", "--lifecycles", str(d / f"lifecycles{scored}.csv"), "--truth", str(d / f"truth{scored}.csv"),
        "--train-matrix", str(matrix or d / "matrix.csv"), "--fill-model", str(fill),
        "--cleanup-model", str(cleanup), "--average-trade-size", "1.0", "--out", str(out),
    ]


@pytest.mark.parametrize("consumer", [_route, _backtest])
@pytest.mark.parametrize("fill_file", ["fill.json", "fill_regimes.json"])
def test_every_fill_model_feeds_every_consumer(pipeline, tmp_path, consumer, fill_file):
    """The fixture already feeds every other artifact to each of its consumers."""
    d = pipeline
    out = tmp_path / "out.json"
    _run(consumer(d, d / fill_file, d / "cleanup.json", out))
    assert json.loads(out.read_text())


def test_per_regime_model_scored_on_its_training_period_overlaps(pipeline, tmp_path, capsys):
    """The training matrix and the clean-up model come from the other period,
    so only the per-regime file's own ``trained_span`` can catch the overlap."""
    d = pipeline
    _run(BASE + [
        "features", "--lifecycles", str(d / "lifecycles2.csv"), "--truth", str(d / "truth2.csv"),
        "--out", str(tmp_path / "matrix2.csv"),
    ])
    _run(BASE + [
        "train-cleanup", "--matrix", str(tmp_path / "matrix2.csv"), "--seed", "7",
        "--out", str(tmp_path / "cleanup2.json"),
    ])
    lo, hi = json.loads((d / "fill_regimes.json").read_text())["trained_span"]
    args = _backtest(
        d, d / "fill_regimes.json", tmp_path / "cleanup2.json", tmp_path / "m.json",
        scored="", matrix=tmp_path / "matrix2.csv",
    )
    err = _fails(args, capsys)
    assert err["error"] == "PeriodOverlap"
    assert f"[{lo}, {hi}]" in err["message"]


def _cleanup_as_fill(d, tmp_path):
    return d / "cleanup.json", "'kind'"


def _renamed_columns(d, tmp_path):
    blob = json.loads((d / "fill.json").read_text())
    blob["columns"][0] = "distance"
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(blob))
    return path, "'columns'"


def _no_horizon(d, tmp_path):
    blob = json.loads((d / "fill.json").read_text())
    del blob["horizon"]
    path = tmp_path / "no_horizon.json"
    path.write_text(json.dumps(blob))
    return path, "'horizon'"


@pytest.mark.parametrize("consumer", [_route, _backtest])
@pytest.mark.parametrize("bad_fill", [_cleanup_as_fill, _renamed_columns, _no_horizon])
def test_wrong_or_malformed_fill_model_is_rejected(pipeline, tmp_path, capsys, consumer, bad_fill):
    path, field = bad_fill(pipeline, tmp_path)
    err = _fails(consumer(pipeline, path, pipeline / "cleanup.json", tmp_path / "out.json"), capsys)
    assert err["error"] == "ArtifactInvalid"
    assert str(path) in err["message"] and field in err["message"]


@pytest.mark.parametrize("source", ["--set", "--config"])
@pytest.mark.parametrize("item", ["event_window=0", "trade_window=-1", "trade_window=0"])
def test_window_below_one_is_rejected(tmp_path, capsys, source, item):
    """trade_window=0 would run, but flag every row partial and leave the training matrix empty."""
    if source == "--set":
        args = ["--set", item]
    else:
        (tmp_path / "run.cfg").write_text(item.replace("=", " = ") + "\n")
        args = ["--config", str(tmp_path / "run.cfg")]
    err = _fails(args + _synth(tmp_path), capsys)
    key, value = item.split("=")
    assert err["error"] == "ConfigInvalid"
    assert f"{key} must be at least 1, got {value}" in err["message"]
    assert not (tmp_path / "m.csv").exists()


def _no_volatility(blob):
    del blob["features"]["volatility"]
    return "'features.volatility'"


def _no_best_bid(blob):
    del blob["best_bid"]
    return "'best_bid'"


def _misspelled(blob):
    blob["features"]["volatilty"] = blob["features"].pop("volatility")
    return "'features.volatilty'"


def _non_numeric(blob):
    blob["features"]["spread"] = "4"
    return "'features.spread'"


def _features_not_an_object(blob):
    blob["features"] = list(blob["features"].values())
    return "'features'"


@pytest.mark.parametrize("edit", [_no_volatility, _no_best_bid, _misspelled, _non_numeric, _features_not_an_object])
def test_malformed_snapshot_names_the_file_and_field(pipeline, tmp_path, capsys, edit):
    blob = json.loads((pipeline / "snap.json").read_text())
    field = edit(blob)
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(blob))
    d = pipeline
    err = _fails(_route(d, d / "fill.json", d / "cleanup.json", tmp_path / "out.json", snapshot=path), capsys)
    assert err["error"] == "ArtifactInvalid"
    assert str(path) in err["message"] and field in err["message"]


def _edit_csv(source, out, column, row=None, value=None):
    """``source`` with ``column`` dropped, or with its cell in data row ``row`` set to ``value``."""
    with open(source, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    i = header.index(column)
    if row is None:
        header, rows = header[:i] + header[i + 1 :], [r[:i] + r[i + 1 :] for r in rows]
    else:
        rows[row][i] = value
    with open(out, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return out


@pytest.mark.parametrize(
    "artifact,column,value,command",
    [
        ("messages", "side", None, "replay --messages {bad} --out {tmp}/o.csv"),
        ("messages", "kind", "ad", "replay --messages {bad} --out {tmp}/o.csv"),
        ("messages", "side", "abc", "replay --messages {bad} --out {tmp}/o.csv"),
        ("lifecycles", "insert_ts_ns", "zz", "features --lifecycles {bad} --out {tmp}/o.csv"),
        ("matrix", "delta", None, "train-fill --matrix {bad} --seed 7 --out {tmp}/o.json"),
        ("truth", "lambda_exec", "b", "features --lifecycles {pipeline}/lifecycles.csv --truth {bad} --out {tmp}/o.csv"),
    ],
)
def test_malformed_table_fails_with_artifact_invalid(pipeline, tmp_path, capsys, artifact, column, value, command):
    """A dropped column or a bad cell in each table artifact, through the subcommand that reads it."""
    bad = _edit_csv(pipeline / f"{artifact}.csv", tmp_path / f"{artifact}.csv", column, None if value is None else 1, value)
    args = [arg.format(bad=bad, tmp=tmp_path, pipeline=pipeline) for arg in command.split()]
    err = _fails(BASE + args, capsys)
    assert err["error"] == "ArtifactInvalid"
    line = 1 if value is None else 3
    assert err["message"].startswith(f"{bad}:{line}: ") and repr(column) in err["message"]
    if value is not None:
        assert repr(value) in err["message"]
