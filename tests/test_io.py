import numpy as np
import pytest

from lobkit import io as lio
from lobkit.fill_model import build_training_matrix
from lobkit.messages import InstrumentConfig
from lobkit.replay import track_lifecycles
from lobkit.synth import GroundTruthConfig, RegimeSpec, generate_flow


def _records():
    cfg = GroundTruthConfig(
        seed=17,
        regimes=[RegimeSpec(duration=90.0, exec_base=1.2, cancel_base=1.5, trade_rate=5.0)],
        subject_rate=8.0,
        delta_choices=(-1, 0, 1, 2, 3),
        censor_rate=0.05,
    )
    msgs, _ = generate_flow(cfg, 90.0)
    return track_lifecycles(msgs, InstrumentConfig(depth_value=40.0, trade_window=20)).records


def test_lifecycle_round_trip_preserves_fields(tmp_path):
    records = _records()
    path = tmp_path / "lifecycles.csv"
    lio.write_lifecycles(path, records, horizon=1.0)
    back = lio.read_lifecycles(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.order_id == b.order_id
        assert a.side == b.side
        assert a.insert_ts == b.insert_ts
        assert a.price == b.price
        assert a.outcome == b.outcome
        assert a.outcome_time == b.outcome_time  # repr round-trips exactly
        assert a.fill_ratio == b.fill_ratio
        assert a.dp_ask_horizon == b.dp_ask_horizon
        assert b.fill_ratio_within(1.0) == a.fill_ratio_within(1.0)
        np.testing.assert_array_equal(a.features.to_row(), b.features.to_row())
        assert a.features.aggressiveness == b.features.aggressiveness
        assert a.features.partial_window == b.features.partial_window


def test_matrix_round_trip_preserves_values(tmp_path):
    records = _records()
    X, y, w, kept, _ = build_training_matrix(records, horizon=1.0, drop_partial_windows=False)
    path = tmp_path / "matrix.csv"
    lio.write_matrix(path, kept, y, w)
    X2, y2, w2, meta = lio.read_matrix(path)
    np.testing.assert_array_equal(X, X2)
    np.testing.assert_array_equal(y, y2)
    np.testing.assert_array_equal(w, w2)
    assert [m["order_id"] for m in meta] == [r.order_id for r in kept]
    assert all(m["outcome_time"] == r.outcome_time for m, r in zip(meta, kept))


def test_write_table_plain_floats_and_empty_none(tmp_path):
    path = tmp_path / "table.csv"
    lio.write_table(path, ("a", "b", "c", "d"), [(np.float64(0.1), None, 3, "x")])
    assert path.read_text().splitlines() == ["a,b,c,d", "0.1,,3,x"]


def test_only_aggressiveness_may_be_empty(tmp_path):
    records = _records()[:5]
    path = tmp_path / "lifecycles.csv"
    lio.write_lifecycles(path, records, horizon=1.0)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]

    def blanked(name):
        i = header.index(name)
        lines = [",".join(header)] + [",".join(r[:i] + [""] + r[i + 1 :]) for r in rows]
        out = tmp_path / f"blank_{name}.csv"
        out.write_text("\n".join(lines) + "\n")
        return out

    assert all(r.features.aggressiveness is None for r in lio.read_lifecycles(blanked("aggressiveness")))
    for name in lio._FEATURE_FIELDS:
        if name != "aggressiveness":
            with pytest.raises(ValueError):
                lio.read_lifecycles(blanked(name))
