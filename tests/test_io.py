import csv
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobkit import io as lio
from lobkit.features import FEATURE_COLUMNS, FeatureVector, feature_matrix
from lobkit.fill_model import build_training_matrix
from lobkit.messages import InstrumentConfig, Level3Message, MessageKind, Side, read_messages, write_messages
from lobkit.replay import OrderLifecycle, Outcome, track_lifecycles
from lobkit.synth import GroundTruthConfig, RegimeSpec, TruthRow, generate_flow, read_truth, write_truth
from lobkit.table import ArtifactInvalid, write_table


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


# ---------------------------------------------------------------------------
# Round trips: write -> read gives equal objects, read -> write the same bytes
# ---------------------------------------------------------------------------


def _rewrites_identically(path: Path, write) -> None:
    written = path.read_bytes()
    write(path)
    assert path.read_bytes() == written


def _messages_round_trip(msgs, path: Path) -> None:
    write_messages(path, msgs)
    back = list(read_messages(path))
    # exec_size is written for executes only
    assert back == [m if m.kind is MessageKind.EXECUTE else dataclasses.replace(m, exec_size=0.0) for m in msgs]
    _rewrites_identically(path, lambda p: write_messages(p, back))


def _truth_round_trip(rows, path: Path) -> None:
    write_truth(path, rows)
    back = read_truth(path)
    assert back == rows
    _rewrites_identically(path, lambda p: write_truth(p, back))


def _lifecycles_round_trip(records, path: Path) -> None:
    lio.write_lifecycles(path, records, horizon=1.0)
    back = lio.read_lifecycles(path)
    # a reloaded record keeps its horizon fill ratio in place of the executions
    expected = [dataclasses.replace(r, executions=[], fill_ratio_horizon=r.fill_ratio_within(1.0)) for r in records]
    assert back == expected
    _rewrites_identically(path, lambda p: lio.write_lifecycles(p, back, horizon=1.0))


def _matrix_round_trip(records, y, w, path: Path) -> None:
    lio.write_matrix(path, records, y, w)
    X2, y2, w2, meta = lio.read_matrix(path)
    np.testing.assert_array_equal(X2, feature_matrix(r.features for r in records))
    np.testing.assert_array_equal(y2, y)
    np.testing.assert_array_equal(w2, w)
    assert meta == [
        dict(order_id=r.order_id, insert_ts=r.insert_ts, outcome=r.outcome, outcome_time=r.outcome_time,
             dp_ask_horizon=r.dp_ask_horizon, partial_window=r.features.partial_window)
        for r in records
    ]
    # the records the file describes: its feature values, meta and size; side and price are not in a matrix
    vector_fields = [f.name for f in dataclasses.fields(FeatureVector) if f.name != "partial_window"]
    rebuilt = []
    for m, row in zip(meta, X2.tolist()):
        values = dict(zip(FEATURE_COLUMNS, row))
        vector = FeatureVector(**{n: values[n] for n in vector_fields}, partial_window=m["partial_window"])
        rebuilt.append(
            OrderLifecycle(m["order_id"], Side.BID, m["insert_ts"], 1, vector.size, vector, m["outcome"],
                           m["outcome_time"], dp_ask_horizon=m["dp_ask_horizon"])
        )
    _rewrites_identically(path, lambda p: lio.write_matrix(p, rebuilt, y2, w2))


def test_lifecycle_round_trip_preserves_fields(tmp_path):
    _lifecycles_round_trip(_records(), tmp_path / "lifecycles.csv")


def test_matrix_round_trip_preserves_values(tmp_path):
    records = _records()
    X, y, w, kept, _ = build_training_matrix(records, horizon=1.0, drop_partial_windows=False)
    _matrix_round_trip(kept, y, w, tmp_path / "matrix.csv")


ROUND_TRIP = settings(max_examples=60, deadline=None, database=None, derandomize=True)
# commas, quotes and line breaks make the CSV writer quote a cell
IDS = st.text(st.sampled_from('ab7_-,"\' \n'), max_size=6)
INTS = st.integers(-(2**63), 2**63)
FLOATS = st.one_of(st.floats(allow_nan=False), st.sampled_from([-0.0, 0.0, 2.0, 1e-300]))
# int-valued sizes, as ints and as floats, are written as floats
SIZES = st.one_of(FLOATS, st.integers(0, 10**6), st.integers(0, 10**6).map(float))


@st.composite
def messages(draw):
    return Level3Message(
        seq=draw(INTS), ts=draw(INTS), kind=draw(st.sampled_from(list(MessageKind))), order_id=draw(IDS),
        side=draw(st.sampled_from(list(Side))), price=draw(INTS), size=draw(SIZES), exec_size=draw(SIZES),
    )


@st.composite
def truth_rows(draw):
    return TruthRow(
        draw(IDS), *(draw(FLOATS) for _ in range(5)), draw(INTS), draw(INTS), draw(FLOATS), draw(INTS), draw(INTS)
    )


@st.composite
def lifecycles(draw):
    size = draw(SIZES)
    features = FeatureVector(
        *(draw(FLOATS) for _ in range(5)),
        aggressiveness=draw(st.none() | FLOATS),
        prior_volume=draw(FLOATS),
        size=size,
        **{name: draw(FLOATS) for name in ("signed_flow", "flow_imbalance", "signed_traded", "traded_imbalance",
                                           "time_since_trade", "median_trade_duration", "volatility")},
        partial_window=draw(st.booleans()),
    )
    return OrderLifecycle(
        order_id=draw(IDS), side=draw(st.sampled_from(list(Side))), insert_ts=draw(INTS), price=draw(INTS),
        size=size, features=features, outcome=draw(st.sampled_from(list(Outcome))), outcome_time=draw(FLOATS),
        fill_ratio=draw(FLOATS), dp_ask_horizon=draw(st.none() | FLOATS), insert_best_ask=draw(INTS),
        fill_ratio_horizon=draw(st.none() | FLOATS),
    )


@ROUND_TRIP
@given(msgs=st.lists(messages(), max_size=8))
def test_messages_round_trip_csv_and_ndjson(msgs):
    with tempfile.TemporaryDirectory() as d:
        _messages_round_trip(msgs, Path(d) / "stream.csv")
        _messages_round_trip(msgs, Path(d) / "stream.ndjson")


@ROUND_TRIP
@given(rows=st.lists(truth_rows(), max_size=8))
def test_truth_round_trip(rows):
    with tempfile.TemporaryDirectory() as d:
        _truth_round_trip(rows, Path(d) / "truth.csv")


@ROUND_TRIP
@given(records=st.lists(lifecycles(), max_size=8))
def test_lifecycles_round_trip(records):
    with tempfile.TemporaryDirectory() as d:
        _lifecycles_round_trip(records, Path(d) / "lifecycles.csv")


@ROUND_TRIP
@given(records=st.lists(lifecycles(), max_size=8), data=st.data())
def test_matrix_round_trip(records, data):
    y = np.array([data.draw(FLOATS) for _ in records])
    w = np.array([data.draw(FLOATS) for _ in records])
    with tempfile.TemporaryDirectory() as d:
        _matrix_round_trip(records, y, w, Path(d) / "matrix.csv")


def test_write_table_plain_floats_and_empty_none(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, ("a", "b", "c", "d"), [(np.float64(0.1), None, 3, "x")])
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
            with pytest.raises(ArtifactInvalid, match=f":2: column '{name}' is '', not a number"):
                lio.read_lifecycles(blanked(name))


# ---------------------------------------------------------------------------
# Malformed tables: every reader raises ArtifactInvalid naming path:line and the column
# ---------------------------------------------------------------------------

#: reader, the column whose removal is tried, and a column of each cell type the table has
READERS = {
    "messages": (lambda p: list(read_messages(p)), "side",
                 {"int": "price_ticks", "float": "size", "enum": "kind", "optional float": "exec_size"}),
    "truth": (read_truth, "pw_fill", {"int": "delta", "float": "lambda_exec"}),
    "lifecycles": (lio.read_lifecycles, "insert_ts_ns", {"int": "insert_ts_ns", "float": "outcome_time_s",
                   "enum": "side", "bool": "partial_window", "optional float": "dp_ask_horizon"}),
    "matrix": (lio.read_matrix, "delta", {"int": "insert_ts_ns", "float": "delta", "enum": "outcome",
               "bool": "partial_window", "optional float": "dp_ask_horizon"}),
}
BAD_CELLS = {"int": "1.5", "float": "b", "enum": "abc", "bool": "2", "optional float": "x"}
CASES = [
    (artifact, case)
    for artifact, (_, _, typed) in READERS.items()
    for case in ["missing column", *(f"bad {kind}" for kind in typed), "short row", "long row", "empty file"]
]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One valid file of each table artifact."""
    d = tmp_path_factory.mktemp("artifacts")
    msgs, truth = generate_flow(GroundTruthConfig(seed=3), 30.0)
    write_messages(d / "messages.csv", msgs)
    write_truth(d / "truth.csv", truth)
    records = track_lifecycles(msgs, InstrumentConfig(depth_value=40.0, trade_window=20)).records
    lio.write_lifecycles(d / "lifecycles.csv", records, horizon=1.0)
    _, y, w, kept, _ = build_training_matrix(records, horizon=1.0, drop_partial_windows=False)
    lio.write_matrix(d / "matrix.csv", kept, y, w)
    return d


def _malformed(source: Path, out: Path, case: str, removed: str, typed: dict) -> tuple[int, str, str | None]:
    """Writes ``source`` broken by ``case`` to ``out``; returns the line, the column and the cell to be named."""
    with source.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    line, column, cell = 3, None, None  # edits go to the second row
    if case == "missing column":
        i = header.index(removed)
        header, rows = header[:i] + header[i + 1 :], [r[:i] + r[i + 1 :] for r in rows]
        line, column = 1, removed
    elif case.startswith("bad "):
        column, cell = typed[case[4:]], BAD_CELLS[case[4:]]
        rows[1][header.index(column)] = cell
    elif case == "short row":
        column = header[5]
        rows[1] = rows[1][:5]
    elif case == "long row":
        column, cell = header[-1], "extra"
        rows[1].append(cell)
    if case == "empty file":
        out.write_text("")
        return 1, header[0], None
    with out.open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return line, column, cell


@pytest.mark.parametrize("artifact,case", CASES)
def test_malformed_table_names_file_line_and_column(artifacts, tmp_path, artifact, case):
    read, removed, typed = READERS[artifact]
    path = tmp_path / f"{artifact}.csv"
    line, column, cell = _malformed(artifacts / f"{artifact}.csv", path, case, removed, typed)
    with pytest.raises(ArtifactInvalid) as err:
        read(path)
    message = str(err.value)
    assert message.startswith(f"{path}:{line}: ") and repr(column) in message
    if cell is not None:
        assert repr(cell) in message


@pytest.mark.parametrize("artifact", READERS)
def test_header_only_table_reads_as_no_rows(artifacts, tmp_path, artifact):
    path = tmp_path / f"{artifact}.csv"
    path.write_text((artifacts / f"{artifact}.csv").read_text().splitlines()[0] + "\n")
    result = READERS[artifact][0](path)
    if artifact == "matrix":
        X, y, w, meta = result
        assert X.shape == (0, len(FEATURE_COLUMNS)) and len(y) == len(w) == len(meta) == 0
    else:
        assert result == []


@pytest.mark.parametrize(
    "edit,column",
    [
        (lambda rec: rec.pop("side"), "side"),
        (lambda rec: rec.update(price_ticks=1.5), "price_ticks"),
        (lambda rec: rec.update(size="b"), "size"),
        (lambda rec: rec.update(kind="ad"), "kind"),
        (lambda rec: rec.update(exec_size=None), "exec_size"),
    ],
)
def test_malformed_ndjson_message_names_file_line_and_column(tmp_path, edit, column):
    msgs, _ = generate_flow(GroundTruthConfig(seed=3), 5.0)
    path = tmp_path / "stream.ndjson"
    write_messages(path, msgs)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    edit(record)
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ArtifactInvalid, match=f"^{path}:2: column '{column}'"):
        list(read_messages(path))
