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
from lobkit.fill_model import build_training_matrix, stratified_censoring_survival
from lobkit.messages import (
    MESSAGE_FIELDS, InstrumentConfig, Level3Message, MessageKind, Side, read_messages, write_messages,
)
from lobkit.replay import OrderLifecycle, Outcome, track_lifecycles
from lobkit.synth import TRUTH_FIELDS, GroundTruthConfig, RegimeSpec, TruthRow, generate_flow, read_truth, write_truth
from lobkit.table import INTEGER, NUMBER, ArtifactInvalid, optional_number, write_table


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
             dp_ask_horizon=r.dp_ask_horizon)
        for r in records
    ]
    # the records the file describes: its feature values, meta and size; side and price are not in a matrix
    vector_fields = [f.name for f in dataclasses.fields(FeatureVector) if f.name != "partial_window"]
    rebuilt = []
    for m, row in zip(meta, X2.tolist()):
        values = dict(zip(FEATURE_COLUMNS, row))
        vector = FeatureVector(**{n: values[n] for n in vector_fields})
        rebuilt.append(
            OrderLifecycle(m["order_id"], Side.BID, m["insert_ts"], 1, vector.size, vector, m["outcome"],
                           m["outcome_time"], dp_ask_horizon=m["dp_ask_horizon"])
        )
    _rewrites_identically(path, lambda p: lio.write_matrix(p, rebuilt, y2, w2))


def test_lifecycle_round_trip_preserves_fields(tmp_path):
    _lifecycles_round_trip(_records(), tmp_path / "lifecycles.csv")


def test_matrix_round_trip_preserves_values(tmp_path):
    records = _records()
    X, y, w, kept, _ = build_training_matrix(records, 1.0, stratified_censoring_survival(records))
    _matrix_round_trip(kept, y, w, tmp_path / "matrix.csv")


def test_matrix_with_the_old_partial_window_column_is_rejected(tmp_path):
    """Training rows are chosen once, before the matrix is written, so it carries no partial-window flag."""
    path = tmp_path / "matrix.csv"
    header = [*list(lio.MATRIX_FIELDS)[:7], "partial_window", *FEATURE_COLUMNS]
    path.write_text(",".join(header) + "\n")
    with pytest.raises(ArtifactInvalid, match="header column 8 is 'partial_window', expected 'delta'"):
        lio.read_matrix(path)


ROUND_TRIP = settings(max_examples=60, deadline=None, database=None, derandomize=True)
# commas, quotes and line breaks make the CSV writer quote a cell
IDS = st.text(st.sampled_from('ab7_-,"\' \n'), max_size=6)
INTS = st.integers(-(2**63), 2**63)
# a number cell holds a finite float; nan and infinities are malformed cells (see NON_FINITE below),
# and so is a cell outside its column's domain (see DOMAIN_CELLS below)
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 0.0, 2.0, 1e-300]))
NON_NEGATIVE = st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.sampled_from([-0.0, 0.0, 2.0, 1e-300]))
POSITIVE = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), st.sampled_from([5e-324, 2.0, 1e-300])
)
# int-valued sizes, as ints and as floats, are written as floats;
# a message's sizes are non-negative, a lifecycle record's positive
SIZES = st.one_of(NON_NEGATIVE, st.integers(0, 10**6), st.integers(0, 10**6).map(float))
POSITIVE_SIZES = st.one_of(POSITIVE, st.integers(1, 10**6), st.integers(1, 10**6).map(float))


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
    size = draw(POSITIVE_SIZES)
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
        size=size, features=features, outcome=draw(st.sampled_from(list(Outcome))), outcome_time=draw(POSITIVE),
        fill_ratio=draw(FLOATS), dp_ask_horizon=draw(st.none() | FLOATS), insert_best_ask=draw(INTS),
        fill_ratio_horizon=draw(st.none() | FLOATS),
    )


@ROUND_TRIP
@given(msgs=st.lists(messages(), max_size=8))
def test_messages_round_trip_csv_and_ndjson(msgs):
    with tempfile.TemporaryDirectory() as d:
        _messages_round_trip(msgs, Path(d) / "stream.csv")


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
    y = np.array([data.draw(st.sampled_from([0.0, 1.0])) for _ in records])
    w = np.array([data.draw(NON_NEGATIVE) for _ in records])
    with tempfile.TemporaryDirectory() as d:
        _matrix_round_trip(records, y, w, Path(d) / "matrix.csv")


def test_write_table_plain_floats_and_empty_none(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, ("a", "b", "c", "d"), [(np.float64(0.1), None, 3, "x")])
    assert path.read_text().splitlines() == ["a,b,c,d", "0.1,,3,x"]
    # number columns write an int or a bool as a float, numpy's float as the Python float's repr
    rows = [(3, None, 4), (np.float64(0.1), 2, 5), (True, np.float64(1e-300), 6), (-0.0, -0.0, 7)]
    write_table(path, {"n": NUMBER, "o": optional_number(), "i": INTEGER}, rows)
    assert path.read_text().splitlines() == ["n,o,i", "3.0,,4", "0.1,2.0,5", "1.0,1e-300,6", "-0.0,-0.0,7"]


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
            with pytest.raises(ArtifactInvalid, match=f":2: column '{name}' is '', not a finite number"):
                lio.read_lifecycles(blanked(name))


# ---------------------------------------------------------------------------
# Malformed tables: every reader raises ArtifactInvalid naming path:line and the column
# ---------------------------------------------------------------------------

#: reader, the column whose removal is tried, and a column of each cell type the table has
READERS = {
    "messages": (lambda p: list(read_messages(p)), "side",
                 {"int": "price_ticks", "float": "size", "enum": "kind", "optional float": "exec_size",
                  "non-negative": "size"}),
    "truth": (read_truth, "pw_fill", {"int": "delta", "float": "lambda_exec"}),
    "lifecycles": (lio.read_lifecycles, "insert_ts_ns", {"int": "insert_ts_ns", "float": "outcome_time_s",
                   "enum": "side", "bool": "partial_window", "optional float": "dp_ask_horizon",
                   "positive": "size"}),
    "matrix": (lio.read_matrix, "delta", {"int": "insert_ts_ns", "float": "delta", "enum": "outcome",
               "optional float": "dp_ask_horizon", "positive": "outcome_time_s", "non-negative": "weight",
               "0-or-1": "label"}),
}
SCHEMAS = {
    "messages": MESSAGE_FIELDS, "truth": TRUTH_FIELDS, "lifecycles": lio.LIFECYCLE_FIELDS, "matrix": lio.MATRIX_FIELDS,
}
BAD_CELLS = {"int": "1.5", "float": "b", "enum": "abc", "bool": "2", "optional float": "x"}
#: cells ``float`` parses that a number column refuses
NON_FINITE = ("nan", "inf", "-inf")
#: each column domain: what its error says a cell must be, finite cells it refuses and a zero cell it keeps
DOMAINS = {
    "positive": ("a positive finite number", ("-1.0", "0.0"), ()),
    "non-negative": ("a non-negative finite number", ("-1.0",), ("0.0",)),
    "0-or-1": ("0 or 1", ("-1.0", "2.0"), ("0.0",)),
}
CASES = [
    (artifact, case)
    for artifact, (_, _, typed) in READERS.items()
    for case in [
        "missing column", *(f"bad {kind}" for kind in typed if kind in BAD_CELLS),
        "short row", "long row", "empty file", *(["ndjson log"] if artifact == "messages" else []),
        *(f"{cell} {kind}" for kind in ("float", "optional float") if kind in typed for cell in NON_FINITE),
        *(f"{cell} {domain}" for domain, (_, refused, kept) in DOMAINS.items() if domain in typed
          for cell in refused + kept),
    ]
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
    _, y, w, kept, _ = build_training_matrix(records, 1.0, stratified_censoring_survival(records))
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
    elif case.split(" ", 1)[0] in NON_FINITE or case.split(" ", 1)[1] in DOMAINS:
        cell, kind = case.split(" ", 1)
        column = typed[kind]
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
    if case == "ndjson log":  # one JSON object per line, as older lobkit versions also read a log
        out.write_text("".join(json.dumps(dict(zip(header, row)), sort_keys=True) + "\n" for row in rows))
        return 1, header[0], None
    with out.open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return line, column, cell


@pytest.mark.parametrize("artifact,case", CASES)
def test_malformed_table_names_file_line_and_column(artifacts, tmp_path, artifact, case):
    read, removed, typed = READERS[artifact]
    path = tmp_path / f"{artifact}.{'ndjson' if case == 'ndjson log' else 'csv'}"
    line, column, cell = _malformed(artifacts / f"{artifact}.csv", path, case, removed, typed)
    expects, _, kept = DOMAINS.get(case.split(" ", 1)[-1], (SCHEMAS[artifact][column or removed].expects, (), ()))
    if cell in kept:
        read(path)  # a zero weight, label or message size is in its domain
        return
    with pytest.raises(ArtifactInvalid) as err:
        read(path)
    message = str(err.value)
    assert message.startswith(f"{path}:{line}: ") and repr(column) in message
    if cell is not None:
        assert repr(cell) in message
    if cell in NON_FINITE or case.endswith(tuple(DOMAINS)):
        assert message.endswith(f"column {column!r} is {cell!r}, not {expects}")


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
