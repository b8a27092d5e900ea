import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobkit.book import BookState, CrossedBook, UnknownOrderId
from lobkit.messages import InstrumentConfig, Level3Message, MessageKind, Side
from lobkit.replay import EmptyStream, Outcome, fill_ratio_icdf, track_lifecycles

A, C, E = MessageKind.ADD, MessageKind.CANCEL, MessageKind.EXECUTE
B, S = Side.BID, Side.ASK

SEC = 1_000_000_000


def _msg(seq, kind, oid, side, price, size=0.0, exec_size=0.0, ts=0.0):
    return Level3Message(seq, int(ts * SEC), kind, oid, side, price, size, exec_size)


def _inst(**kw):
    defaults = dict(tick_size=0.01, horizon=1.0, depth_mode="bps", depth_value=500.0)
    defaults.update(kw)
    return InstrumentConfig(**defaults)


def _walls(seq0=1, ts=0.0):
    return [
        _msg(seq0, A, "wb", B, 1000, size=50, ts=ts),
        _msg(seq0 + 1, A, "wa", S, 1004, size=50, ts=ts),
    ]


def test_filled_within_horizon_no_dp():
    msgs = _walls() + [
        _msg(3, A, "x", B, 999, size=5, ts=0.1),
        _msg(4, E, "x", B, 999, exec_size=5, ts=0.5),
        _msg(5, C, "wb", B, 1000, ts=3.0),
    ]
    rec = {r.order_id: r for r in track_lifecycles(msgs, _inst()).records}["x"]
    assert rec.outcome is Outcome.FILLED
    assert rec.outcome_time == pytest.approx(0.4)
    assert rec.fill_ratio == 1.0
    assert rec.dp_ask_horizon is None


def test_alive_at_stream_end_censored():
    msgs = _walls() + [_msg(3, A, "x", B, 999, size=5, ts=0.1), _msg(4, C, "wb", B, 1000, ts=0.3)]
    rec = {r.order_id: r for r in track_lifecycles(msgs, _inst()).records}["x"]
    assert rec.outcome is Outcome.CENSORED
    assert rec.outcome_time == pytest.approx(0.2)


def test_cancelled_after_horizon_records_ask_move():
    # best ask moves +3 ticks at t=0.6, before the 1 s horizon; order dies at 2.4 s
    msgs = _walls() + [
        _msg(3, A, "x", B, 999, size=5, ts=0.1),
        _msg(4, C, "wa", S, 1004, ts=0.6),
        _msg(5, A, "wa2", S, 1007, size=50, ts=0.6),
        _msg(6, C, "x", B, 999, ts=2.4),
        _msg(7, C, "wb", B, 1000, ts=3.0),
    ]
    rec = {r.order_id: r for r in track_lifecycles(msgs, _inst()).records}["x"]
    assert rec.outcome is Outcome.CANCELLED
    assert rec.outcome_time == pytest.approx(2.3)
    assert rec.dp_ask_horizon == 3.0


def test_dp_uses_state_at_exact_horizon():
    # ask moves +3 before the horizon and +5 more after; only the first counts
    msgs = _walls() + [
        _msg(3, A, "x", B, 999, size=5, ts=0.0),
        _msg(4, C, "wa", S, 1004, ts=0.4),
        _msg(5, A, "wa2", S, 1007, size=50, ts=0.4),
        _msg(6, C, "wa2", S, 1007, ts=1.5),
        _msg(7, A, "wa3", S, 1012, size=50, ts=1.5),
        _msg(8, C, "x", B, 999, ts=2.0),
    ]
    rec = {r.order_id: r for r in track_lifecycles(msgs, _inst()).records}["x"]
    assert rec.dp_ask_horizon == 3.0


def test_sequence_gap_censors_live_orders():
    msgs = _walls() + [
        _msg(3, A, "x", B, 999, size=5, ts=0.2),
        _msg(9, A, "y", B, 998, size=5, ts=1.0),  # gap: seq jumps 4 -> 9
        _msg(10, C, "y", B, 998, ts=1.4),
    ]
    result = track_lifecycles(msgs, _inst())
    by_id = {r.order_id: r for r in result.records}
    assert result.diagnostics.gaps == 1
    assert by_id["x"].outcome is Outcome.CENSORED
    assert by_id["x"].outcome_time == pytest.approx(0.0 + 0.2 - 0.2 + 1e-9)  # censored at prev ts
    assert by_id["y"].outcome is Outcome.CANCELLED


def test_gap_invalidates_pending_ask_measurement():
    msgs = _walls() + [
        _msg(3, A, "x", B, 999, size=5, ts=0.2),
        _msg(9, C, "x", B, 999, ts=5.0),  # gap spans the measurement point
    ]
    rec = {r.order_id: r for r in track_lifecycles(msgs, _inst()).records}["x"]
    assert rec.outcome is Outcome.CENSORED
    assert rec.dp_ask_horizon is None


def test_marketable_remainder_excluded_from_tracking():
    # taker buy sweeps the ask, remainder rests as a new best bid at the same ts
    msgs = _walls() + [
        _msg(3, E, "wa", S, 1004, exec_size=50, ts=0.5),
        _msg(4, A, "rem", B, 1003, size=5, ts=0.5),
        _msg(5, A, "wa2", S, 1006, size=50, ts=0.5),
        _msg(6, C, "rem", B, 1003, ts=1.0),
    ]
    result = track_lifecycles(msgs, _inst())
    ids = {r.order_id for r in result.records}
    assert "rem" not in ids
    assert result.diagnostics.marketable_excluded == 1


def test_partial_fill_then_cancel_keeps_ratio():
    msgs = _walls() + [
        _msg(3, A, "x", B, 999, size=4, ts=0.1),
        _msg(4, E, "x", B, 999, exec_size=1, ts=0.2),
        _msg(5, C, "x", B, 999, ts=0.4),
    ]
    rec = {r.order_id: r for r in track_lifecycles(msgs, _inst()).records}["x"]
    assert rec.outcome is Outcome.CANCELLED
    assert rec.fill_ratio == pytest.approx(0.25)
    assert rec.fill_ratio_within(1.0) == pytest.approx(0.25)


def test_depth_filter_bps_mode():
    # mid 1002; 20 bps of mid is ~2 ticks at tick / price of this scale
    msgs = _walls() + [
        _msg(3, A, "near", B, 1001, size=1, ts=0.1),
        _msg(4, A, "far", B, 950, size=1, ts=0.2),
        _msg(5, C, "near", B, 1001, ts=0.5),
    ]
    result = track_lifecycles(msgs, _inst(depth_value=20.0))
    ids = {r.order_id for r in result.records}
    assert "near" in ids and "far" not in ids
    assert result.diagnostics.depth_excluded >= 1


def test_depth_filter_levels_mode():
    msgs = _walls() + [
        _msg(3, A, "l2", B, 999, size=1, ts=0.1),
        _msg(4, A, "l3", B, 998, size=1, ts=0.2),
        _msg(5, A, "l4", B, 997, size=1, ts=0.3),
    ]
    result = track_lifecycles(msgs, _inst(depth_mode="levels", depth_value=3))
    ids = {r.order_id for r in result.records}
    assert {"l2", "l3"} <= ids  # wall itself ranks first
    assert "l4" not in ids


def test_lifecycle_partition_every_add_one_outcome():
    msgs = _walls() + [
        _msg(3, A, "x1", B, 999, size=1, ts=0.1),
        _msg(4, A, "x2", B, 998, size=1, ts=0.2),
        _msg(5, E, "x1", B, 999, exec_size=1, ts=0.4),
        _msg(6, C, "x2", B, 998, ts=0.6),
        _msg(7, A, "x3", B, 997, size=1, ts=0.7),
    ]
    result = track_lifecycles(msgs, _inst())
    outcomes = {r.order_id: r.outcome for r in result.records}
    assert outcomes["x1"] is Outcome.FILLED
    assert outcomes["x2"] is Outcome.CANCELLED
    assert outcomes["x3"] is Outcome.CENSORED
    assert all(r.outcome is not None for r in result.records)
    assert all(r.outcome_time > 0 for r in result.records)


REPLAY_OPS = st.lists(
    st.tuples(
        st.one_of(
            # every add takes a fresh id; cancels and executes name one that may be gone or never added
            # ticks away from the 1000/1001 touch (-1 may cross) and size (0 is invalid)
            st.tuples(st.just(A), st.sampled_from(Side), st.integers(-1, 3), st.integers(0, 3)),
            st.tuples(st.just(C), st.integers(0, 15)),
            st.tuples(st.just(E), st.integers(0, 15), st.integers(1, 4)),
        ),
        st.integers(0, 2),  # time step in tenths of a second: equal stamps make marketable remainders
        st.booleans(),  # skip a sequence number
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(ops=REPLAY_OPS, depth=st.sampled_from([5.0, 500.0]), walls=st.booleans())
# a bid filled whole, an ask added at the fill's timestamp (a marketable remainder), a bid beyond the depth
@example(
    ops=[((A, B, 0, 2), 1, False), ((E, 0, 2), 1, False), ((A, S, 0, 1), 0, False), ((A, B, 3, 1), 0, False)],
    depth=5.0,
    walls=True,
)
def test_every_accepted_add_is_a_record_or_a_counted_exclusion(ops, depth, walls):
    msgs, live, ts = (_walls() if walls else []), {}, 0.0
    for (kind, *rest), step, skip in ops:
        seq = (msgs[-1].seq if msgs else 0) + (2 if skip else 1)
        ts += step / 10
        if kind is A:
            side, away, size = rest
            price = 1000 - away if side is B else 1001 + away
            oid = f"o{len(live)}"
            live[oid] = (side, price)
            msgs.append(_msg(seq, A, oid, side, price, size=size, ts=ts))
        else:
            oid = f"o{rest[0]}"
            side, price = live.get(oid, (B, 1000))
            msgs.append(_msg(seq, kind, oid, side, price, exec_size=rest[1] if len(rest) > 1 else 0.0, ts=ts))
    result = track_lifecycles(msgs, _inst(depth_value=depth))
    d = result.diagnostics
    reference, accepted = BookState(), 0
    for m in msgs:
        try:
            reference.apply(m)
        except (CrossedBook, UnknownOrderId, ValueError):
            continue
        accepted += m.kind is A
    assert d.accepted_adds == accepted
    assert d.accepted_adds == len(result.records) + d.marketable_excluded + d.depth_excluded + d.no_reference_skipped


def test_empty_stream_raises():
    with pytest.raises(EmptyStream):
        track_lifecycles([], _inst())


# ---------------------------------------------------------------------------
# Fill ratio diagnostic
# ---------------------------------------------------------------------------


def _ratio_records(ratios):
    msgs = list(_walls())
    seq = 3
    t = 0.1
    for i, ratio in enumerate(ratios):
        oid = f"r{i}"
        msgs.append(_msg(seq, A, oid, B, 999 - i, size=1.0, ts=t))
        seq += 1
        if ratio > 0:
            msgs.append(_msg(seq, E, oid, B, 999 - i, exec_size=ratio, ts=t + 0.2))
            seq += 1
        t += 0.01
    msgs.append(_msg(seq, C, "wb", B, 1000, ts=t + 5.0))
    return track_lifecycles(msgs, _inst()).records


def test_fill_ratio_icdf_counting_oracle():
    records = [r for r in _ratio_records([0.0, 0.5, 1.0]) if r.order_id.startswith("r")]
    icdf = fill_ratio_icdf(records, horizon=1.0)
    assert icdf.at(0.25) == pytest.approx(2 / 3)
    assert icdf.at(-1e-9) == 1.0
    assert icdf.at(1.0) == 0.0


def test_fill_ratio_icdf_degenerate_cases():
    unfilled = [r for r in _ratio_records([0.0, 0.0]) if r.order_id.startswith("r")]
    assert fill_ratio_icdf(unfilled, 1.0).at(0.0) == 0.0
    filled = [r for r in _ratio_records([1.0, 1.0]) if r.order_id.startswith("r")]
    icdf = fill_ratio_icdf(filled, 1.0)
    for x in (0.0, 0.3, 0.99):
        assert icdf.at(x) == 1.0


def test_fill_ratio_icdf_nonincreasing():
    records = [r for r in _ratio_records([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]) if r.order_id.startswith("r")]
    icdf = fill_ratio_icdf(records, 1.0)
    xs = [i / 20 for i in range(21)]
    vals = [icdf.at(x) for x in xs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
