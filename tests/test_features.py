import csv
import math
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobkit.book import BookState, EmptySideError
from lobkit.features import (
    FEATURE_COLUMNS,
    RollingWindows,
    SpreadTooNarrow,
    aggressiveness_index,
    assemble_features,
    best_imbalance,
    distance_at_insertion,
)
from lobkit.io import write_lifecycles
from lobkit.messages import InstrumentConfig, Level3Message, MessageKind, Side
from lobkit.replay import track_lifecycles


def test_distance_bid_at_best_is_zero():
    assert distance_at_insertion(Side.BID, 100, 100, 104) == 0


def test_distance_bid_below_best():
    assert distance_at_insertion(Side.BID, 97, 100, 104) == 3


def test_distance_inside_spread_negative():
    assert distance_at_insertion(Side.BID, 102, 100, 104) == -2


def test_distance_ask_side_mirrors():
    assert distance_at_insertion(Side.ASK, 107, 100, 104) == 3
    assert distance_at_insertion(Side.ASK, 102, 100, 104) == -2


def test_distance_requires_same_side_best():
    with pytest.raises(EmptySideError):
        distance_at_insertion(Side.BID, 100, None, 104)


def test_best_imbalance_values():
    assert best_imbalance(5.0, 5.0) == 0.0
    assert best_imbalance(3.0, 1.0) == pytest.approx(0.5)
    assert best_imbalance(0.0, 4.0) == -1.0
    with pytest.raises(EmptySideError):
        best_imbalance(0.0, 0.0)


def test_aggressiveness_index_endpoints():
    assert aggressiveness_index(0, 5) == 0.0
    assert aggressiveness_index(-4, 5) == pytest.approx(1.0)
    assert aggressiveness_index(-2, 5) == pytest.approx(0.5)
    with pytest.raises(SpreadTooNarrow):
        aggressiveness_index(0, 1)


def test_aggressiveness_two_forms_agree_exactly():
    # delta/(1 - spread) versus (spread - spread_after)/(spread - 1)
    for spread in range(2, 12):
        for delta in range(-spread + 1, 1):
            spread_after = spread + delta
            direct = aggressiveness_index(delta, spread)
            alternate = (spread - spread_after) / (spread - 1)
            assert direct == alternate


# ---------------------------------------------------------------------------
# Assembly on a scripted stream
# ---------------------------------------------------------------------------


def _msg(seq, kind, oid, side, price, size=0.0, exec_size=0.0, ts=None):
    return Level3Message(seq, ts if ts is not None else seq * 10_000_000, kind, oid, side, price, size, exec_size)


def _scripted_stream():
    # wall book, two trades, then a passive and an aggressive subject order
    A, C, E, B, S = MessageKind.ADD, MessageKind.CANCEL, MessageKind.EXECUTE, Side.BID, Side.ASK
    return [
        _msg(1, A, "b1", B, 995, size=10),
        _msg(2, A, "a1", S, 1005, size=8),
        _msg(3, A, "b2", B, 990, size=4),
        _msg(4, A, "a2", S, 1010, size=6),
        _msg(5, E, "a1", S, 1005, exec_size=2),  # taker buy, 2 @ 1005
        _msg(6, E, "b1", B, 995, exec_size=3),  # taker sell, 3 @ 995
        _msg(7, A, "sub1", B, 992, size=5),  # passive subject, delta 3
        _msg(8, A, "sub2", B, 999, size=2),  # aggressive subject, delta -4
        _msg(9, C, "sub1", B, 992),
        _msg(10, C, "sub2", B, 999),
    ]


def _instrument(**kw):
    defaults = dict(tick_size=0.01, horizon=1.0, depth_mode="bps", depth_value=500.0, event_window=50, trade_window=50)
    defaults.update(kw)
    return InstrumentConfig(**defaults)


def test_assembled_features_match_hand_trace():
    result = track_lifecycles(_scripted_stream(), _instrument())
    by_id = {r.order_id: r for r in result.records}
    sub1 = by_id["sub1"].features
    # book before sub1: bids 995(b1,7),990(b2,4); asks 1005(a1,6),1010(a2,6)
    assert sub1.delta == 3.0
    assert sub1.spread == 10.0
    assert sub1.spread_after == 10.0
    assert sub1.aggressiveness is None
    # best queues after insertion: bid 7 @995, ask 6 @1005
    assert sub1.best_imbalance == pytest.approx((7 - 6) / 13)
    # added volume in window: bid 10+4+5=19, ask 8+6=14
    assert sub1.add_imbalance == pytest.approx((19 - 14) / 33)
    # net flow: bid 19-3=16, ask 14-2=12 -> signed 4, imbalance 4/28
    assert sub1.signed_flow == pytest.approx(4.0)
    assert sub1.flow_imbalance == pytest.approx(4.0 / 28.0)
    # trades: 2 on ask side, 3 on bid side (taker view: signed = ask - bid)
    assert sub1.signed_traded == pytest.approx(-1.0)
    assert sub1.traded_imbalance == pytest.approx(-1.0 / 5.0)
    # priority: better bid level holds 7, own level empty ahead
    assert sub1.prior_volume == pytest.approx(7.0)
    assert sub1.size == 5.0
    assert sub1.partial_window  # fewer than 50 trades seen

    sub2 = by_id["sub2"].features
    assert sub2.delta == -4.0
    assert sub2.aggressiveness == pytest.approx((-4.0) / (1.0 - 10.0))
    assert sub2.spread_after == 6.0
    assert sub2.prior_volume == 0.0  # new best queue
    assert by_id["sub2"].outcome.name == "CANCELLED"


def test_volatility_and_durations_from_trades():
    msgs = _scripted_stream()
    result = track_lifecycles(msgs, _instrument())
    sub1 = {r.order_id: r for r in result.records}["sub1"].features
    expected_vol = 100.0 * abs(math.log(995.0 / 1005.0))
    assert sub1.volatility == pytest.approx(expected_vol)
    # trades at ts 50ms and 60ms; subject inserted at 70ms
    assert sub1.time_since_trade == pytest.approx(0.01)
    assert sub1.median_trade_duration == pytest.approx(0.01)


def _mirror(messages):
    """Swap sides and reflect prices around a constant; a valid mirrored stream."""
    pivot = 2000
    out = []
    for m in messages:
        out.append(
            Level3Message(
                m.seq,
                m.ts,
                m.kind,
                m.order_id,
                m.side.opposite,
                pivot - m.price,
                m.size,
                m.exec_size,
            )
        )
    return out


def test_mirror_antisymmetry():
    base = track_lifecycles(_scripted_stream(), _instrument())
    mirrored = track_lifecycles(_mirror(_scripted_stream()), _instrument())
    for rec_b, rec_m in zip(base.records, mirrored.records):
        fb, fm = rec_b.features, rec_m.features
        assert fb.delta == fm.delta
        assert fb.spread == fm.spread
        assert fb.spread_after == fm.spread_after
        assert fb.prior_volume == fm.prior_volume
        assert (fb.aggressiveness is None) == (fm.aggressiveness is None)
        if fb.aggressiveness is not None:
            assert fb.aggressiveness == pytest.approx(fm.aggressiveness)
        assert fb.best_imbalance == pytest.approx(-fm.best_imbalance)
        assert fb.add_imbalance == pytest.approx(-fm.add_imbalance)
        assert fb.signed_flow == pytest.approx(-fm.signed_flow)
        assert fb.signed_traded == pytest.approx(-fm.signed_traded)
        assert fb.traded_imbalance == pytest.approx(-fm.traded_imbalance)
        assert fb.time_since_trade == fm.time_since_trade
        assert fb.median_trade_duration == fm.median_trade_duration
        # reflected prices do not preserve log returns exactly
        assert fb.volatility == pytest.approx(fm.volatility, rel=2e-2)


def test_feature_row_layout():
    result = track_lifecycles(_scripted_stream(), _instrument())
    row = result.records[0].features.to_row()
    assert row.shape == (len(FEATURE_COLUMNS),)
    assert row[FEATURE_COLUMNS.index("is_at_best")] in (0.0, 1.0)


def test_priority_volume_non_increasing_under_executions():
    from lobkit.book import BookState

    A, E, B, S = MessageKind.ADD, MessageKind.EXECUTE, Side.BID, Side.ASK
    book = BookState()
    book.apply(_msg(1, A, "b1", B, 100, size=5))
    book.apply(_msg(2, A, "b2", B, 100, size=3))
    book.apply(_msg(3, A, "mine", B, 99, size=2))
    history = [book.priority_volume("mine")]
    for seq, take in ((4, 2.0), (5, 3.0), (6, 3.0)):
        book.apply(_msg(seq, E, "b1" if seq < 6 else "b2", B, 100, exec_size=take))
        history.append(book.priority_volume("mine"))
    assert history == [8.0, 6.0, 3.0, 0.0]
    assert all(a >= b for a, b in zip(history, history[1:]))


def test_signed_traded_is_a_float_before_any_trade(tmp_path):
    """An empty trade window gives the float 0.0, written to lifecycles.csv as ``0.0``."""
    msgs = [m for m in _scripted_stream() if m.kind is MessageKind.ADD]  # no trade at all
    result = track_lifecycles(msgs, _instrument())
    assert result.records
    assert all(type(r.features.signed_traded) is float for r in result.records)
    path = tmp_path / "lifecycles.csv"
    write_lifecycles(path, result.records, horizon=1.0)
    with path.open(newline="") as fh:
        assert {row["signed_traded"] for row in csv.DictReader(fh)} == {"0.0"}


# ---------------------------------------------------------------------------
# Window features against a recompute over the last m pushes
# ---------------------------------------------------------------------------

BID, ASK = Side.BID, Side.ASK
ADD, CANCEL, EXECUTE = MessageKind.ADD, MessageKind.CANCEL, MessageKind.EXECUTE
WINDOW_FIELDS = (
    "add_imbalance",
    "signed_flow",
    "flow_imbalance",
    "signed_traded",
    "traded_imbalance",
    "time_since_trade",
    "median_trade_duration",
    "volatility",
    "partial_window",
)
SIZES = st.floats(min_value=0.01, max_value=50.0)
EVENTS = st.tuples(st.just("event"), st.sampled_from(Side), st.sampled_from(MessageKind), SIZES)
# a trade op carries the nanoseconds since the previous push, not a timestamp
TRADES = st.tuples(st.just("trade"), st.integers(0, 10**9), st.sampled_from(Side), SIZES, st.integers(990, 1010))
SUBJECT_TS = 10**12


def _reference(events, trades, m_events, m_trades, start_ts):
    """Each window feature recomputed from the last ``m`` pushes (None: no added volume)."""
    ev, tr = events[-m_events:], trades[-m_trades:]
    add_bid = math.fsum(s for side, kind, s in ev if kind is ADD and side is BID)
    add_ask = math.fsum(s for side, kind, s in ev if kind is ADD and side is ASK)
    if add_bid + add_ask <= 0:
        return None
    net_bid = math.fsum(s if kind is ADD else -s for side, kind, s in ev if side is BID)
    net_ask = math.fsum(s if kind is ADD else -s for side, kind, s in ev if side is ASK)
    traded_bid = math.fsum(s for _, side, s, _ in tr if side is BID)
    traded_ask = math.fsum(s for _, side, s, _ in tr if side is ASK)
    signed_flow = net_bid - net_ask
    flow_denom = abs(net_bid) + abs(net_ask)
    signed_traded = traded_ask - traded_bid
    traded_total = traded_ask + traded_bid
    stamps = [t for t, _, _, _ in tr]
    returns = [math.log(b) - math.log(a) for a, b in pairwise(p for _, _, _, p in tr)]
    last_ts = stamps[-1] if stamps else (start_ts if start_ts is not None else SUBJECT_TS)
    return {
        "add_imbalance": (add_bid - add_ask) / (add_bid + add_ask),
        "signed_flow": signed_flow,
        "flow_imbalance": signed_flow / flow_denom if flow_denom > 0 else 0.0,
        "signed_traded": signed_traded,
        "traded_imbalance": signed_traded / traded_total if traded_total > 0 else 0.0,
        "time_since_trade": (SUBJECT_TS - last_ts) / 1e9,
        "median_trade_duration": float(np.median(np.diff(np.asarray(stamps, dtype=float)) / 1e9))
        if len(stamps) >= 2
        else 0.0,
        "volatility": 100.0 * math.sqrt(math.fsum(r * r for r in returns) / len(returns)) if returns else 0.0,
        "partial_window": len(trades) < m_trades or len(tr) < 2,
    }


def _quoted_book():
    """Bid 100 and ask 104 before the subject; the subject bids 101 after."""
    book = BookState()
    book.apply(_msg(1, MessageKind.ADD, "b", Side.BID, 100, size=5.0))
    book.apply(_msg(2, MessageKind.ADD, "a", Side.ASK, 104, size=3.0))
    book.apply(_msg(3, MessageKind.ADD, "sub", Side.BID, 101, size=2.0))
    return book


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    ops=st.lists(st.one_of(EVENTS, TRADES), max_size=24),
    m_events=st.integers(1, 10),
    m_trades=st.integers(1, 10),
    started=st.booleans(),
)
# the three add-imbalance cases: 1.0, 0.0 and 0.5
@example(ops=[("event", BID, ADD, 5.0)], m_events=50, m_trades=50, started=True)
@example(ops=[("event", BID, ADD, 5.0), ("event", ASK, ADD, 5.0)], m_events=50, m_trades=50, started=True)
@example(ops=[("event", BID, ADD, 30.0), ("event", ASK, ADD, 10.0)], m_events=50, m_trades=50, started=True)
# both windows evict; exactly a full trade window; a single trade; no added volume
@example(
    ops=[("event", BID, ADD, 1.0), ("trade", 5, ASK, 2.0, 1000), ("event", ASK, CANCEL, 1.5),
         ("trade", 7, BID, 1.0, 998), ("event", BID, EXECUTE, 1.0), ("trade", 3, ASK, 0.5, 1001),
         ("event", ASK, ADD, 2.5)],
    m_events=2, m_trades=2, started=True,
)
@example(
    ops=[("event", BID, ADD, 1.0), ("trade", 5, ASK, 2.0, 1000), ("trade", 9, BID, 1.0, 1001)],
    m_events=2, m_trades=2, started=True,
)
@example(ops=[("trade", 5, BID, 1.0, 1000), ("event", ASK, ADD, 2.0)], m_events=3, m_trades=4, started=False)
@example(ops=[("event", BID, ADD, 1.0), ("event", ASK, CANCEL, 1.0)], m_events=1, m_trades=3, started=True)
# a window of one trade: each push evicts the trade before it, and with it the only gap
@example(
    ops=[("event", BID, ADD, 1.0), ("trade", 5, ASK, 2.0, 1000), ("trade", 9, BID, 1.0, 1003),
         ("trade", 4, BID, 3.0, 997)],
    m_events=1, m_trades=1, started=True,
)
# long enough to evict from every key: added, signed and traded on both sides, gaps and returns
@example(
    ops=[("event", BID, ADD, 1.0), ("event", ASK, ADD, 2.0), ("event", BID, CANCEL, 0.5),
         ("event", ASK, EXECUTE, 1.5), ("trade", 5, ASK, 2.0, 1000), ("trade", 9, BID, 1.0, 1003),
         ("trade", 4, ASK, 0.25, 998), ("trade", 6, BID, 3.0, 997), ("event", BID, ADD, 4.0),
         ("event", ASK, ADD, 3.0), ("event", BID, EXECUTE, 2.0), ("event", ASK, CANCEL, 1.0),
         ("event", BID, ADD, 0.75), ("trade", 2, ASK, 1.25, 1001), ("trade", 7, BID, 0.5, 1002),
         ("trade", 3, ASK, 2.5, 999)],
    m_events=3, m_trades=3, started=True,
)
# equal gaps evicted from a full trade window, then a gap unlike the newest: one gap (two trades),
# two gaps (three trades: the even-length median) and three gaps (four trades)
@example(
    ops=[("event", BID, ADD, 1.0), ("trade", 0, ASK, 1.0, 1000), ("trade", 3, BID, 1.0, 1001),
         ("trade", 3, ASK, 1.0, 1000), ("trade", 8, BID, 1.0, 1002)],
    m_events=1, m_trades=2, started=True,
)
@example(
    ops=[("event", BID, ADD, 1.0), ("trade", 0, ASK, 1.0, 1000), ("trade", 5, BID, 1.0, 1001),
         ("trade", 5, ASK, 1.0, 1000), ("trade", 7, BID, 1.0, 1002), ("trade", 3, ASK, 1.0, 1001)],
    m_events=1, m_trades=3, started=True,
)
@example(
    ops=[("event", BID, ADD, 1.0), ("trade", 0, ASK, 1.0, 1000), ("trade", 4, BID, 1.0, 1001),
         ("trade", 4, ASK, 1.0, 1000), ("trade", 4, BID, 1.0, 1002), ("trade", 9, ASK, 1.0, 1001),
         ("trade", 2, BID, 1.0, 999), ("trade", 6, ASK, 1.0, 1000)],
    m_events=1, m_trades=4, started=True,
)
def test_window_features_match_reference(ops, m_events, m_trades, started):
    windows = RollingWindows(m_events, m_trades)
    start_ts = 1_000 if started else None
    if started:
        windows.note_start(start_ts)
    events, trades, ts = [], [], start_ts or 0
    for op in ops:
        if op[0] == "event":
            events.append(op[1:])
            windows.push_event(*op[1:])
        else:
            ts += op[1]
            trades.append((ts, *op[2:]))
            windows.push_trade(ts, *op[2:])
    expected = _reference(events, trades, m_events, m_trades, start_ts)

    if expected is None:
        with pytest.raises(ValueError, match="no added volume"):
            _assemble(windows)
        return
    got = _assemble(windows)
    assert {name: getattr(got, name) for name in WINDOW_FIELDS} == expected


def _assemble(windows: RollingWindows):
    """The subject bid of ``_quoted_book`` assembled on ``windows``."""
    return assemble_features(
        side=Side.BID, price=101, size=2.0, ts=SUBJECT_TS, best_bid_before=100, best_ask_before=104,
        book_after=_quoted_book(), order_id="sub", windows=windows,
    )


def _window_volatility(prices):
    """(volatility, partial_window) of a subject after one trade at each price."""
    windows = RollingWindows(1, len(prices))
    windows.push_event(BID, ADD, 2.0)
    for i, price in enumerate(prices):
        windows.push_trade(1_000 + i, ASK, 1.0, price)
    got = _assemble(windows)
    return got.volatility, got.partial_window


def test_realized_volatility_closed_forms():
    """Root mean squared log return of consecutive trade prices, in percent per trade."""
    assert _window_volatility([100.0, 100.0, 100.0]) == (0.0, False)
    r = 0.02
    prices = [100.0, 100.0 * (1 + r)] * 6
    assert _window_volatility(prices)[0] == pytest.approx(100.0 * abs(math.log(1 + r)))
    a, b, c = 0.01, -0.02, 0.003
    p0 = 50.0
    prices = [p0, p0 * math.exp(a), p0 * math.exp(a + b), p0 * math.exp(a + b + c)]
    assert _window_volatility(prices)[0] == pytest.approx(100.0 * math.sqrt((a * a + b * b + c * c) / 3))
    # one trade has no return: zero, and the row is flagged
    assert _window_volatility([100.0]) == (0.0, True)
