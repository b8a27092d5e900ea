"""Covariate state observed when a limit order enters the book.

The vector mixes snapshot quantities (distance, spread, queue imbalance,
priority volume) with rolling-window quantities computed over the last
``m`` events and the last ``m`` trades (signed flows, trade durations,
realized volatility).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Iterable

import numpy as np

from .book import BookState, EmptySideError
from .messages import ADD, ASK, BID, MessageKind, Side


class SpreadTooNarrow(ValueError):
    pass


#: Column layout of the model matrix.  ``aggressiveness`` is zero-imputed for
#: non-aggressive rows; the two trailing indicators encode the placement
#: regime so a pooled model can distinguish them.
FEATURE_COLUMNS = (
    "delta",
    "spread",
    "spread_after",
    "best_imbalance",
    "add_imbalance",
    "aggressiveness",
    "prior_volume",
    "size",
    "signed_flow",
    "flow_imbalance",
    "signed_traded",
    "traded_imbalance",
    "time_since_trade",
    "median_trade_duration",
    "volatility",
    "is_at_best",
    "is_aggressive",
)
_ROW = attrgetter(*FEATURE_COLUMNS)
_AGGRESSIVENESS_AT = FEATURE_COLUMNS.index("aggressiveness")
_WIDTH = len(FEATURE_COLUMNS)


@dataclass(slots=True)
class FeatureVector:
    delta: float  # ticks to the same-side best before insertion
    spread: float  # ticks, before insertion
    spread_after: float  # ticks, after insertion
    best_imbalance: float
    add_imbalance: float
    aggressiveness: float | None  # only when delta < 0 and spread > 1
    prior_volume: float
    size: float
    signed_flow: float
    flow_imbalance: float
    signed_traded: float
    traded_imbalance: float
    time_since_trade: float  # seconds
    median_trade_duration: float  # seconds
    volatility: float  # percent per trade
    partial_window: bool = False

    @property
    def is_at_best(self) -> float:
        return 1.0 if self.delta == 0 else 0.0

    @property
    def is_aggressive(self) -> float:
        return 1.0 if self.delta < 0 else 0.0

    def to_row(self) -> np.ndarray:
        """The model row: ``feature_matrix``'s row for this vector alone."""
        return feature_matrix((self,))[0]


def feature_matrix(vectors: Iterable[FeatureVector]) -> np.ndarray:
    """The (n, len(FEATURE_COLUMNS)) model matrix, one row per vector: the
    ``FEATURE_COLUMNS`` attributes, a ``None`` aggressiveness as 0.0."""
    vectors = list(vectors)
    # one flat stream of floats, so no tuple per row is held at once; a None aggressiveness reads NaN here
    n = len(vectors)
    X = np.fromiter(chain.from_iterable(map(_ROW, vectors)), float, n * _WIDTH).reshape(n, _WIDTH)
    X[:, _AGGRESSIVENESS_AT] = [0.0 if v.aggressiveness is None else v.aggressiveness for v in vectors]
    return X


class RollingWindows:
    """The last ``m`` events and the last ``m`` trades, plus each value a
    window feature sums over, filed under its key as it is pushed.

    ``added[s]`` holds the added sizes of a side, ``signed[s]`` its event
    sizes signed (add +, cancel/execute -), ``traded[s]`` the sizes traded
    against a resting side, and ``gaps``/``squared_returns`` the seconds and
    the squared log return between consecutive window trades.  The per-side
    keys are pairs indexed by ``s = side is ASK`` (bid first), which costs
    no enum hashing.  Every key is in push order, so an eviction drops the
    oldest entry of the evicted item's keys and each key always matches its
    window.  ``sorted_gaps`` holds the same values as ``gaps`` in ascending
    order, for the median.
    """

    def __init__(self, event_window: int = 50, trade_window: int = 50):
        self.events: deque[tuple[Side, MessageKind, float]] = deque(maxlen=event_window)
        self.trades: deque[tuple[int, Side, float, int]] = deque(maxlen=trade_window)
        self.added: tuple[deque[float], deque[float]] = (deque(), deque())
        self.signed: tuple[deque[float], deque[float]] = (deque(), deque())
        self.traded: tuple[deque[float], deque[float]] = (deque(), deque())
        self.gaps: deque[float] = deque()
        self.sorted_gaps: list[float] = []
        self.squared_returns: deque[float] = deque()
        self.trades_seen = 0
        self.start_ts: int | None = None

    def push_event(self, side: Side, kind: MessageKind, size: float) -> None:
        if len(self.events) == self.events.maxlen:
            old_side, old_kind, _ = self.events.popleft()
            old_ask = old_side is ASK
            self.signed[old_ask].popleft()
            if old_kind is ADD:
                self.added[old_ask].popleft()
        self.events.append((side, kind, size))
        ask = side is ASK
        if kind is ADD:
            self.added[ask].append(size)
            self.signed[ask].append(size)
        else:
            self.signed[ask].append(-size)

    def push_trade(self, ts: int, resting_side: Side, size: float, price: int) -> None:
        if len(self.trades) == self.trades.maxlen:
            self.traded[self.trades.popleft()[1] is ASK].popleft()
            if self.gaps:
                sorted_gaps = self.sorted_gaps
                del sorted_gaps[bisect_left(sorted_gaps, self.gaps.popleft())]
                self.squared_returns.popleft()
        if self.trades:
            last_ts, _, _, last_price = self.trades[-1]
            # difference of the float timestamps: the median equals np.median(np.diff(stamps))
            gap = (float(ts) - float(last_ts)) / 1e9
            self.gaps.append(gap)
            insort(self.sorted_gaps, gap)
            log_return = math.log(price) - math.log(last_price)
            self.squared_returns.append(log_return * log_return)
        self.trades.append((ts, resting_side, size, price))
        self.traded[resting_side is ASK].append(size)
        self.trades_seen += 1

    def note_start(self, ts: int) -> None:
        if self.start_ts is None:
            self.start_ts = ts


# ---------------------------------------------------------------------------
# Individual features
# ---------------------------------------------------------------------------


def distance_at_insertion(side: Side, price: int, best_bid: int | None, best_ask: int | None) -> int:
    """Ticks between the order price and the same-side best before insertion."""
    if side is BID:
        if best_bid is None:
            raise EmptySideError("no best bid before insertion")
        return best_bid - price
    if best_ask is None:
        raise EmptySideError("no best ask before insertion")
    return price - best_ask


def best_imbalance(q_bid: float, q_ask: float) -> float:
    total = q_bid + q_ask
    if total <= 0:
        raise EmptySideError("both best queues empty")
    return (q_bid - q_ask) / total


def aggressiveness_index(delta: float, spread: float) -> float:
    """Spread narrowing of an in-spread order: 0 at the best, 1 at a 1-tick spread."""
    if spread <= 1:
        raise SpreadTooNarrow(f"spread must exceed 1 tick, got {spread}")
    if not -spread < delta <= 0:
        raise ValueError(f"delta must be in (-spread, 0], got {delta}")
    return delta / (1.0 - spread)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def assemble_features(
    *,
    side: Side,
    price: int,
    size: float,
    ts: int,
    best_bid_before: int | None,
    best_ask_before: int | None,
    book_after: BookState,
    order_id: str,
    windows: RollingWindows,
) -> FeatureVector:
    """Full covariate snapshot for an order just inserted into ``book_after``.

    The event window must already include the insertion.  Rows computed on a
    partial trade window are flagged; training drops them by default.
    """
    delta = distance_at_insertion(side, price, best_bid_before, best_ask_before)
    if best_bid_before is None or best_ask_before is None:
        raise EmptySideError("spread requires both sides before insertion")
    spread = best_ask_before - best_bid_before
    spread_after = book_after.spread_ticks()

    omega: float | None = None
    if delta < 0 and spread > 1:
        omega = aggressiveness_index(delta, spread)

    # every sum is math.fsum: correctly rounded, whatever the order
    add_bid, add_ask = map(math.fsum, windows.added)
    net_bid, net_ask = map(math.fsum, windows.signed)
    traded_bid, traded_ask = map(math.fsum, windows.traded)

    # net liquidity change with the bid-positive convention
    signed_flow = net_bid - net_ask
    flow_denom = abs(net_bid) + abs(net_ask)
    # traded volume from the taker's viewpoint: lifted asks count positive
    signed_traded = traded_ask - traded_bid
    traded_total = traded_ask + traded_bid

    partial = windows.trades_seen < windows.trades.maxlen
    if windows.trades:
        time_since_trade = (ts - windows.trades[-1][0]) / 1e9
    else:
        time_since_trade = (ts - (windows.start_ts if windows.start_ts is not None else ts)) / 1e9
        partial = True
    gaps = windows.sorted_gaps
    if gaps:
        # statistics.median of the window's gaps
        half = len(gaps) // 2
        median_dur = gaps[half] if len(gaps) % 2 else (gaps[half - 1] + gaps[half]) / 2
        # root mean squared log return of consecutive trade prices, in percent per trade
        vol = 100.0 * math.sqrt(math.fsum(windows.squared_returns) / len(windows.squared_returns))
    else:
        median_dur = vol = 0.0
        partial = True

    best_imb = best_imbalance(book_after.best_queue_size(BID), book_after.best_queue_size(ASK))
    added = add_bid + add_ask  # the current order included
    if added <= 0:
        raise ValueError("window holds no added volume; push the order first")

    # positional, in field order
    return FeatureVector(
        float(delta),
        float(spread),
        float(spread_after),
        best_imb,
        (add_bid - add_ask) / added,
        omega,
        book_after.priority_volume(order_id),
        float(size),
        signed_flow,
        signed_flow / flow_denom if flow_denom > 0 else 0.0,
        signed_traded,
        signed_traded / traded_total if traded_total > 0 else 0.0,
        time_since_trade,
        median_dur,
        vol,
        partial,
    )
