"""Price-time-priority order book maintained from a level-3 message stream.

Executions consume liquidity from the FIFO head of the referenced order's
price level, so a single execute message may sweep several queue entries.
The book never accepts a message that would cross it; callers decide whether
to abort or to skip-and-flag.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from .messages import ADD, BID, CANCEL, EXECUTE, Level3Message, MessageKind, Side


class BookError(Exception):
    pass


class UnknownOrderId(BookError):
    pass


class CrossedBook(BookError):
    pass


class EmptySideError(BookError):
    pass


@dataclass(slots=True)
class Fill:
    order_id: str
    size: float
    price: int
    side: Side  # resting side
    exhausted: bool  # True when the resting order is fully consumed


@dataclass(slots=True)
class ApplyEffect:
    """What a message did to the book, for lifecycle bookkeeping."""

    kind: MessageKind
    order_id: str
    side: Side
    price: int
    added_size: float = 0.0
    cancelled_size: float = 0.0
    fills: list[Fill] = field(default_factory=list)
    unconsumed: float = 0.0  # execute size left over after the level emptied


class BookState:
    """Mutable book: price level -> FIFO queue of [order_id, remaining].

    Each side also keeps its occupied prices as an ascending list (its
    ladder), so the best price is an end of the list and a level's rank is a
    bisection.
    """

    def __init__(self) -> None:
        self.bids: dict[int, deque[list]] = {}
        self.asks: dict[int, deque[list]] = {}
        self._orders: dict[str, tuple[Side, int]] = {}
        self._bid_prices: list[int] = []
        self._ask_prices: list[int] = []
        self.last_seq: int | None = None

    # -- queries ---------------------------------------------------------

    def _levels(self, side: Side) -> dict[int, deque[list]]:
        return self.bids if side is BID else self.asks

    def _ladder(self, side: Side) -> list[int]:
        return self._bid_prices if side is BID else self._ask_prices

    def _locate(self, order_id: str) -> tuple[Side, int]:
        """(side, price) of a live order."""
        try:
            return self._orders[order_id]
        except KeyError:
            raise UnknownOrderId(order_id) from None

    def best_bid(self) -> int | None:
        return self._bid_prices[-1] if self._bid_prices else None

    def best_ask(self) -> int | None:
        return self._ask_prices[0] if self._ask_prices else None

    def prices(self, side: Side) -> Iterator[int]:
        """The side's occupied prices, best first."""
        return reversed(self._bid_prices) if side is BID else iter(self._ask_prices)

    def spread_ticks(self) -> int:
        bb, ba = self.best_bid(), self.best_ask()
        if bb is None or ba is None:
            raise EmptySideError("spread requires both sides")
        return ba - bb

    def queue_at(self, side: Side, price: int) -> deque[list]:
        return self._levels(side).get(price, deque())

    def best_queue_size(self, side: Side) -> float:
        """The size resting at the side's best price."""
        if side is BID:
            levels, ladder, best = self.bids, self._bid_prices, -1
        else:
            levels, ladder, best = self.asks, self._ask_prices, 0
        if not ladder:
            raise EmptySideError(f"no {side.value} liquidity")
        return sum([entry[1] for entry in levels[ladder[best]]])

    def contains(self, order_id: str) -> bool:
        return order_id in self._orders

    def order_info(self, order_id: str) -> tuple[Side, int, float]:
        """(side, price, remaining) of a live order."""
        side, price = self._locate(order_id)
        for entry in self._levels(side)[price]:
            if entry[0] == order_id:
                return side, price, entry[1]
        raise UnknownOrderId(order_id)

    def priority_volume(self, order_id: str) -> float:
        """Size resting at strictly better prices plus same-price size ahead,
        summed with ``math.fsum`` (correctly rounded, in any order)."""
        side, price = self._locate(order_id)
        levels, ladder = self._levels(side), self._ladder(side)
        i = bisect.bisect_left(ladder, price)
        better = ladder[i + 1 :] if side is BID else ladder[:i]
        ahead = [entry[1] for p in better for entry in levels[p]]
        for entry in levels[price]:
            if entry[0] == order_id:
                break
            ahead.append(entry[1])
        return math.fsum(ahead)

    def level_rank(self, side: Side, price: int) -> int:
        """1-based rank of a price among the side's occupied levels, best first."""
        if price not in self._levels(side):
            raise UnknownOrderId(f"no level at {price}")
        ladder = self._ladder(side)
        i = bisect.bisect_left(ladder, price)
        return len(ladder) - i if side is BID else i + 1

    def ahead_in_queue(self, order_id: str) -> list[tuple[str, float]]:
        """FIFO entries ahead of an order at its own price level."""
        side, price, _ = self.order_info(order_id)
        out: list[tuple[str, float]] = []
        for entry in self._levels(side)[price]:
            if entry[0] == order_id:
                return out
            out.append((entry[0], entry[1]))
        raise UnknownOrderId(order_id)

    # -- mutation --------------------------------------------------------

    def apply(self, msg: Level3Message) -> ApplyEffect:
        """Apply one message; raises before mutating on any rejection.  The
        ``seq`` is recorded in ``last_seq``, not checked: replay finds gaps there."""
        msg.validate()
        kind = msg.kind
        if kind is ADD:
            effect = self._apply_add(msg)
        elif kind is CANCEL:
            effect = self._apply_cancel(msg)
        else:
            effect = self._apply_execute(msg)
        self.last_seq = msg.seq
        return effect

    def _apply_add(self, msg: Level3Message) -> ApplyEffect:
        if msg.order_id in self._orders:
            raise BookError(f"duplicate order id {msg.order_id}")
        if msg.side is BID:
            ba = self.best_ask()
            if ba is not None and msg.price >= ba:
                raise CrossedBook(f"bid {msg.price} >= best ask {ba}")
        else:
            bb = self.best_bid()
            if bb is not None and msg.price <= bb:
                raise CrossedBook(f"ask {msg.price} <= best bid {bb}")
        levels = self._levels(msg.side)
        if msg.price not in levels:
            levels[msg.price] = deque()
            bisect.insort(self._ladder(msg.side), msg.price)
        levels[msg.price].append([msg.order_id, msg.size])
        self._orders[msg.order_id] = (msg.side, msg.price)
        return ApplyEffect(ADD, msg.order_id, msg.side, msg.price, added_size=msg.size)

    def _apply_cancel(self, msg: Level3Message) -> ApplyEffect:
        order_id = msg.order_id
        side, price = self._locate(order_id)
        queue = self._levels(side)[price]
        for i, entry in enumerate(queue):
            if entry[0] == order_id:
                break
        del queue[i]
        if not queue:
            self._drop_level(side, price)
        del self._orders[order_id]
        return ApplyEffect(CANCEL, order_id, side, price, cancelled_size=entry[1])

    def _apply_execute(self, msg: Level3Message) -> ApplyEffect:
        side, price = self._locate(msg.order_id)
        queue = self._levels(side)[price]
        remaining = msg.exec_size
        fills: list[Fill] = []
        while remaining > 1e-12 and queue:
            head = queue[0]
            take = min(head[1], remaining)
            head[1] -= take
            remaining -= take
            exhausted = head[1] <= 1e-12
            fills.append(Fill(head[0], take, price, side, exhausted))
            if exhausted:
                queue.popleft()
                del self._orders[head[0]]
        if not queue:
            self._drop_level(side, price)
        # sub-epsilon residue is float noise from telescoping subtractions,
        # not real unfilled size
        unconsumed = remaining if remaining > 1e-9 else 0.0
        return ApplyEffect(EXECUTE, msg.order_id, side, price, fills=fills, unconsumed=unconsumed)

    def _drop_level(self, side: Side, price: int) -> None:
        del self._levels(side)[price]
        ladder = self._ladder(side)
        del ladder[bisect.bisect_left(ladder, price)]
