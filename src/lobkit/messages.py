"""Level-3 message stream: types, validation and file formats.

A stream is a sequence of add / cancel / execute events, each carrying a
strictly increasing sequence number and a nanosecond timestamp.  Prices are
integer tick counts; the tick size lives in :class:`InstrumentConfig` so that
price-level arithmetic stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import starmap
from pathlib import Path
from typing import Iterable, Iterator

from .table import INTEGER, NON_NEGATIVE, TEXT, choice, optional_number, read_table, write_table


class Side(Enum):
    BID = "bid"
    ASK = "ask"

    @property
    def opposite(self) -> "Side":
        return ASK if self is BID else BID


class MessageKind(Enum):
    ADD = "add"
    CANCEL = "cancel"
    EXECUTE = "execute"


# the members as module constants, for the hot paths: on Python 3.11 each
# ``Side.ASK``-style lookup runs ``EnumType.__getattr__``
BID, ASK = Side.BID, Side.ASK
ADD, CANCEL, EXECUTE = MessageKind.ADD, MessageKind.CANCEL, MessageKind.EXECUTE


@dataclass(slots=True)
class Level3Message:
    """One exchange event.

    ``size`` is the posted size for adds and is unused for executes, where
    ``exec_size`` carries the consumed quantity instead.  A cancel with
    ``size == 0`` removes the full remaining quantity.
    """

    seq: int
    ts: int  # nanoseconds since epoch
    kind: MessageKind
    order_id: str
    side: Side
    price: int  # integer ticks
    size: float = 0.0
    exec_size: float = 0.0

    def validate(self) -> None:
        if self.price <= 0:
            raise ValueError(f"price must be positive ticks, got {self.price}")
        if self.kind is ADD and self.size <= 0:
            raise ValueError(f"add size must be > 0, got {self.size}")
        if self.kind is EXECUTE and self.exec_size <= 0:
            raise ValueError(f"exec_size must be > 0, got {self.exec_size}")


@dataclass(slots=True)
class InstrumentConfig:
    """Per-instrument replay parameters.

    ``depth_mode`` selects how far from the touch an order may sit and still
    be tracked: ``"bps"`` keeps orders within ``depth_value`` basis points of
    the mid price (small-tick instruments), ``"levels"`` keeps orders within
    the ``depth_value`` best occupied price levels on their side (large-tick
    instruments).
    """

    tick_size: float = 0.01
    horizon: float = 1.0  # seconds
    depth_mode: str = "bps"
    depth_value: float = 20.0
    event_window: int = 50
    trade_window: int = 50

    def __post_init__(self) -> None:
        if self.tick_size <= 0:
            raise ValueError("tick_size must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.depth_mode not in ("bps", "levels"):
            raise ValueError(f"unknown depth_mode {self.depth_mode!r}")
        for key in ("event_window", "trade_window"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")


SIDE = choice({s.value: s for s in Side})
#: The message log's columns.
MESSAGE_FIELDS = {
    "seq": INTEGER,
    "ts_ns": INTEGER,
    "kind": choice({k.value: k for k in MessageKind}),
    "order_id": TEXT,
    "side": SIDE,
    "price_ticks": INTEGER,
    "size": NON_NEGATIVE,
    "exec_size": optional_number(empty=0.0, kind=NON_NEGATIVE),  # written only for executes
}


def _message_row(m: Level3Message) -> tuple:
    return (
        m.seq, m.ts, m.kind, m.order_id, m.side, m.price, m.size, m.exec_size if m.kind is EXECUTE else None
    )


def write_messages(path: str | Path, messages: Iterable[Level3Message]) -> None:
    """Write a stream as a CSV table."""
    write_table(path, MESSAGE_FIELDS, map(_message_row, messages))


def read_messages(path: str | Path) -> Iterator[Level3Message]:
    """Read a stream from a CSV table."""
    return starmap(Level3Message, read_table(path, MESSAGE_FIELDS))
