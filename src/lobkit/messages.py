"""Level-3 message stream: types, validation and file formats.

A stream is a sequence of add / cancel / execute events, each carrying a
strictly increasing sequence number and a nanosecond timestamp.  Prices are
integer tick counts; the tick size lives in :class:`InstrumentConfig` so that
price-level arithmetic stays exact.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator


class Side(Enum):
    BID = "bid"
    ASK = "ask"

    @property
    def opposite(self) -> "Side":
        return Side.ASK if self is Side.BID else Side.BID


class MessageKind(Enum):
    ADD = "add"
    CANCEL = "cancel"
    EXECUTE = "execute"


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
        if self.kind is MessageKind.ADD and self.size <= 0:
            raise ValueError(f"add size must be > 0, got {self.size}")
        if self.kind is MessageKind.EXECUTE and self.exec_size <= 0:
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


MESSAGE_FIELDS = ("seq", "ts_ns", "kind", "order_id", "side", "price_ticks", "size", "exec_size")


def write_messages(path: str | Path, messages: Iterable[Level3Message]) -> None:
    """Write a stream to CSV or newline-delimited JSON (by extension)."""
    path = Path(path)
    if path.suffix == ".ndjson":
        with path.open("w") as fh:
            for m in messages:
                fh.write(json.dumps(_to_record(m), sort_keys=True))
                fh.write("\n")
        return
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MESSAGE_FIELDS)
        for m in messages:
            rec = _to_record(m)
            writer.writerow([rec[k] for k in MESSAGE_FIELDS])


def read_messages(path: str | Path) -> Iterator[Level3Message]:
    """Read a stream from CSV or newline-delimited JSON (by extension)."""
    path = Path(path)
    if path.suffix == ".ndjson":
        with path.open() as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield _from_record(json.loads(line))
        return
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            yield _from_record(row)


def _to_record(m: Level3Message) -> dict:
    return {
        "seq": m.seq,
        "ts_ns": m.ts,
        "kind": m.kind.value,
        "order_id": m.order_id,
        "side": m.side.value,
        "price_ticks": m.price,
        "size": repr(float(m.size)),
        "exec_size": repr(float(m.exec_size)) if m.kind is MessageKind.EXECUTE else "",
    }


def _from_record(rec: dict) -> Level3Message:
    exec_size = rec.get("exec_size") or 0.0
    return Level3Message(
        seq=int(rec["seq"]),
        ts=int(rec["ts_ns"]),
        kind=MessageKind(rec["kind"]),
        order_id=str(rec["order_id"]),
        side=Side(rec["side"]),
        price=int(rec["price_ticks"]),
        size=float(rec.get("size") or 0.0),
        exec_size=float(exec_size),
    )
