"""Replay a message stream into per-order lifecycle records.

Every add that passes the depth filter becomes one record ending in exactly
one of filled / cancelled / censored.  Orders still alive at a sequence gap
or at stream end are censored at the last observed timestamp.  For orders
that outlive the horizon, the best-ask move over the horizon is captured for
the clean-up cost model.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

from .book import BookState, CrossedBook, EmptySideError, UnknownOrderId
from .features import FeatureVector, RollingWindows, assemble_features
from .messages import ADD, CANCEL, EXECUTE, InstrumentConfig, Level3Message, Side


class EmptyStream(ValueError):
    pass


class FeatureOverflow(ValueError):
    """A sum an add's features take (its windows, the volume ahead of it) overflows a float."""


class Outcome(IntEnum):
    # values match the survival cause codes
    CENSORED = 0
    FILLED = 1
    CANCELLED = 2


@dataclass(slots=True)
class OrderLifecycle:
    order_id: str
    side: Side
    insert_ts: int
    price: int
    size: float
    features: FeatureVector
    outcome: Outcome | None = None
    outcome_time: float = 0.0  # seconds from insertion
    fill_ratio: float = 0.0
    executions: list[tuple[int, float]] = field(default_factory=list)
    dp_ask_horizon: float | None = None  # ticks, only when alive through the horizon
    insert_best_ask: int = 0
    fill_ratio_horizon: float | None = None  # persisted ratio for reloaded records

    def fill_ratio_within(self, horizon: float) -> float:
        """Fraction of the size executed within ``horizon`` seconds."""
        if not self.executions:
            if self.fill_ratio_horizon is not None:
                return self.fill_ratio_horizon
            return 0.0
        limit = self.insert_ts + int(round(horizon * 1e9))
        executed = sum(size for ts, size in self.executions if ts <= limit)
        return min(1.0, executed / self.size)


@dataclass
class ReplayDiagnostics:
    """Replay's counters.  Every add the book accepts ends as one record or
    one exclusion: ``accepted_adds == records + marketable_excluded +
    depth_excluded + no_reference_skipped``."""

    messages: int = 0
    accepted_adds: int = 0
    gaps: int = 0
    crossed_rejected: int = 0
    unknown_rejected: int = 0
    invalid_rejected: int = 0
    marketable_excluded: int = 0
    depth_excluded: int = 0
    no_reference_skipped: int = 0
    zero_lifetime_clamped: int = 0
    exec_overflow: int = 0
    trade_count: int = 0
    trade_volume: float = 0.0
    first_ts: int | None = None
    last_ts: int | None = None

    @property
    def average_trade_size(self) -> float:
        return self.trade_volume / self.trade_count if self.trade_count else 0.0


@dataclass
class ReplayResult:
    records: list[OrderLifecycle]
    diagnostics: ReplayDiagnostics


def _passes_depth_filter(cfg: InstrumentConfig, price: int, mid_before: float, book_after: BookState, side: Side) -> bool:
    if cfg.depth_mode == "bps":
        return abs(price - mid_before) / mid_before * 1e4 <= cfg.depth_value
    return book_after.level_rank(side, price) <= cfg.depth_value


def track_lifecycles(stream: Iterable[Level3Message], cfg: InstrumentConfig) -> ReplayResult:
    """One pass over a stream; gaps censor, crossings are rejected and flagged."""
    book = BookState()
    windows = RollingWindows(cfg.event_window, cfg.trade_window)
    diag = ReplayDiagnostics()
    records: list[OrderLifecycle] = []
    live: dict[str, OrderLifecycle] = {}
    horizon_ns = int(round(cfg.horizon * 1e9))
    # (measure_ts, insertion index) for best-ask snapshots at insert + horizon
    pending: list[tuple[int, int]] = []
    last_exec: tuple[int, Side] | None = None  # (ts, resting side) of the last execute
    prev_ts: int | None = None

    def close(rec: OrderLifecycle, outcome: Outcome, ts: int) -> None:
        rec.outcome = outcome
        dt = (ts - rec.insert_ts) / 1e9
        if dt <= 0:
            dt = 1e-9
            diag.zero_lifetime_clamped += 1
        rec.outcome_time = dt
        live.pop(rec.order_id, None)

    def flush_measurements(up_to_ts: int, drop_after: bool = False) -> None:
        """Resolve ask snapshots due at or before ``up_to_ts``."""
        while pending and pending[0][0] <= up_to_ts:
            _, idx = heapq.heappop(pending)
            rec = records[idx]
            if rec.outcome is not None and rec.outcome_time * 1e9 <= horizon_ns:
                continue  # died within the horizon, no clean-up target
            best_ask = book.best_ask()
            if best_ask is not None:
                rec.dp_ask_horizon = float(best_ask - rec.insert_best_ask)
        if drop_after:
            pending.clear()

    for msg in stream:
        diag.messages += 1
        if diag.first_ts is None:
            diag.first_ts = msg.ts
            windows.note_start(msg.ts)

        gap = book.last_seq is not None and msg.seq != book.last_seq + 1
        if gap:
            diag.gaps += 1
            cutoff = prev_ts if prev_ts is not None else msg.ts
            flush_measurements(cutoff, drop_after=True)
            for rec in list(live.values()):
                close(rec, Outcome.CENSORED, cutoff)
        elif pending and pending[0][0] < msg.ts:
            flush_measurements(msg.ts - 1)

        # snapshot the pre-insertion state for feature computation
        best_bid_before = book.best_bid()
        best_ask_before = book.best_ask()

        try:
            effect = book.apply(msg)
        except CrossedBook:
            diag.crossed_rejected += 1
            prev_ts = msg.ts
            continue
        except UnknownOrderId:
            diag.unknown_rejected += 1
            prev_ts = msg.ts
            continue
        except ValueError:
            diag.invalid_rejected += 1
            prev_ts = msg.ts
            continue

        kind = effect.kind
        if kind is ADD:
            diag.accepted_adds += 1
            windows.push_event(effect.side, ADD, effect.added_size)
            marketable = (
                last_exec is not None
                and last_exec[0] == msg.ts
                and last_exec[1] is effect.side.opposite
            )
            tracked = _maybe_track(
                msg, cfg, book, windows, best_bid_before, best_ask_before, marketable, diag
            )
            if tracked is not None:
                live[msg.order_id] = tracked
                records.append(tracked)
                heapq.heappush(pending, (msg.ts + horizon_ns, len(records) - 1))
        elif kind is CANCEL:
            windows.push_event(effect.side, CANCEL, effect.cancelled_size)
            rec = live.get(msg.order_id)
            if rec is not None:
                close(rec, Outcome.CANCELLED, msg.ts)
        else:
            consumed = sum(f.size for f in effect.fills)
            if consumed > 0:
                windows.push_event(effect.side, EXECUTE, consumed)
                windows.push_trade(msg.ts, effect.side, consumed, effect.price)
                diag.trade_count += 1
                diag.trade_volume += consumed
            if effect.unconsumed > 0:
                diag.exec_overflow += 1
            for f in effect.fills:
                rec = live.get(f.order_id)
                if rec is None:
                    continue
                rec.executions.append((msg.ts, f.size))
                if f.exhausted:
                    rec.fill_ratio = 1.0
                    close(rec, Outcome.FILLED, msg.ts)
                else:
                    rec.fill_ratio = min(1.0, sum(s for _, s in rec.executions) / rec.size)
            last_exec = (msg.ts, effect.side)
        prev_ts = msg.ts

    if diag.messages == 0:
        raise EmptyStream("stream holds no messages")
    diag.last_ts = prev_ts
    flush_measurements(prev_ts, drop_after=True)
    for rec in list(live.values()):
        close(rec, Outcome.CENSORED, prev_ts)
    return ReplayResult(records=records, diagnostics=diag)


def _maybe_track(
    msg: Level3Message,
    cfg: InstrumentConfig,
    book: BookState,
    windows: RollingWindows,
    best_bid_before: int | None,
    best_ask_before: int | None,
    marketable: bool,
    diag: ReplayDiagnostics,
) -> OrderLifecycle | None:
    if marketable:
        # remainder of a marketable limit order: book updated, not studied
        diag.marketable_excluded += 1
        return None
    if best_bid_before is None or best_ask_before is None:
        diag.no_reference_skipped += 1
        return None
    mid_before = (best_bid_before + best_ask_before) / 2.0
    if not _passes_depth_filter(cfg, msg.price, mid_before, book, msg.side):
        diag.depth_excluded += 1
        return None
    try:
        features = assemble_features(
            side=msg.side,
            price=msg.price,
            size=msg.size,
            ts=msg.ts,
            best_bid_before=best_bid_before,
            best_ask_before=best_ask_before,
            book_after=book,
            order_id=msg.order_id,
            windows=windows,
        )
    except EmptySideError:
        diag.no_reference_skipped += 1
        return None
    except OverflowError as exc:
        raise FeatureOverflow(f"message seq {msg.seq} (add {msg.order_id!r}): a feature sum overflows ({exc})") from None
    best_ask_now = book.best_ask()
    return OrderLifecycle(
        order_id=msg.order_id,
        side=msg.side,
        insert_ts=msg.ts,
        price=msg.price,
        size=msg.size,
        features=features,
        insert_best_ask=best_ask_now if best_ask_now is not None else best_ask_before,
    )


# ---------------------------------------------------------------------------
# Fill-ratio diagnostic
# ---------------------------------------------------------------------------


class FillRatioICDF:
    """Step function ``x -> P(R > x)`` over per-order horizon fill ratios."""

    def __init__(self, ratios: Sequence[float]):
        if len(ratios) == 0:
            raise EmptyStream("no records")
        self.ratios = np.sort(np.asarray(ratios, dtype=float))

    def at(self, x: float | np.ndarray) -> float | np.ndarray:
        idx = np.searchsorted(self.ratios, np.asarray(x), side="right")
        out = (len(self.ratios) - idx) / len(self.ratios)
        return float(out) if np.isscalar(x) or np.asarray(x).ndim == 0 else out

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(breakpoints, value just above each breakpoint) for export."""
        xs = np.unique(self.ratios)
        return xs, np.asarray(self.at(xs))


def fill_ratio_icdf(records: Sequence[OrderLifecycle], horizon: float) -> FillRatioICDF:
    return FillRatioICDF([rec.fill_ratio_within(horizon) for rec in records])
