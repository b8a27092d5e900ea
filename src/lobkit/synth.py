"""Synthetic level-3 flow with known, configurable ground truth.

Two persistent quote walls carry the best prices and follow a lazy tick
random walk with configurable drift; trade prints consume wall liquidity.
Tracked subject orders arrive at Poisson times, each with an exponential
lifetime whose cause-specific rates are piecewise-constant functions of the
insertion state; the rates and the implied true fill probabilities go to a
sidecar table so estimators can be validated order by order.

Feed-loss censoring is realized as pure sequence-number gaps: downstream
tracking censors every live order at a gap while the book itself stays
consistent, which makes each order's censoring time exponential and
independent of its lifetime.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Callable, Sequence

import heapq

import numpy as np

from .book import BookState
from .messages import ADD, ASK, BID, CANCEL, EXECUTE, Level3Message, MessageKind, Side
from .table import INTEGER, NUMBER, TEXT, read_table, write_table


@dataclass(frozen=True)
class PiecewiseMultiplier:
    """Piecewise-constant multiplier; values clamp outside the edge range."""

    edges: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.values) + 1:
            raise ValueError("need one more edge than values")
        if any(v <= 0 for v in self.values):
            raise ValueError("multipliers must stay positive")

    def at(self, x: float) -> float:
        idx = bisect.bisect_right(self.edges, x) - 1
        return self.values[min(max(idx, 0), len(self.values) - 1)]


FLAT = PiecewiseMultiplier((-math.inf, math.inf), (1.0,))


@dataclass
class RegimeSpec:
    """One block of the cycling parameter schedule."""

    duration: float  # seconds
    exec_base: float = 0.8  # executions per second before multipliers
    cancel_base: float = 2.0
    move_rate: float = 2.0  # wall shifts per second
    up_probability: float = 0.5
    trade_rate: float = 4.0
    taker_buy_fraction: float = 0.5  # trades consuming the ask wall
    spread: int = 4  # wall spread, ticks

    @property
    def drift(self) -> float:
        """Expected ask move in ticks per second."""
        return self.move_rate * (2.0 * self.up_probability - 1.0)


@dataclass
class GroundTruthConfig:
    seed: int
    regimes: list[RegimeSpec] = field(default_factory=lambda: [RegimeSpec(duration=60.0)])
    subject_rate: float = 4.0
    subject_side: Side = Side.BID
    delta_choices: tuple[int, ...] = (0, 1, 2, 3, 4, 5)
    delta_weights: tuple[float, ...] | None = None
    size_range: tuple[float, float] = (0.5, 2.0)
    exec_delta_mult: PiecewiseMultiplier = FLAT
    exec_spread_mult: PiecewiseMultiplier = FLAT
    exec_imbalance_mult: PiecewiseMultiplier = FLAT
    cancel_delta_mult: PiecewiseMultiplier = FLAT
    cancel_spread_mult: PiecewiseMultiplier = FLAT
    cancel_imbalance_mult: PiecewiseMultiplier = FLAT
    censor_rate: float = 0.0  # feed gaps per second
    noise_rate: float = 2.0  # deep resting orders per second
    noise_cancel_rate: float = 1.0
    noise_depth_range: tuple[int, int] = (6, 30)
    wall_size: float = 60.0
    trade_size_range: tuple[float, float] = (0.4, 1.6)
    initial_bid: int = 50_000  # ticks
    horizon: float = 1.0  # seconds; drives the truth columns and arrival cutoff
    start_ts: int = 1_700_000_000_000_000_000  # ns epoch of the stream


@dataclass(slots=True)
class TruthRow:
    order_id: str
    lambda_exec: float
    lambda_cancel: float
    cif_exec: float
    cif_cancel: float
    pw_fill: float
    delta: int
    spread: int
    best_imbalance: float
    insert_ts: int
    regime: int


def hazard_rates(
    config: GroundTruthConfig,
    delta: float,
    spread: float,
    imbalance: float,
    regime: int = 0,
) -> tuple[float, float]:
    reg = config.regimes[regime % len(config.regimes)]
    lam1 = (
        reg.exec_base
        * config.exec_delta_mult.at(delta)
        * config.exec_spread_mult.at(spread)
        * config.exec_imbalance_mult.at(imbalance)
    )
    lam2 = (
        reg.cancel_base
        * config.cancel_delta_mult.at(delta)
        * config.cancel_spread_mult.at(spread)
        * config.cancel_imbalance_mult.at(imbalance)
    )
    return lam1, lam2


def competing_cif(lam1: float, lam2: float, horizon: float) -> float:
    total = lam1 + lam2
    if total == 0:
        return 0.0
    return lam1 / total * (1.0 - math.exp(-total * horizon))


def post_and_wait_probability(lam1: float, horizon: float) -> float:
    return 1.0 - math.exp(-lam1 * horizon)


def true_fill_probability(
    config: GroundTruthConfig,
    delta: float,
    spread: float,
    imbalance: float,
    horizon: float,
    mode: str = "cif",
    regime: int = 0,
) -> float:
    """Closed-form fill probability implied by the planted hazards."""
    lam1, lam2 = hazard_rates(config, delta, spread, imbalance, regime)
    if mode == "cif":
        return competing_cif(lam1, lam2, horizon)
    if mode == "post_and_wait":
        return post_and_wait_probability(lam1, horizon)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

_ARRIVE, _MOVE, _TRADE, _DEATH, _NOISE_ARRIVE, _NOISE_CANCEL, _GAP, _SWITCH = range(8)


def _check_draws(config: GroundTruthConfig) -> None:
    """The argument checks numpy's ``choice``, ``uniform`` and ``integers`` made on
    every draw, made once, with a ``ValueError`` naming the config field."""
    choices, weights = config.delta_choices, config.delta_weights
    if not choices:
        raise ValueError("delta_choices is empty")
    if weights is not None:
        if len(weights) != len(choices):
            raise ValueError(f"delta_weights has {len(weights)} weights for {len(choices)} delta_choices")
        if not all(math.isfinite(w) and w >= 0 for w in weights) or not 0 < sum(weights) < math.inf:
            raise ValueError(f"delta_weights must be finite, non-negative and not all zero, got {weights}")
    for name in ("size_range", "trade_size_range"):
        lo, hi = getattr(config, name)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"{name} must be finite with low <= high, got {(lo, hi)}")
    lo, hi = config.noise_depth_range
    if not (isinstance(lo, (int, np.integer)) and isinstance(hi, (int, np.integer)) and lo <= hi):
        raise ValueError(f"noise_depth_range must be integers with low <= high, got {(lo, hi)}")


def delta_draw(rng: np.random.Generator, choices: Sequence[int], weights: Sequence[float] | None) -> Callable[[], int]:
    """Draws of ``int(rng.choice(choices, p=weights / sum(weights)))``: the same
    bit-generator values, taken in numpy's order, without its per-call wrapper."""
    deltas = [int(d) for d in np.asarray(choices)]
    if weights is None:
        integers, n = rng.integers, len(deltas)
        return lambda: deltas[integers(n)]
    # numpy's own cdf: normalized p, cumulated, divided by its last entry
    cdf = (np.asarray(weights) / np.sum(weights)).cumsum()
    cdf /= cdf[-1]
    cdf, random = cdf.tolist(), rng.random
    return lambda: deltas[bisect.bisect_right(cdf, random())]  # searchsorted(side="right")


def uniform_draw(rng: np.random.Generator, low: float, high: float) -> Callable[[], float]:
    """Draws of ``float(rng.uniform(low, high))``, which is ``low + (high - low) * rng.random()``."""
    low, random = float(low), rng.random
    span = float(high) - low
    return lambda: low + span * random()


class FlowGenerator:
    """One seeded stream: ``run()`` returns its messages and truth rows, and the
    ``skipped_*`` counters then hold the subject arrivals, trades and wall moves it skipped."""

    def __init__(self, config: GroundTruthConfig, duration: float):
        _check_draws(config)
        self.cfg = config
        self.duration = duration
        self.rng = np.random.default_rng(config.seed)
        self.draw_delta = delta_draw(self.rng, config.delta_choices, config.delta_weights)
        self.draw_size = uniform_draw(self.rng, *config.size_range)
        self.draw_trade_size = uniform_draw(self.rng, *config.trade_size_range)
        self.start_ts = config.start_ts
        self.book = BookState()
        self.messages: list[Level3Message] = []
        self.truth: list[TruthRow] = []
        self.seq = 0
        self.counter = 0
        self.heap: list[tuple[float, int, int, tuple]] = []
        self.regime_idx = 0
        self.wall_id = {BID: "", ASK: ""}
        self.wall_price = {BID: 0, ASK: 0}
        self.next_id = 0
        self.gap_pending = False
        self.skipped_moves = 0
        self.skipped_trades = 0
        self.skipped_subjects = 0

    # -- plumbing ----------------------------------------------------------

    def _push(self, t: float, kind: int, payload: tuple = ()) -> None:
        self.counter += 1
        heapq.heappush(self.heap, (t, self.counter, kind, payload))

    def _fresh_id(self, prefix: str) -> str:
        self.next_id += 1
        return f"{prefix}{self.next_id}"

    def _emit(self, t: float, kind: MessageKind, order_id: str, side: Side, price: int, size: float = 0.0, exec_size: float = 0.0) -> None:
        self.seq += 1
        if self.gap_pending:
            self.seq += int(self.rng.integers(2, 20))
            self.gap_pending = False
        ts = self.start_ts + int(round(t * 1e9))
        msg = Level3Message(self.seq, ts, kind, order_id, side, price, size, exec_size)  # positional: no kwargs parse
        self.book.apply(msg)
        self.messages.append(msg)

    def regime(self) -> RegimeSpec:
        return self.cfg.regimes[self.regime_idx % len(self.cfg.regimes)]

    # -- walls ---------------------------------------------------------------

    def _place_wall(self, t: float, side: Side, price: int) -> None:
        oid = self._fresh_id("w")
        self._emit(t, ADD, oid, side, price, size=self.cfg.wall_size)
        self.wall_id[side] = oid
        self.wall_price[side] = price

    def _move_walls(self, t: float, direction: int) -> None:
        new_bid = self.wall_price[BID] + direction
        new_ask = self.wall_price[ASK] + direction
        if new_bid <= 0:
            self.skipped_moves += 1
            return
        # moving down may not cross resting bids; moving up may not cross asks
        blocking_bid = self._best_non_wall(BID)
        blocking_ask = self._best_non_wall(ASK)
        if direction < 0 and blocking_bid is not None and new_ask <= blocking_bid:
            self.skipped_moves += 1
            return
        if direction > 0 and blocking_ask is not None and new_bid >= blocking_ask:
            self.skipped_moves += 1
            return
        first, second = (ASK, BID) if direction > 0 else (BID, ASK)
        for side in (first, second):
            price = new_bid if side is BID else new_ask
            self._emit(t, CANCEL, self.wall_id[side], side, self.wall_price[side])
            self._place_wall(t, side, price)

    def _best_non_wall(self, side: Side) -> int | None:
        """Best resting price on a side ignoring that side's wall."""
        wall = self.wall_id[side]
        levels = self.book.bids if side is BID else self.book.asks
        for price in self.book.prices(side):
            if any(e[0] != wall for e in levels[price]):
                return price
        return None

    def _refresh_wall(self, t: float, side: Side) -> None:
        self._emit(t, CANCEL, self.wall_id[side], side, self.wall_price[side])
        self._place_wall(t, side, self.wall_price[side])

    # -- events ---------------------------------------------------------------

    def _on_trade(self, t: float) -> None:
        reg = self.regime()
        side = ASK if self.rng.random() < reg.taker_buy_fraction else BID
        wall = self.wall_id[side]
        price = self.wall_price[side]
        queue = self.book.queue_at(side, price)
        if not queue or queue[0][0] != wall:
            self.skipped_trades += 1
            return
        remaining = queue[0][1]
        size = min(self.draw_trade_size(), 0.5 * remaining)
        if size <= 0:
            self.skipped_trades += 1
            return
        self._emit(t, EXECUTE, wall, side, price, exec_size=size)
        queue = self.book.queue_at(side, price)
        if not queue or queue[0][0] != wall:
            return
        if queue[0][1] < max(self.cfg.trade_size_range):
            self._refresh_wall(t, side)

    def _on_subject_arrival(self, t: float) -> None:
        cfg = self.cfg
        side = cfg.subject_side
        best_bid = self.book.best_bid()
        best_ask = self.book.best_ask()
        if best_bid is None or best_ask is None:
            self.skipped_subjects += 1
            return
        spread = best_ask - best_bid
        for _ in range(4):
            delta = self.draw_delta()
            if side is BID:
                price = best_bid - delta
                crossing = price >= best_ask
            else:
                price = best_ask + delta
                crossing = price <= best_bid
            if price <= 0 or crossing:
                continue
            level = self.book.queue_at(side, price)
            if level and delta != 0:
                continue  # keep each subject alone at its level
            if level and delta == 0 and any(e[0].startswith("s") for e in level):
                continue  # one subject per best queue
            oid = self._fresh_id("s")
            self._emit(t, ADD, oid, side, price, size=self.draw_size())
            q_bid = self.book.best_queue_size(BID)
            q_ask = self.book.best_queue_size(ASK)
            imbalance = (q_bid - q_ask) / (q_bid + q_ask)
            lam1, lam2 = hazard_rates(self.cfg, delta, spread, imbalance, self.regime_idx)
            total = lam1 + lam2
            lifetime = float(self.rng.exponential(1.0 / total)) if total > 0 else math.inf
            cause_exec = bool(self.rng.random() < (lam1 / total if total > 0 else 0.0))
            if math.isfinite(lifetime):
                self._push(t + lifetime, _DEATH, (oid, cause_exec))
            self.truth.append(
                TruthRow(
                    order_id=oid,
                    lambda_exec=lam1,
                    lambda_cancel=lam2,
                    cif_exec=competing_cif(lam1, lam2, cfg.horizon),
                    cif_cancel=competing_cif(lam2, lam1, cfg.horizon),
                    pw_fill=post_and_wait_probability(lam1, cfg.horizon),
                    delta=delta,
                    spread=spread,
                    best_imbalance=imbalance,
                    insert_ts=cfg.start_ts + int(round(t * 1e9)),
                    regime=self.regime_idx % len(cfg.regimes),
                )
            )
            return
        self.skipped_subjects += 1

    def _on_death(self, t: float, order_id: str, executed: bool) -> None:
        if not self.book.contains(order_id):
            return
        side, price, remaining = self.book.order_info(order_id)
        if not executed:
            self._emit(t, CANCEL, order_id, side, price)
            return
        ahead = self.book.ahead_in_queue(order_id)
        exec_size = sum(size for _, size in ahead) + remaining
        head = ahead[0][0] if ahead else order_id
        wall_consumed = any(oid == self.wall_id[side] for oid, _ in ahead)
        self._emit(t, EXECUTE, head, side, price, exec_size=exec_size)
        if wall_consumed:
            self._place_wall(t, side, price)

    def _on_noise_arrival(self, t: float) -> None:
        cfg = self.cfg
        best_bid = self.book.best_bid()
        best_ask = self.book.best_ask()
        if best_bid is None or best_ask is None:
            return
        side = BID if self.rng.random() < 0.5 else ASK
        depth = int(self.rng.integers(cfg.noise_depth_range[0], cfg.noise_depth_range[1] + 1))
        price = best_bid - depth if side is BID else best_ask + depth
        if price <= 0 or self.book.queue_at(side, price):
            return
        oid = self._fresh_id("n")
        self._emit(t, ADD, oid, side, price, size=self.draw_size())
        self._push(t + float(self.rng.exponential(1.0 / cfg.noise_cancel_rate)), _NOISE_CANCEL, (oid,))

    def _on_noise_cancel(self, t: float, order_id: str) -> None:
        if self.book.contains(order_id):
            side, price, _ = self.book.order_info(order_id)
            self._emit(t, CANCEL, order_id, side, price)

    # -- main loop --------------------------------------------------------------

    def run(self) -> tuple[list[Level3Message], list[TruthRow]]:
        cfg = self.cfg
        reg = self.regime()
        self._place_wall(0.0, BID, cfg.initial_bid)
        self._place_wall(0.0, ASK, cfg.initial_bid + reg.spread)

        def arm(kind: int, rate: float, now: float) -> None:
            if rate > 0:
                self._push(now + float(self.rng.exponential(1.0 / rate)), kind)

        arm(_ARRIVE, cfg.subject_rate, 0.0)
        arm(_MOVE, reg.move_rate, 0.0)
        arm(_TRADE, reg.trade_rate, 0.0)
        arm(_NOISE_ARRIVE, cfg.noise_rate, 0.0)
        arm(_GAP, cfg.censor_rate, 0.0)
        if len(cfg.regimes) > 1 or cfg.regimes[0].duration < self.duration:
            self._push(reg.duration, _SWITCH)

        arrival_cutoff = self.duration - 1.5 * cfg.horizon
        while self.heap:
            t, _, kind, payload = heapq.heappop(self.heap)
            if t >= self.duration:
                break
            reg = self.regime()
            if kind == _ARRIVE:
                if t < arrival_cutoff:
                    self._on_subject_arrival(t)
                arm(_ARRIVE, cfg.subject_rate, t)
            elif kind == _MOVE:
                direction = 1 if self.rng.random() < reg.up_probability else -1
                self._move_walls(t, direction)
                arm(_MOVE, reg.move_rate, t)
            elif kind == _TRADE:
                self._on_trade(t)
                arm(_TRADE, reg.trade_rate, t)
            elif kind == _DEATH:
                self._on_death(t, *payload)
            elif kind == _NOISE_ARRIVE:
                self._on_noise_arrival(t)
                arm(_NOISE_ARRIVE, cfg.noise_rate, t)
            elif kind == _NOISE_CANCEL:
                self._on_noise_cancel(t, *payload)
            elif kind == _GAP:
                self.gap_pending = True
                arm(_GAP, cfg.censor_rate, t)
            elif kind == _SWITCH:
                self.regime_idx += 1
                new = self.regime()
                self._push(t + new.duration, _SWITCH)
                # retarget the ask wall to the new spread when it stays uncrossed
                target_ask = self.wall_price[BID] + new.spread
                best_bid = self.book.best_bid()
                if best_bid is not None and target_ask > best_bid and target_ask != self.wall_price[ASK]:
                    self._emit(t, CANCEL, self.wall_id[ASK], ASK, self.wall_price[ASK])
                    self._place_wall(t, ASK, target_ask)
        return self.messages, self.truth


def generate_flow(config: GroundTruthConfig, duration: float) -> tuple[list[Level3Message], list[TruthRow]]:
    """Seed-deterministic stream plus its per-order truth sidecar."""
    return FlowGenerator(config, duration).run()


# ---------------------------------------------------------------------------
# Sidecar IO
# ---------------------------------------------------------------------------

#: The sidecar's columns: the ``TruthRow`` fields, in order, each read and written by its type.
TRUTH_FIELDS = {f.name: {"str": TEXT, "int": INTEGER, "float": NUMBER}[f.type] for f in fields(TruthRow)}
_TRUTH_ROW = attrgetter(*TRUTH_FIELDS)


def write_truth(path: str | Path, rows: Sequence[TruthRow]) -> None:
    write_table(path, TRUTH_FIELDS, map(_TRUTH_ROW, rows))


def read_truth(path: str | Path) -> list[TruthRow]:
    return [TruthRow(*row) for row in read_table(path, TRUTH_FIELDS)]
