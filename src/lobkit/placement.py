"""Limit-versus-market routing on expected saved cost.

The immediate tactic pays the fee-adjusted half spread; posting at distance
``delta`` saves the crossed spread when filled but risks the clean-up cost
of a marketable order at the horizon when not.  All distances are integer
ticks; the clean-up cost is carried in ticks and converted through the tick
size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .features import FEATURE_COLUMNS, FeatureVector


class InadmissibleDistance(ValueError):
    pass


class InvalidSpread(ValueError):
    """Quotes whose spread is no positive whole number of ticks."""


class NonpositiveDenominator(ValueError):
    pass


class ConditionViolated(ValueError):
    """Raised when the interior-optimum condition fails; the maximum then
    sits at the smallest admissible ask distance."""


class LatencyTooLarge(ValueError):
    pass


class ModelUnavailable(ValueError):
    pass


class InsufficientBuckets(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class FeePolicy:
    level: int
    taker: float  # proportional fee on liquidity-removing executions
    maker: float

    @property
    def f_minus(self) -> float:
        return 1.0 + self.taker

    @property
    def f_plus(self) -> float:
        return 1.0 + self.maker


#: Spot fee schedule by 30-day turnover level (level 1 lowest turnover).
FEE_TABLE: dict[int, FeePolicy] = {
    1: FeePolicy(1, 0.006, 0.004),
    2: FeePolicy(2, 0.004, 0.0025),
    3: FeePolicy(3, 0.0025, 0.0015),
    4: FeePolicy(4, 0.002, 0.001),
    5: FeePolicy(5, 0.0018, 0.0008),
    6: FeePolicy(6, 0.0016, 0.0006),
    7: FeePolicy(7, 0.0012, 0.0003),
    8: FeePolicy(8, 0.0008, 0.0),
    9: FeePolicy(9, 0.0005, 0.0),
}

ZERO_FEES = FeePolicy(0, 0.0, 0.0)

#: How far a spread in ticks, from float quotes, may sit from a whole number.
WHOLE_TICK_TOLERANCE = 1e-6


@dataclass(slots=True)
class MarketSnapshot:
    """Quote state at decision time; prices in quote units."""

    best_bid: float
    best_ask: float
    tick_size: float
    features: FeatureVector | None = None

    def __post_init__(self) -> None:
        if not self.tick_size > 0:
            raise ValueError(f"tick_size must be positive, got {self.tick_size}")
        spread = (self.best_ask - self.best_bid) / self.tick_size
        if not math.isfinite(spread) or abs(spread - round(spread)) > WHOLE_TICK_TOLERANCE or round(spread) < 1:
            raise InvalidSpread(f"spread must be a positive whole number of ticks, got {spread}")

    @property
    def mid(self) -> float:
        return (self.best_ask + self.best_bid) / 2.0

    @property
    def spread_ticks(self) -> int:
        return int(round((self.best_ask - self.best_bid) / self.tick_size))


@dataclass(slots=True)
class SweepCurve:
    """Per-distance diagnostics of a sweep: one array entry per distance."""

    delta: np.ndarray  # ticks, ascending
    fill_probability: np.ndarray
    cleanup_ticks: np.ndarray
    saved_cost: np.ndarray  # quote units

    def __len__(self) -> int:
        return len(self.delta)

    def rows(self) -> Iterator[tuple[int, float, float, float]]:
        """(delta, fill probability, clean-up ticks, saved cost) per distance, as Python numbers."""
        return zip(
            self.delta.tolist(), self.fill_probability.tolist(), self.cleanup_ticks.tolist(), self.saved_cost.tolist()
        )


@dataclass
class PlacementDecision:
    action: str  # "market" or "limit"
    distance: int | None  # ticks, only for limit
    saved_cost: float  # at the optimum, quote units
    break_even_fill: float | None
    curve: SweepCurve


# ---------------------------------------------------------------------------
# Cost primitives
# ---------------------------------------------------------------------------


def immediate_cost(snapshot: MarketSnapshot, fees: FeePolicy) -> float:
    """Deterministic cost of crossing the spread now, relative to mid."""
    return fees.f_minus * snapshot.best_ask - snapshot.mid


def _check_admissible(snapshot: MarketSnapshot, delta: int) -> None:
    if delta != int(delta) or delta <= -snapshot.spread_ticks:
        raise InadmissibleDistance(
            f"delta must be an integer > {-snapshot.spread_ticks}, got {delta}"
        )


def _gain(best_bid, best_ask, tick_size: float, delta, fees: FeePolicy):
    """Fee-adjusted cost saved by a fill at ``delta``; quotes and ``delta`` scalars or arrays."""
    return fees.f_minus * best_ask - fees.f_plus * (best_bid - tick_size * delta)


def _unchecked_saved_cost(best_bid, best_ask, tick_size: float, delta, fees: FeePolicy, f, v):
    """The saved-cost arithmetic on scalars or arrays, in one operation order,
    so a sweep, a backtest and a scalar call agree bit for bit."""
    return f * _gain(best_bid, best_ask, tick_size, delta, fees) - (1.0 - f) * fees.f_minus * tick_size * v


def _check_quotes(
    best_bid: np.ndarray, best_ask: np.ndarray, tick_size: float, delta: np.ndarray, name: Callable[[int], str]
) -> None:
    """``MarketSnapshot``'s spread rule and ``_check_admissible``'s distance
    rule over arrays of quotes and distances.

    The first entry ``i`` breaking one raises, prefixed with ``name(i)``: no
    whole spread of at least one tick (NaN included) raises ``InvalidSpread``, a
    distance that is no integer above minus the spread ``InadmissibleDistance``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = (best_ask - best_bid) / tick_size
        whole = np.round(spread)  # half to even, as round()
        whole_spread = (np.abs(spread - whole) <= WHOLE_TICK_TOLERANCE) & (whole >= 1)  # False for NaN
        admissible = whole_spread & (delta == np.trunc(delta)) & (delta > -whole)
    if admissible.all():
        return
    i = int(np.argmin(admissible))
    if not whole_spread[i]:
        raise InvalidSpread(f"{name(i)}: spread must be a positive whole number of ticks, got {spread[i]}")
    raise InadmissibleDistance(f"{name(i)}: delta must be an integer > {-int(whole[i])}, got {delta[i]:g}")


def saved_costs(best_bid, best_ask, tick_size: float, delta, fees: FeePolicy, f: np.ndarray, v: np.ndarray):
    """The saved cost of posting at each ``delta`` with fill probability ``f``
    and clean-up cost ``v`` (ticks): the checked rule a sweep and a backtest
    price with.  The first ``f`` outside [0, 1] (NaN included) or ``v`` that
    is not finite raises ``ValueError``."""
    in_unit = (f >= 0.0) & (f <= 1.0)  # False for NaN
    if not in_unit.all():
        raise ValueError(f"fill probability must be in [0, 1], got {f[~in_unit][0]}")
    finite = np.isfinite(v)
    if not finite.all():
        raise ValueError(f"clean-up cost must be finite, got {v[~finite][0]}")
    return _unchecked_saved_cost(best_bid, best_ask, tick_size, delta, fees, f, v)


def saved_cost(
    snapshot: MarketSnapshot,
    delta: int,
    fees: FeePolicy,
    fill_probability: float,
    cleanup_ticks: float,
) -> float:
    """Expected cost reduction of posting at ``delta`` versus crossing now."""
    _check_admissible(snapshot, delta)
    if not 0.0 <= fill_probability <= 1.0:
        raise ValueError(f"fill probability must be in [0, 1], got {fill_probability}")
    return _unchecked_saved_cost(
        snapshot.best_bid, snapshot.best_ask, snapshot.tick_size, delta, fees, fill_probability, cleanup_ticks
    )


def break_even_fill(snapshot: MarketSnapshot, delta: int, fees: FeePolicy, cleanup_ticks: float) -> float:
    """Fill probability at which the saved cost crosses zero."""
    _check_admissible(snapshot, delta)
    gain = _gain(snapshot.best_bid, snapshot.best_ask, snapshot.tick_size, delta, fees)
    loss = fees.f_minus * snapshot.tick_size * cleanup_ticks
    denom = gain + loss
    if denom <= 0:
        raise NonpositiveDenominator("posting never pays at this distance; cross the spread")
    return loss / denom


# ---------------------------------------------------------------------------
# Optimal distance
# ---------------------------------------------------------------------------

_COLUMN = {name: i for i, name in enumerate(FEATURE_COLUMNS)}


def candidate_matrix(snapshot: MarketSnapshot, quantity: float, deltas: np.ndarray) -> np.ndarray:
    """Model rows of candidate orders at each of ``deltas``: only the
    distance-dependent columns move.

    Book-level state is frozen at decision time; an aggressive candidate
    starts a fresh queue so its priority volume is zero.
    """
    d = np.asarray(deltas, dtype=float)
    spread = snapshot.spread_ticks
    X = np.repeat(snapshot.features.to_row()[None, :], len(d), axis=0)
    aggressive = d < 0
    X[:, _COLUMN["delta"]] = d
    X[:, _COLUMN["spread"]] = spread
    X[:, _COLUMN["spread_after"]] = np.minimum(spread, spread + d)
    # defined inside the spread only; at a one-tick spread no candidate is inside
    X[:, _COLUMN["aggressiveness"]] = np.where(aggressive, d / (1.0 - spread), 0.0) if spread > 1 else 0.0
    X[aggressive, _COLUMN["prior_volume"]] = 0.0
    X[:, _COLUMN["size"]] = quantity
    X[:, _COLUMN["is_at_best"]] = d == 0
    X[:, _COLUMN["is_aggressive"]] = aggressive
    return X


def default_delta_range(snapshot: MarketSnapshot, depth_mode: str, depth_value: float) -> tuple[int, int]:
    """Every admissible distance out to the depth filter's edge (at least one tick)."""
    if depth_mode == "bps":
        mid_ticks = snapshot.mid / snapshot.tick_size
        bid_ticks = snapshot.best_bid / snapshot.tick_size
        delta_max = int(bid_ticks - mid_ticks * (1.0 - depth_value / 1e4))
    else:
        delta_max = int(depth_value)
    return (-snapshot.spread_ticks + 1, max(1, delta_max))


def optimal_distance(
    snapshot: MarketSnapshot,
    quantity: float,
    fees: FeePolicy,
    fill_model,
    cleanup_model,
    delta_range: tuple[int, int],
) -> PlacementDecision:
    """Exhaustive integer sweep of the saved cost over admissible distances.

    Each model scores the stacked candidate rows in one call.  Ties break
    toward the least aggressive (largest) distance; the market tactic wins
    whenever no distance keeps a positive saved cost.
    """
    if fill_model is None or cleanup_model is None:
        raise ModelUnavailable("both fill and clean-up models are required")
    if snapshot.features is None:
        raise ModelUnavailable("snapshot carries no feature state")
    spread = snapshot.spread_ticks
    lo, hi = delta_range
    if lo <= -spread:
        raise InadmissibleDistance(f"range start {lo} is not admissible for spread {spread}")
    if hi < lo:
        raise InadmissibleDistance(f"distance range ({lo}, {hi}) is empty")
    deltas = np.arange(lo, hi + 1)
    X = candidate_matrix(snapshot, quantity, deltas)
    f = np.asarray(fill_model.predict(X), dtype=float)
    v = np.asarray(cleanup_model.predict(X), dtype=float)
    s = saved_costs(snapshot.best_bid, snapshot.best_ask, snapshot.tick_size, deltas, fees, f, v)
    curve = SweepCurve(deltas, f, v, s)
    best = len(s) - 1 - int(np.argmax(s[::-1]))  # the last maximum: ties go to the largest delta
    best_s = float(s[best])
    if best_s <= 0:
        return PlacementDecision("market", None, best_s, None, curve)
    best_delta = int(deltas[best])
    try:
        be = break_even_fill(snapshot, best_delta, fees, float(v[best]))
    except NonpositiveDenominator:
        be = None
    return PlacementDecision("limit", best_delta, best_s, be, curve)


# ---------------------------------------------------------------------------
# Exponential toy model
# ---------------------------------------------------------------------------


#: The smallest decay a fit reports; a flatter fit is flagged and raised to it.
FLAT_DECAY = 1e-6


@dataclass
class ToyModel:
    """Fill probability ``A * exp(-k * d)`` of the ask-relative distance ``d``,
    constant clean-up cost, unit fee factors."""

    amplitude: float  # A
    decay: float  # k
    cleanup: float  # ticks

    def __post_init__(self) -> None:
        if not 0.0 < self.amplitude <= 1.0:
            raise ValueError(f"amplitude must be in (0, 1], got {self.amplitude}")
        if self.decay <= 0:
            raise ValueError(f"decay must be positive, got {self.decay}")

    def fill_probability(self, ask_distance: float) -> float:
        return self.amplitude * math.exp(-self.decay * ask_distance)

    def saved_cost(self, ask_distance) -> np.ndarray | float:
        d = np.asarray(ask_distance, dtype=float)
        f = self.amplitude * np.exp(-self.decay * d)
        out = f * d - (1.0 - f) * self.cleanup
        return float(out) if out.ndim == 0 else out

    @property
    def interior_condition(self) -> bool:
        return self.decay * (1.0 + self.cleanup) <= 1.0

    def optimal_distance(self) -> float:
        """Closed-form maximizer; only interior when ``k (1 + V) <= 1``."""
        if not self.interior_condition:
            raise ConditionViolated(
                f"k (1 + V) = {self.decay * (1 + self.cleanup):.4f} > 1; optimum sits at the boundary d = 1"
            )
        return 1.0 / self.decay - self.cleanup

    def optimal_saved_cost(self) -> float:
        self.optimal_distance()  # re-raise on boundary cases
        return (self.amplitude / self.decay) * math.exp(self.decay * self.cleanup - 1.0) - self.cleanup


def fit_toy_model(
    ask_distances: Sequence[float],
    fill_probabilities: Sequence[float],
    cleanup: float,
) -> tuple[ToyModel, bool]:
    """Least-squares exponential fit of per-distance fill probabilities.

    Returns the fitted model and a flag raised when the decay is below
    ``FLAT_DECAY``, which then stands in for it.  Buckets with zero fill
    probability cannot enter the log fit and are dropped.
    """
    pairs = [(d, f) for d, f in zip(ask_distances, fill_probabilities) if f > 0]
    if len(pairs) < 3:
        raise InsufficientBuckets(f"need at least 3 positive-probability buckets, got {len(pairs)}")
    d = np.array([p[0] for p in pairs])
    logf = np.log(np.array([p[1] for p in pairs]))
    slope, intercept = np.polyfit(d, logf, 1)
    amplitude = min(float(np.exp(intercept)), 1.0)
    decay = max(-float(slope), FLAT_DECAY)
    flat = -float(slope) < FLAT_DECAY
    return ToyModel(amplitude=amplitude, decay=decay, cleanup=cleanup), flat


# ---------------------------------------------------------------------------
# Latency-sensitive saved cost
# ---------------------------------------------------------------------------


def latency_saved_cost(
    snapshot: MarketSnapshot,
    delta: int,
    fees: FeePolicy,
    fill_probability: float,
    cleanup_ticks: float,
    move_cdf: Callable[[float], float],
    tail_mean: Callable[[float], float],
    latency: float,
    horizon: float,
) -> float:
    """Saved cost corrected for ask improvements arriving within the latency.

    ``move_cdf`` is the CDF of the ask move (ticks) over the latency window;
    ``tail_mean`` gives the conditional mean move at or below a threshold.
    When no mass sits below ``-(spread + delta)`` the correction vanishes and
    the plain saved cost comes back exactly.
    """
    if latency <= 0 or horizon <= 0 or latency / horizon >= 1e-2:
        raise LatencyTooLarge(f"latency/horizon must be below 1e-2, got {latency / horizon if horizon else math.inf}")
    s = saved_cost(snapshot, delta, fees, fill_probability, cleanup_ticks)
    threshold = -(snapshot.spread_ticks + delta)
    p_cross = float(move_cdf(threshold))
    if p_cross == 0.0:
        return s
    return (1.0 - p_cross) * s - p_cross * fees.f_minus * snapshot.tick_size * tail_mean(threshold)


def point_mass_move(value: float, probability: float) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """(CDF, tail mean) of a two-point ask-move law: ``value`` w.p. ``probability``, else 0."""

    def cdf(x: float) -> float:
        out = 0.0
        if value <= x:
            out += probability
        if 0.0 <= x:
            out += 1.0 - probability
        return out

    def tail(x: float) -> float:
        mass = value_mass = 0.0
        if value <= x:
            mass += probability
            value_mass += probability * value
        if 0.0 <= x:
            mass += 1.0 - probability
        return value_mass / mass if mass > 0 else 0.0

    return cdf, tail


#: The farthest distance, in ticks, that ``distance_spread_surface`` sweeps.
SURFACE_MAX_DISTANCE = 20


def distance_spread_surface(
    snapshot: MarketSnapshot,
    quantity: float,
    fees: FeePolicy,
    fill_model,
    cleanup_model,
    spreads: Sequence[int],
) -> list[dict]:
    """Saved-cost surface over hypothetical spreads, with the optimum marked.

    The best bid and the non-distance features are held at the snapshot's
    values while the ask moves to realize each spread; each spread sweeps
    every admissible distance out to ``SURFACE_MAX_DISTANCE``.
    """
    rows: list[dict] = []
    for spread in spreads:
        if spread < 1:
            continue
        hypo = MarketSnapshot(
            best_bid=snapshot.best_bid,
            best_ask=snapshot.best_bid + spread * snapshot.tick_size,
            tick_size=snapshot.tick_size,
            features=snapshot.features,
        )
        decision = optimal_distance(hypo, quantity, fees, fill_model, cleanup_model, (-spread + 1, SURFACE_MAX_DISTANCE))
        rows.extend(
            dict(spread=spread, delta=d, fill_probability=f, cleanup_ticks=v, saved_cost=s, is_optimum=d == decision.distance)
            for d, f, v, s in decision.curve.rows()
        )
    return rows


# ---------------------------------------------------------------------------
# Decision map
# ---------------------------------------------------------------------------


def decision_map(
    snapshot: MarketSnapshot,
    cleanup_ticks: float,
    fill_grid: Sequence[float],
    levels: Sequence[int] = tuple(range(1, 10)),
) -> list[dict]:
    """Limit/market cells over fee levels and fill probabilities, for an order at the touch."""
    cells = []
    for level in levels:
        fees = FEE_TABLE[level]
        try:
            boundary = break_even_fill(snapshot, 0, fees, cleanup_ticks)
        except NonpositiveDenominator:
            boundary = None
        for f in fill_grid:
            s = saved_cost(snapshot, 0, fees, f, cleanup_ticks)
            cells.append(
                {
                    "level": level,
                    "fill_probability": float(f),
                    "saved_cost": s,
                    "action": "limit" if s > 0 else "market",
                    "break_even": boundary,
                }
            )
    return cells
