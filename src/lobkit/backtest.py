"""Decision-labeling backtest of the placement router.

Real (or synthetic) limit orders are relabeled by their realized outcome:
executed within the horizon, or saved by a falling ask, means posting was
right; a rising ask after a non-execution means crossing immediately was
right.  Each candidate model's sign-of-saved-cost decision is then scored as
a binary classifier per action.  Only the limit-versus-market call is
testable this way, not the optimal distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cleanup import CleanupModel, cleanup_rows
from .features import feature_matrix
from .fill_model import FillModel
from .messages import BID
from .placement import (
    _COLUMN,
    FeePolicy,
    ToyModel,
    _check_quotes,
    fit_toy_model,
    saved_cost,  # noqa: F401  -- the scalar rule scored here in array form; benchmarks/workloads.py traces this name
    saved_costs,
)
from .replay import OrderLifecycle, Outcome
from .survival import Observation, fill_probability_at, post_and_wait_fill


class MissingPriceMove(ValueError):
    pass


class PeriodOverlap(ValueError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    """Router variant: how fill probability and clean-up cost are supplied."""

    id: str  # "I", "II", "III"
    fill: str  # "exponential" | "mlp"
    cleanup: str  # "constant" | "mlp"


MODEL_I = ModelSpec("I", "exponential", "constant")
MODEL_II = ModelSpec("II", "mlp", "constant")
MODEL_III = ModelSpec("III", "mlp", "mlp")


@dataclass
class RouterModels:
    """Trained components shared by the three specs."""

    toy: ToyModel | None = None
    fill: FillModel | None = None
    cleanup: CleanupModel | None = None
    constant_cleanup: float = 0.0  # ticks
    trained_span: tuple[int, int] | None = None

    def fill_probabilities(self, kind: str, X: np.ndarray) -> np.ndarray:
        """A ``ModelSpec.fill`` component's fill probability for each row of ``X``."""
        if kind == "exponential":
            if self.toy is None:
                raise ValueError("exponential fill component not fitted")
            toy = self.toy
            ask_distances = X[:, _COLUMN["spread"]] + X[:, _COLUMN["delta"]]
            # ToyModel.fill_probability capped at 1: math.exp per record, since np.exp may differ
            # from it in the last bit; fmin keeps min(1.0, nan) == 1.0
            exps = np.fromiter(map(math.exp, (-toy.decay * ask_distances).tolist()), float, len(ask_distances))
            return np.fmin(toy.amplitude * exps, 1.0)
        if self.fill is None:
            raise ValueError("fill model not trained")
        return np.asarray(self.fill.predict(X), dtype=float)

    def cleanup_costs(self, kind: str, X: np.ndarray) -> np.ndarray:
        """A ``ModelSpec.cleanup`` component's clean-up cost in ticks for each row of ``X``."""
        if kind == "constant":
            return np.full(len(X), self.constant_cleanup, dtype=float)
        if self.cleanup is None:
            raise ValueError("clean-up model not trained")
        return np.asarray(self.cleanup.predict(X), dtype=float)


TOY_MIN_BUCKET = 30  # observations an ask-distance bucket needs to enter Model I's fit
_ROW_FIELDS = ("outcome_time", "outcome", "dp_ask_horizon", "insert_ts")


@dataclass
class RouterFit:
    """Model I's ask-distance buckets in ticks, the buckets left out as thin, and the flat-decay flag."""

    distances: list[int]
    thin_buckets: int
    flat: bool


def constant_cleanup(targets: Sequence[float]) -> float:
    """Mean ask move in ticks: Models I and II's constant clean-up cost, 0.0 without targets."""
    return float(np.mean(targets)) if len(targets) else 0.0


def record_columns(records: Sequence[OrderLifecycle]) -> tuple[list, ...]:
    """``fit_router_models``' training columns, read off lifecycle records."""
    return [r.features.delta + r.features.spread for r in records], *([getattr(r, k) for r in records] for k in _ROW_FIELDS)


def matrix_columns(X: np.ndarray, meta: Sequence[dict]) -> tuple[Sequence, ...]:
    """``fit_router_models``' training columns, read off ``io.read_matrix``'s rows."""
    return X[:, _COLUMN["delta"]] + X[:, _COLUMN["spread"]], *([m[k] for m in meta] for k in _ROW_FIELDS)


def fit_router_models(
    ask_distances: Sequence[float],
    outcome_times: Sequence[float],
    outcomes: Sequence[int],
    ask_moves: Sequence[float | None],
    insert_ts: Sequence[int],
    fill: FillModel | None,
    cleanup: CleanupModel | None,
    horizon: float,
) -> tuple[RouterModels, RouterFit]:
    """The specs' components from one training period's rows, given one column per field.

    Model I's fill is ``fit_toy_model`` over the post-and-wait fill at the
    horizon of each ask-distance bucket (whole ticks, rounded) holding at
    least ``TOY_MIN_BUCKET`` rows.  The constant clean-up cost averages the
    ask moves of the rows ``cleanup_rows`` keeps; the span covers every row.
    """
    buckets: dict[int, list[Observation]] = {}
    for d, t, outcome in zip(ask_distances, outcome_times, outcomes):
        buckets.setdefault(int(round(d)), []).append(Observation(t, int(outcome)))
    distances = [d for d in sorted(buckets) if len(buckets[d]) >= TOY_MIN_BUCKET]
    probs = [fill_probability_at(post_and_wait_fill(buckets[d]), horizon) for d in distances]
    constant_v = constant_cleanup([ask_moves[i] for i in cleanup_rows(outcome_times, ask_moves, horizon)[0]])
    toy, flat = fit_toy_model(distances, probs, constant_v)
    span = (min(insert_ts), max(insert_ts))
    models = RouterModels(toy=toy, fill=fill, cleanup=cleanup, constant_cleanup=constant_v, trained_span=span)
    return models, RouterFit(distances, len(buckets) - len(distances), flat)


@dataclass
class EligibilityConfig:
    max_size_ats_multiple: float = 5.0
    max_distance: float = math.inf  # ticks


def select_eligible(
    records: Sequence[OrderLifecycle],
    horizon: float,
    average_trade_size: float,
    config: EligibilityConfig | None = None,
) -> list[OrderLifecycle]:
    """Orders filled within the horizon or observed alive through it, inside
    the size and distance bounds."""
    cfg = config or EligibilityConfig()
    max_size = cfg.max_size_ats_multiple * average_trade_size
    out = []
    for rec in records:
        filled_in_time = rec.outcome is Outcome.FILLED and rec.outcome_time <= horizon
        survived = rec.outcome_time > horizon
        if not (filled_in_time or survived):
            continue
        if not (0.0 <= rec.size <= max_size):  # drops negative and NaN sizes
            continue
        if rec.features.delta > cfg.max_distance:
            continue
        out.append(rec)
    return out


def label_outcome(record: OrderLifecycle, horizon: float) -> int | None:
    """1 when posting was right in hindsight, 0 when crossing was, None for ties."""
    if record.outcome is Outcome.FILLED and record.outcome_time <= horizon:
        return 1
    if record.dp_ask_horizon is None:
        raise MissingPriceMove(f"order {record.order_id} lacks an ask move at the horizon")
    if record.dp_ask_horizon < 0:
        return 1
    if record.dp_ask_horizon > 0:
        return 0
    return None


@dataclass
class ActionMetrics:
    precision: float
    recall: float
    f_score: float
    tp: int  # true positives
    fp: int  # false positives
    fn: int  # false negatives


@dataclass
class BacktestReport:
    per_model: dict[str, dict[str, ActionMetrics]]
    decisions: dict[str, list[int]]
    labels: list[int]
    excluded_ties: int
    evaluated: int


def _metrics(pred: np.ndarray, truth: np.ndarray, positive: int) -> ActionMetrics:
    predicted, actual = pred == positive, truth == positive
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted)) - tp
    fn = int(np.count_nonzero(actual)) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ActionMetrics(precision, recall, f, tp, fp, fn)


def check_disjoint(trained_spans: Sequence[tuple[int, int] | None], records: Sequence[OrderLifecycle]) -> None:
    """Raise ``PeriodOverlap`` when a training span (``None`` skipped)
    intersects the records' insertion times."""
    if not records:
        return
    times = [r.insert_ts for r in records]
    t_lo, t_hi = min(times), max(times)
    for span in trained_spans:
        if span is not None and t_lo <= span[1] and span[0] <= t_hi:
            raise PeriodOverlap(f"training span [{span[0]}, {span[1]}] intersects scored records [{t_lo}, {t_hi}]")


def _record_quotes(
    records: Sequence[OrderLifecycle], X: np.ndarray, tick_size: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(best bid, best ask, distance in whole ticks) before each record's insertion.

    Ticks come from each record's price, side, distance and spread (row ``i``
    of ``X``) with ``int``'s truncation, exactly for quotes within 2**53 ticks;
    a record the scalar ``MarketSnapshot`` or ``saved_cost`` rejects raises.
    """
    delta, spread = X[:, _COLUMN["delta"]], X[:, _COLUMN["spread"]]
    price = np.array([rec.price for rec in records], dtype=float)
    on_bid = np.array([rec.side is BID for rec in records], dtype=bool)
    delta_ticks = np.trunc(delta)
    # non-finite features make NaN quotes (inf - inf, inf * 0), which fail the spread rule
    with np.errstate(invalid="ignore"):
        bid_ticks = np.where(on_bid, price + delta_ticks, np.trunc(price - delta - spread))
        best_bid = bid_ticks * tick_size
        best_ask = (bid_ticks + np.trunc(spread)) * tick_size
    _check_quotes(best_bid, best_ask, tick_size, delta_ticks, lambda i: f"order {records[i].order_id}")
    return best_bid, best_ask, delta_ticks


def record_saved_costs(
    records: Sequence[OrderLifecycle],
    specs: Sequence[ModelSpec],
    models: RouterModels,
    fees: FeePolicy,
    tick_size: float,
) -> dict[str, np.ndarray]:
    """Each spec's saved cost, in quote units, of posting each record at its own distance.

    Each model component scores all records in one call; each spec's costs are
    one array expression of the scalar ``saved_cost``'s arithmetic, so every
    value is ``==`` to its call on the same prediction.  ``saved_costs``
    refuses a fill probability outside [0, 1] or a clean-up cost that is not
    finite, as in ``optimal_distance``.
    """
    X = feature_matrix(rec.features for rec in records)
    fills = {kind: models.fill_probabilities(kind, X) for kind in dict.fromkeys(spec.fill for spec in specs)}
    cleanups = {kind: models.cleanup_costs(kind, X) for kind in dict.fromkeys(spec.cleanup for spec in specs)}
    best_bid, best_ask, delta = _record_quotes(records, X, tick_size)
    return {
        spec.id: saved_costs(best_bid, best_ask, tick_size, delta, fees, fills[spec.fill], cleanups[spec.cleanup])
        for spec in specs
    }


def run_backtest(
    records: Sequence[OrderLifecycle],
    specs: Sequence[ModelSpec],
    models: RouterModels,
    fees: FeePolicy,
    horizon: float,
    tick_size: float,
) -> BacktestReport:
    """Score each spec's limit/market call against the realized labels.

    The quotes behind each decision are rebuilt from the record's own
    insertion state (see ``record_saved_costs``).  The span of the router's
    training rows and each network's own ``trained_span`` must not overlap
    the scored records.
    """
    parts = (models.fill, models.cleanup)
    check_disjoint([models.trained_span, *(part.trained_span for part in parts if part is not None)], records)
    labels: list[int] = []
    used: list[OrderLifecycle] = []
    ties = 0
    for rec in records:
        label = label_outcome(rec, horizon)
        if label is None:
            ties += 1
            continue
        labels.append(label)
        used.append(rec)

    costs = record_saved_costs(used, specs, models, fees, tick_size)
    truth = np.asarray(labels)
    decisions: dict[str, list[int]] = {}
    per_model: dict[str, dict[str, ActionMetrics]] = {}
    for spec in specs:
        pred = (costs[spec.id] > 0).astype(int)
        decisions[spec.id] = pred.tolist()
        per_model[spec.id] = {
            "limit": _metrics(pred, truth, positive=1),
            "market": _metrics(pred, truth, positive=0),
        }
    return BacktestReport(
        per_model=per_model,
        decisions=decisions,
        labels=labels,
        excluded_ties=ties,
        evaluated=len(used),
    )
