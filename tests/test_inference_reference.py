"""The batched router and backtest against one-row-at-a-time references.

``optimal_distance`` and ``run_backtest`` call each model once on a stacked
matrix.  The references below score one candidate or record at a time, with
a one-row predict per model, and must reach the same decisions; the batched
matmul may round differently, so curve values agree to 1e-12.  Given the same
batched predictions, the candidate matrix, the saved-cost sweep and the
backtest's saved-cost arrays do no arithmetic the scalar path does not, so
they agree with ``==``.
"""

import dataclasses
import math
import warnings
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobkit.backtest import (
    MODEL_I,
    MODEL_II,
    MODEL_III,
    RouterModels,
    label_outcome,
    record_saved_costs,
    run_backtest,
)
from lobkit.cleanup import train_cleanup_model
from lobkit.features import FEATURE_COLUMNS, FeatureVector, feature_matrix
from lobkit.fill_model import train_fill_model
from lobkit.messages import Side
from lobkit.mlp import TrainConfig
from lobkit.placement import (
    FEE_TABLE,
    ZERO_FEES,
    InadmissibleDistance,
    MarketSnapshot,
    NonpositiveDenominator,
    ToyModel,
    break_even_fill,
    candidate_matrix,
    optimal_distance,
    saved_cost,
)
from lobkit.replay import OrderLifecycle, Outcome

SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)
TICK = 0.01
HORIZON = 1.0
FEES = st.sampled_from([ZERO_FEES, *FEE_TABLE.values()])
FREE_FIELDS = [
    f.name
    for f in dataclasses.fields(FeatureVector)
    if f.name not in ("delta", "spread", "aggressiveness", "partial_window")
]


@cache
def _nets():
    """(fill, clean-up) networks trained on random rows."""
    rng = np.random.default_rng(17)
    n = 900
    X = rng.normal(size=(n, len(FEATURE_COLUMNS)))
    X[:, FEATURE_COLUMNS.index("delta")] = rng.integers(-3, 9, size=n)
    X[:, FEATURE_COLUMNS.index("spread")] = rng.integers(1, 13, size=n)
    logits = 1.0 - 0.4 * X[:, FEATURE_COLUMNS.index("delta")] + X[:, FEATURE_COLUMNS.index("volatility")]
    y = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(float)
    cfg = TrainConfig(lr=0.01, batch=128, epochs=8, seed=3)
    fill = train_fill_model(X, y, np.ones(n), cfg)
    targets = 2.0 + X[:, FEATURE_COLUMNS.index("volatility")] + rng.normal(size=n)
    cleanup = train_cleanup_model(X, targets, cfg)
    return fill, cleanup


class _Flat:
    """A model with one output for every row."""

    def __init__(self, value):
        self.value = value

    def predict(self, X):
        return np.full(len(X), self.value)


def _route_models(kind):
    """(fill, clean-up); ``flat`` never fills and expects a falling ask, so every
    distance saves the same positive cost and the tie rule picks the distance."""
    if kind == "flat":
        return _Flat(0.0), _Flat(-3.0)
    return _nets()


@st.composite
def feature_vectors(draw, spread, delta):
    free = {name: draw(st.floats(-5.0, 5.0)) for name in FREE_FIELDS}
    omega = delta / (1.0 - spread) if (delta < 0 and spread > 1) else None
    return FeatureVector(delta=float(delta), spread=float(spread), aggressiveness=omega, **free)


@st.composite
def route_cases(draw):
    spread = draw(st.integers(1, 12))
    bid = draw(st.integers(1_000, 30_000))
    features = draw(feature_vectors(spread, draw(st.integers(-spread + 1, 8))))
    snapshot = MarketSnapshot(best_bid=bid * TICK, best_ask=(bid + spread) * TICK, tick_size=TICK, features=features)
    lo = draw(st.one_of(st.just(-spread + 1), st.integers(-spread + 1, 10)))
    delta_range = (lo, draw(st.integers(lo, 40)))
    return snapshot, draw(st.floats(0.1, 10.0)), draw(FEES), delta_range


def _features_for_distance(snapshot: MarketSnapshot, quantity: float, delta: int) -> FeatureVector:
    """The reference candidate row: only distance-dependent fields move.

    Book-level state is frozen at decision time; an aggressive candidate
    starts a fresh queue so its priority volume is zero.
    """
    base, spread = snapshot.features, snapshot.spread_ticks
    return dataclasses.replace(
        base,
        delta=float(delta),
        spread=float(spread),
        spread_after=float(min(spread, spread + delta)),
        aggressiveness=delta / (1.0 - spread) if (delta < 0 and spread > 1) else None,
        prior_volume=0.0 if delta < 0 else base.prior_volume,
        size=float(quantity),
    )


def _one_row(model, z: FeatureVector) -> float:
    (value,) = model.predict(z.to_row()[None, :])
    return float(value)


def _scalar_sweep(snapshot, quantity, fees, fill, cleanup, delta_range):
    """One-row predicts per distance; returns ((action, distance, break-even), curve)."""
    best_s, best_delta = -math.inf, None
    curve = []
    for delta in range(delta_range[0], delta_range[1] + 1):
        z = _features_for_distance(snapshot, quantity, delta)
        f, v = _one_row(fill, z), _one_row(cleanup, z)
        s = saved_cost(snapshot, delta, fees, f, v)
        curve.append((f, v, s))
        if s >= best_s:
            best_s, best_delta = s, delta
    if best_s <= 0:
        return ("market", None, None), curve
    z = _features_for_distance(snapshot, quantity, best_delta)
    try:
        be = break_even_fill(snapshot, best_delta, fees, _one_row(cleanup, z))
    except NonpositiveDenominator:
        be = None
    return ("limit", best_delta, be), curve


def _close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", ["pooled", "flat"])
@SETTINGS
@given(case=route_cases())
def test_optimal_distance_matches_scalar_sweep(kind, case):
    snapshot, quantity, fees, delta_range = case
    fill, cleanup = _route_models(kind)
    decision = optimal_distance(snapshot, quantity, fees, fill, cleanup, delta_range)
    (action, distance, be), curve = _scalar_sweep(snapshot, quantity, fees, fill, cleanup, delta_range)
    assert (decision.action, decision.distance) == (action, distance)
    assert (decision.break_even_fill is None) == (be is None)
    if be is not None:
        assert _close(decision.break_even_fill, be)
    assert decision.curve.delta.tolist() == list(range(delta_range[0], delta_range[1] + 1))
    for (_, f_got, v_got, s_got), (f, v, s) in zip(decision.curve.rows(), curve):
        assert _close(f_got, f)
        assert _close(v_got, v)
        assert _close(s_got, s)


@pytest.mark.parametrize("kind", ["pooled", "flat"])
@SETTINGS
@given(case=route_cases())
def test_candidate_matrix_and_sweep_equal_scalar_path(kind, case):
    """Same predictions in, the same floats out: rows, curve and decision are ``==``."""
    snapshot, quantity, fees, (lo, hi) = case
    fill, cleanup = _route_models(kind)
    deltas = range(lo, hi + 1)
    X = candidate_matrix(snapshot, quantity, np.arange(lo, hi + 1))
    assert np.array_equal(X, feature_matrix(_features_for_distance(snapshot, quantity, d) for d in deltas))

    fs, vs = fill.predict(X).tolist(), cleanup.predict(X).tolist()
    costs = [saved_cost(snapshot, d, fees, f, v) for d, f, v in zip(deltas, fs, vs)]
    best = max(range(len(costs)), key=lambda i: (costs[i], i))  # ties to the largest delta
    if costs[best] <= 0:
        expected = ("market", None, costs[best], None)
    else:
        try:
            be = break_even_fill(snapshot, deltas[best], fees, vs[best])
        except NonpositiveDenominator:
            be = None
        expected = ("limit", deltas[best], costs[best], be)

    decision = optimal_distance(snapshot, quantity, fees, fill, cleanup, (lo, hi))
    assert (decision.action, decision.distance, decision.saved_cost, decision.break_even_fill) == expected
    assert list(decision.curve.rows()) == list(zip(deltas, fs, vs, costs))


@st.composite
def lifecycles(draw):
    spread = draw(st.integers(1, 12))
    delta = draw(st.integers(-spread + 1, 10))
    return OrderLifecycle(
        order_id="r",
        side=draw(st.sampled_from(list(Side))),
        insert_ts=10**9,
        price=draw(st.integers(1_000, 30_000)),
        size=1.0,
        features=draw(feature_vectors(spread, delta)),
        outcome=draw(st.sampled_from(list(Outcome))),
        outcome_time=draw(st.floats(0.05, 3.0)),
        dp_ask_horizon=float(draw(st.integers(-3, 3))),
    )


def _record_snapshot(rec: OrderLifecycle) -> MarketSnapshot:
    """The quotes before the record's insertion, rebuilt from its price, side, distance and spread."""
    z = rec.features
    bid = rec.price + int(z.delta) if rec.side is Side.BID else int(rec.price - z.delta - z.spread)
    return MarketSnapshot(best_bid=bid * TICK, best_ask=(bid + int(z.spread)) * TICK, tick_size=TICK)


def _per_record_decisions(records, specs, models, fees):
    """The scalar backtest loop: one-row predicts per record and spec."""
    decisions = {spec.id: [] for spec in specs}
    for rec in records:
        if label_outcome(rec, HORIZON) is None:
            continue
        z = rec.features
        snapshot = _record_snapshot(rec)
        for spec in specs:
            if spec.fill == "exponential":
                f = min(1.0, models.toy.fill_probability(z.spread + z.delta))
            else:
                f = _one_row(models.fill, z)
            v = models.constant_cleanup if spec.cleanup == "constant" else _one_row(models.cleanup, z)
            decisions[spec.id].append(1 if saved_cost(snapshot, int(z.delta), fees, f, v) > 0 else 0)
    return decisions


def _router_models(fill=None) -> RouterModels:
    net, cleanup = _nets()
    return RouterModels(
        toy=ToyModel(amplitude=0.8, decay=0.3, cleanup=2.0),
        fill=net if fill is None else fill,
        cleanup=cleanup,
        constant_cleanup=2.0,
    )


@pytest.mark.parametrize("fill_kind", ["pooled"])  # the id names the one fill network kind
@SETTINGS
@given(records=st.lists(lifecycles(), min_size=1, max_size=30), fees=FEES)
def test_run_backtest_matches_per_record_reference(fill_kind, records, fees):
    specs = [MODEL_I, MODEL_II, MODEL_III]
    models = _router_models()
    report = run_backtest(records, specs, models, fees, HORIZON, TICK)
    assert report.decisions == _per_record_decisions(records, specs, models, fees)


@pytest.mark.parametrize("fees", [ZERO_FEES, *FEE_TABLE.values()], ids=lambda fees: f"level{fees.level}")
@SETTINGS
@given(records=st.lists(lifecycles(), min_size=1, max_size=30))
def test_backtest_saved_costs_equal_scalar_path(fees, records):
    """Same predictions in, the same floats out: every spec's saved costs and decisions are ``==``."""
    specs = [MODEL_I, MODEL_II, MODEL_III]
    models = _router_models()
    used = [rec for rec in records if label_outcome(rec, HORIZON) is not None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        costs = record_saved_costs(used, specs, models, fees, TICK)
        report = run_backtest(records, specs, models, fees, HORIZON, TICK)
    X = feature_matrix(rec.features for rec in used)
    for spec in specs:
        fs = models.fill_probabilities(spec.fill, X).tolist()
        vs = models.cleanup_costs(spec.cleanup, X).tolist()
        expected = [saved_cost(_record_snapshot(r), int(r.features.delta), fees, f, v) for r, f, v in zip(used, fs, vs)]
        assert costs[spec.id].tolist() == expected
        assert report.decisions[spec.id] == [1 if s > 0 else 0 for s in expected]


def _filled_record(side, spread, delta, order_id="r"):
    features = FeatureVector(delta=float(delta), spread=float(spread), aggressiveness=None, **dict.fromkeys(FREE_FIELDS, 0.0))
    return OrderLifecycle(
        order_id=order_id, side=side, insert_ts=10**9, price=5_000, size=1.0, features=features,
        outcome=Outcome.FILLED, outcome_time=0.5, dp_ask_horizon=0.0,
    )


@pytest.mark.parametrize("fill", [1.5, -0.1, math.nan])
def test_backtest_rejects_fill_outside_unit_interval(fill):
    records = [_filled_record(Side.BID, 2, 1), _filled_record(Side.ASK, 3, -1)]
    with pytest.raises(ValueError, match="fill probability"):
        run_backtest(records, [MODEL_II], _router_models(fill=_Flat(fill)), ZERO_FEES, HORIZON, TICK)
    with pytest.raises(ValueError, match="fill probability"):
        saved_cost(_record_snapshot(records[0]), 1, ZERO_FEES, fill, 0.0)


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize(
    ("spread", "delta", "error"),
    [(3, -3, InadmissibleDistance), (3, -7, InadmissibleDistance), (1, -1, InadmissibleDistance), (0, 1, ValueError)],
)
def test_backtest_rejects_what_the_scalar_path_rejects(side, spread, delta, error):
    """The array checks raise what ``MarketSnapshot`` and ``saved_cost`` raise, naming the first bad record."""
    records = [_filled_record(side, 2, 0, "ok"), *(_filled_record(side, spread, delta, oid) for oid in ("bad", "later"))]
    with pytest.raises(error) as raised:
        run_backtest(records, [MODEL_I, MODEL_III], _router_models(), ZERO_FEES, HORIZON, TICK)
    assert type(raised.value) is error and "order bad" in str(raised.value)
    with pytest.raises(error) as scalar:
        saved_cost(_record_snapshot(records[1]), delta, ZERO_FEES, 0.5, 0.0)
    assert type(scalar.value) is error


def _reference_row(z: FeatureVector) -> list:
    """One model row, attribute by attribute: ``FEATURE_COLUMNS``, ``None`` as 0.0."""
    return [0.0 if getattr(z, name) is None else getattr(z, name) for name in FEATURE_COLUMNS]


EDGE_FLOATS = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300]))


@st.composite
def any_feature_vectors(draw):
    fields = {name: draw(EDGE_FLOATS) for name in FREE_FIELDS}
    return FeatureVector(
        delta=draw(EDGE_FLOATS), spread=draw(EDGE_FLOATS), aggressiveness=draw(st.none() | EDGE_FLOATS), **fields
    )


@SETTINGS
@given(vectors=st.lists(any_feature_vectors(), max_size=12))
def test_feature_matrix_equals_per_row_stack(vectors):
    X = feature_matrix(iter(vectors))
    expected = np.array([_reference_row(z) for z in vectors], dtype=float).reshape(-1, len(FEATURE_COLUMNS))
    assert X.shape == (len(vectors), len(FEATURE_COLUMNS)) and X.dtype == np.float64
    assert np.array_equal(X, expected, equal_nan=True)
    assert np.array_equal(X.view(np.uint64), expected.view(np.uint64))  # -0.0 and NaN bits too
    if vectors:
        assert np.array_equal(np.stack([z.to_row() for z in vectors]).view(np.uint64), expected.view(np.uint64))
