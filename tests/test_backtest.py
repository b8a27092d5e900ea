import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobkit.backtest import (
    MODEL_I,
    MODEL_II,
    MODEL_III,
    TOY_MIN_BUCKET,
    EligibilityConfig,
    MissingPriceMove,
    PeriodOverlap,
    RouterModels,
    _metrics,
    fit_router_models,
    label_outcome,
    matrix_columns,
    record_columns,
    run_backtest,
    select_eligible,
)
from lobkit.features import FEATURE_COLUMNS, FeatureVector, feature_matrix
from lobkit.fill_model import build_training_matrix, stratified_censoring_survival
from lobkit.io import read_matrix, write_matrix
from lobkit.messages import InstrumentConfig, Side
from lobkit.placement import FEE_TABLE, ZERO_FEES, InsufficientBuckets, ToyModel, fit_toy_model
from lobkit.replay import OrderLifecycle, Outcome, track_lifecycles
from lobkit.survival import Observation, fill_probability_at, post_and_wait_fill
from lobkit.synth import generate_flow

from test_acceptance import HORIZON, _planted_regime_config


def _fv(delta=2.0, spread=6.0):
    return FeatureVector(
        delta=delta,
        spread=spread,
        spread_after=spread,
        best_imbalance=0.0,
        add_imbalance=0.0,
        aggressiveness=None,
        prior_volume=0.0,
        size=1.0,
        signed_flow=0.0,
        flow_imbalance=0.0,
        signed_traded=0.0,
        traded_imbalance=0.0,
        time_since_trade=0.1,
        median_trade_duration=0.1,
        volatility=1.0,
    )


def _record(time, outcome, dp=None, size=1.0, delta=2.0, oid="x", ts=10**9):
    return OrderLifecycle(
        order_id=oid,
        side=Side.BID,
        insert_ts=ts,
        price=1000 - int(delta),
        size=size,
        features=_fv(delta=delta),
        outcome=outcome,
        outcome_time=time,
        dp_ask_horizon=dp,
    )


# ---------------------------------------------------------------------------
# Eligibility and labels
# ---------------------------------------------------------------------------


def test_oversized_orders_excluded():
    records = [
        _record(2.0, Outcome.CANCELLED, dp=1.0, size=6.0, oid="big"),
        _record(2.0, Outcome.CANCELLED, dp=1.0, size=2.0, oid="ok"),
    ]
    kept = select_eligible(records, horizon=1.0, average_trade_size=1.0)
    assert [r.order_id for r in kept] == ["ok"]


def test_negative_and_nan_sizes_excluded():
    records = [
        _record(2.0, Outcome.CANCELLED, dp=1.0, size=size, oid=oid)
        for size, oid in ((-1.0, "negative"), (float("nan"), "nan"), (0.0, "zero"), (1.0, "ok"))
    ]
    kept = select_eligible(records, horizon=1.0, average_trade_size=1.0)
    assert [r.order_id for r in kept] == ["zero", "ok"]


def test_fast_cancels_excluded():
    records = [
        _record(0.5, Outcome.CANCELLED, oid="fast"),
        _record(0.5, Outcome.FILLED, oid="quick-fill"),
        _record(1.5, Outcome.CANCELLED, dp=1.0, oid="slow"),
    ]
    kept = select_eligible(records, horizon=1.0, average_trade_size=1.0)
    assert {r.order_id for r in kept} == {"quick-fill", "slow"}


def test_scripted_eligibility_hand_enumeration():
    spec = [
        ("a", 0.4, Outcome.FILLED, None, 1.0, 1.0, True),
        ("b", 0.4, Outcome.CANCELLED, None, 1.0, 1.0, False),  # died early
        ("c", 1.4, Outcome.CANCELLED, 2.0, 1.0, 1.0, True),
        ("d", 1.4, Outcome.CANCELLED, 2.0, 9.0, 1.0, False),  # too large
        ("e", 1.4, Outcome.CENSORED, 2.0, 1.0, 30.0, False),  # too deep
        ("f", 2.0, Outcome.FILLED, -1.0, 1.0, 1.0, True),  # late fill, still observed through T
    ]
    records = [
        _record(t, o, dp=dp, size=s, delta=d, oid=name)
        for name, t, o, dp, s, d, _ in spec
    ]
    cfg = EligibilityConfig(max_size_ats_multiple=5.0, max_distance=10.0)
    kept = select_eligible(records, 1.0, average_trade_size=1.0, config=cfg)
    assert [r.order_id for r in kept] == [name for name, *_, keep in spec if keep]


def test_label_rules():
    assert label_outcome(_record(0.7, Outcome.FILLED), 1.0) == 1
    assert label_outcome(_record(1.5, Outcome.CANCELLED, dp=2.0), 1.0) == 0
    assert label_outcome(_record(1.5, Outcome.CANCELLED, dp=-2.0), 1.0) == 1
    assert label_outcome(_record(1.5, Outcome.CANCELLED, dp=0.0), 1.0) is None
    with pytest.raises(MissingPriceMove):
        label_outcome(_record(1.5, Outcome.CANCELLED, dp=None), 1.0)


def test_metrics_identity():
    pred = np.array([1, 1, 0, 0, 1, 0])
    truth = np.array([1, 0, 0, 1, 1, 0])
    m = _metrics(pred, truth, positive=1)
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.f_score == pytest.approx(2 * m.precision * m.recall / (m.precision + m.recall))
    empty = _metrics(np.zeros(4, dtype=int), np.zeros(4, dtype=int), positive=1)
    assert empty.f_score == 0.0


def _three_mask_metrics(pred, truth, positive):
    """``_metrics`` as it counted before ``count_nonzero``: one ``np.sum`` per mask."""
    tp = int(np.sum((pred == positive) & (truth == positive)))
    fp = int(np.sum((pred == positive) & (truth != positive)))
    fn = int(np.sum((pred != positive) & (truth == positive)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return (precision, recall, f, tp, fp, fn)


PAIRS = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=40)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(PAIRS)
@example([(0, 0)] * 7)
@example([(1, 1)] * 7)
@example([(0, 1)] * 5)
@example([(1, 0)] * 5)
@example([])
def test_metrics_counts_equal_three_mask_reference(pairs):
    pred = np.array([p for p, _ in pairs], dtype=int)
    truth = np.array([t for _, t in pairs], dtype=int)
    for positive in (1, 0):
        m = _metrics(pred, truth, positive)
        got = (m.precision, m.recall, m.f_score, m.tp, m.fp, m.fn)
        assert got == _three_mask_metrics(pred, truth, positive)
        assert all(type(count) is int for count in got[3:])


def _exponential_column(toy, deltas, spreads):
    X = np.zeros((len(deltas), len(FEATURE_COLUMNS)))
    X[:, FEATURE_COLUMNS.index("delta")] = deltas
    X[:, FEATURE_COLUMNS.index("spread")] = spreads
    return RouterModels(toy=toy).fill_probabilities("exponential", X)


@pytest.mark.parametrize(
    "toy", [ToyModel(0.9, 0.4, 1.0), ToyModel(1.0, 0.05, 0.0), ToyModel(0.3, 2.5, 2.0)], ids=["A0.9", "A1", "A0.3"]
)
def test_exponential_fill_column_equals_scalar_rule(toy):
    rng = np.random.default_rng(5)
    deltas = [-4.0, -1.0, -0.0, 0.0, 1.0, 2.5, math.nan, 3.0, -30.0, 1e6, *rng.uniform(-8.0, 40.0, size=200)]
    spreads = [1.0, 1.0, 0.0, 0.0, 2.0, 3.0, 2.0, math.nan, 5.0, 1.0, *rng.integers(1, 9, size=200).astype(float)]
    expected = [min(1.0, toy.fill_probability(s + d)) for d, s in zip(deltas, spreads)]
    got = _exponential_column(toy, deltas, spreads)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in expected]
    # A * exp above 1 is capped; a NaN distance reads 1.0, as Python's min(1.0, nan) does
    assert any(toy.fill_probability(s + d) > 1.0 for d, s in zip(deltas, spreads))
    assert got[6] == got[7] == 1.0


def test_exponential_fill_column_overflow_raises_like_the_scalar_rule():
    toy = ToyModel(0.9, 0.4, 1.0)
    with pytest.raises(OverflowError):
        toy.fill_probability(-5000.0 + 1.0)
    with pytest.raises(OverflowError):
        _exponential_column(toy, [0.0, -5000.0, 1.0], [1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# run_backtest mechanics
# ---------------------------------------------------------------------------


class _RowOracle:
    """Model stub returning fixed per-row values for a matrix of known length."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def predict(self, X):
        assert X.shape == (len(self.values), len(FEATURE_COLUMNS))
        return self.values


def _oracle_models(labels_by_id):
    """Perfect-foresight stub: drives the saved cost to the label's sign.

    The backtest scores the labelled records in record order, so the label
    order of ``labels_by_id`` (ties left out) is the row order.
    """
    labels = list(labels_by_id.values())
    return RouterModels(
        toy=ToyModel(0.5, 0.5, 1.0),
        fill=_RowOracle([1.0 if label == 1 else 0.0 for label in labels]),
        cleanup=_RowOracle([0.0 if label == 1 else 50.0 for label in labels]),
    )


def _mixed_records():
    return [
        _record(0.5, Outcome.FILLED, oid="r1"),
        _record(1.5, Outcome.CANCELLED, dp=3.0, oid="r2"),
        _record(1.5, Outcome.CANCELLED, dp=-1.0, oid="r3"),
        _record(2.5, Outcome.CENSORED, dp=2.0, oid="r4"),
        _record(1.2, Outcome.FILLED, dp=1.0, oid="r5"),  # filled late -> label by dp
    ]


def test_perfect_foresight_oracle_scores_one():
    records = _mixed_records()
    labels = {r.order_id: label_outcome(r, 1.0) for r in records}
    models = _oracle_models(labels)
    report = run_backtest(records, [MODEL_III], models, FEE_TABLE[9], 1.0, 0.01)
    for action in ("limit", "market"):
        assert report.per_model["III"][action].precision == 1.0
        assert report.per_model["III"][action].recall == 1.0


def test_constant_market_model_recalls():
    records = _mixed_records()
    models = RouterModels(
        toy=ToyModel(amplitude=1e-9, decay=5.0, cleanup=100.0), constant_cleanup=1000.0
    )
    report = run_backtest(records, [MODEL_I], models, FEE_TABLE[9], 1.0, 0.01)
    assert report.per_model["I"]["market"].recall == 1.0
    assert report.per_model["I"]["limit"].recall == 0.0


def test_tie_labels_excluded_and_counted():
    records = _mixed_records() + [_record(1.5, Outcome.CANCELLED, dp=0.0, oid="tie")]
    labels = {r.order_id: label_outcome(r, 1.0) for r in records if r.order_id != "tie"}
    report = run_backtest(records, [MODEL_III], _oracle_models(labels), FEE_TABLE[9], 1.0, 0.01)
    assert report.excluded_ties == 1
    assert report.evaluated == len(records) - 1


@pytest.mark.parametrize("cost", [math.inf, -math.inf, math.nan])
def test_non_finite_cleanup_cost_raises_as_in_optimal_distance(cost):
    """Model III's clean-up model predicting a non-finite cost for one record
    fails the backtest, as ``optimal_distance`` fails a route."""
    records = _mixed_records()
    models = _oracle_models({r.order_id: label_outcome(r, 1.0) for r in records})
    models.cleanup.values[2] = cost
    with pytest.raises(ValueError, match=f"clean-up cost must be finite, got {cost}"):
        run_backtest(records, [MODEL_III], models, FEE_TABLE[9], 1.0, 0.01)


def test_decisions_invariant_to_price_rescaling_with_zero_fees():
    records = _mixed_records()
    models = RouterModels(
        toy=ToyModel(amplitude=0.8, decay=0.2, cleanup=2.0), constant_cleanup=2.0
    )
    a = run_backtest(records, [MODEL_I], models, ZERO_FEES, 1.0, 0.01)
    b = run_backtest(records, [MODEL_I], models, ZERO_FEES, 1.0, 0.03)
    assert a.decisions == b.decisions


def test_period_overlap_guard():
    records = _mixed_records()
    models = RouterModels(
        toy=ToyModel(0.8, 0.2, 2.0), constant_cleanup=2.0, trained_span=(0, 2 * 10**9)
    )
    with pytest.raises(PeriodOverlap):
        run_backtest(records, [MODEL_I], models, FEE_TABLE[9], 1.0, 0.01)
    models.trained_span = (0, 10**8)  # strictly before the records
    run_backtest(records, [MODEL_I], models, FEE_TABLE[9], 1.0, 0.01)


def test_model_spec_components():
    assert (MODEL_I.fill, MODEL_I.cleanup) == ("exponential", "constant")
    assert (MODEL_II.fill, MODEL_II.cleanup) == ("mlp", "constant")
    assert (MODEL_III.fill, MODEL_III.cleanup) == ("mlp", "mlp")


# ---------------------------------------------------------------------------
# fit_router_models against the CLI's former inline fit
# ---------------------------------------------------------------------------


def _inline_cli_fit(X, meta, horizon):
    """Model I's fit and the constant clean-up cost exactly as ``cmd_backtest`` computed them inline:
    (toy model, flat flag, constant V, trained span)."""
    delta_idx = FEATURE_COLUMNS.index("delta")
    spread_idx = FEATURE_COLUMNS.index("spread")
    ask_distance = X[:, delta_idx] + X[:, spread_idx]
    obs_by_bucket: dict[int, list[Observation]] = {}
    for d, m in zip(ask_distance, meta):
        obs_by_bucket.setdefault(int(round(d)), []).append(Observation(m["outcome_time"], int(m["outcome"])))
    distances, probs = [], []
    for d in sorted(obs_by_bucket):
        bucket = obs_by_bucket[d]
        if len(bucket) < 30:
            continue
        distances.append(d)
        probs.append(fill_probability_at(post_and_wait_fill(bucket), horizon))
    cleanup_targets = [
        m["dp_ask_horizon"]
        for m in meta
        if m["outcome_time"] > horizon and m["dp_ask_horizon"] is not None
    ]
    constant_v = float(np.mean(cleanup_targets)) if cleanup_targets else 0.0
    toy, flat = fit_toy_model(distances, probs, constant_v)
    span = (min(m["insert_ts"] for m in meta), max(m["insert_ts"] for m in meta))
    return toy, flat, constant_v, span


def _assert_fit_equals(expected, models, fit):
    toy, flat, constant_v, span = expected
    assert models.toy == toy  # amplitude, decay and clean-up compared with ==
    assert fit.flat == flat
    assert models.constant_cleanup == constant_v
    assert models.trained_span == span


def _meta(records):
    return [
        dict(outcome=r.outcome, outcome_time=r.outcome_time, dp_ask_horizon=r.dp_ask_horizon, insert_ts=r.insert_ts)
        for r in records
    ]


@pytest.fixture(scope="module")
def acceptance_training_rows():
    """Criterion 9's training rows at seed 1: the kept lifecycles with their labels and weights."""
    inst = InstrumentConfig(tick_size=0.01, horizon=HORIZON, depth_mode="bps", depth_value=30.0, trade_window=30)
    messages, truth = generate_flow(_planted_regime_config(1, 1_700_000_000_000_000_000), 240.0)
    ids = {t.order_id for t in truth}
    records = [r for r in track_lifecycles(messages, inst).records if r.order_id in ids]
    _, y, w, kept, _ = build_training_matrix(records, HORIZON, stratified_censoring_survival(records))
    return kept, y, w


def test_fit_router_models_on_the_acceptance_rows(acceptance_training_rows, tmp_path):
    kept, y, w = acceptance_training_rows
    write_matrix(tmp_path / "matrix.csv", kept, y, w)
    X, _, _, meta = read_matrix(tmp_path / "matrix.csv")
    from_matrix = fit_router_models(*matrix_columns(X, meta), None, None, HORIZON)
    from_records = fit_router_models(*record_columns(kept), None, None, HORIZON)
    _assert_fit_equals(_inline_cli_fit(X, meta, HORIZON), *from_matrix)
    assert from_records == from_matrix
    assert from_matrix[1].thin_buckets > 0 and len(from_matrix[1].distances) >= 3


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    buckets=st.lists(
        st.tuples(st.integers(-4, 8), st.sampled_from([3, 29, 30, 31, 40, 45])), min_size=3, max_size=6,
        unique_by=lambda b: b[0],
    ),
    seed=st.integers(0, 2**32 - 1),
    cleanup=st.booleans(),
)
@example(buckets=[(-3, 29), (-1, 30), (2, 30), (5, 31)], seed=1, cleanup=True)
@example(buckets=[(-2, 30), (0, 30), (3, 29), (4, 34)], seed=2, cleanup=False)
def test_fit_router_models_equals_the_inline_cli_fit(buckets, seed, cleanup):
    """Buckets of 29 and 30 rows, negative ask distances, outcomes at the horizon,
    partial windows and, without ``cleanup``, no row that qualifies for the clean-up cost."""
    rng = np.random.default_rng(seed)
    records = []
    for distance, count in buckets:
        for _ in range(count):
            spread = int(rng.integers(1, 6))
            rec = _record(
                1.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 2.5)),  # some end at the horizon itself
                Outcome(int(rng.integers(0, 3))),
                dp=float(rng.normal(0.0, 3.0)) if cleanup and rng.random() < 0.7 else None,
                ts=int(rng.integers(0, 10**12)),
            )
            rec.features.delta, rec.features.spread = float(distance - spread), float(spread)
            rec.features.partial_window = bool(rng.random() < 0.2)
            records.append(rec)
    X, meta = feature_matrix(r.features for r in records), _meta(records)
    try:
        expected = _inline_cli_fit(X, meta, 1.0)
    except InsufficientBuckets:
        with pytest.raises(InsufficientBuckets):
            fit_router_models(*matrix_columns(X, meta), None, None, 1.0)
        return
    from_matrix = fit_router_models(*matrix_columns(X, meta), None, None, 1.0)
    _assert_fit_equals(expected, *from_matrix)
    assert from_matrix == fit_router_models(*record_columns(records), None, None, 1.0)
    models, fit = from_matrix
    assert fit.distances == sorted(d for d, n in buckets if n >= TOY_MIN_BUCKET)
    assert fit.thin_buckets == sum(n < TOY_MIN_BUCKET for _, n in buckets)
    if not cleanup:
        assert models.constant_cleanup == 0.0
