import json

import numpy as np
import pytest

from lobkit.backtest import constant_cleanup
from lobkit.cleanup import (
    CleanupModel,
    bucket_estimate,
    cleanup_rows,
    collect_cleanup_samples,
    samples_to_matrix,
    train_cleanup_model,
    winsorize,
)
from lobkit.features import FEATURE_COLUMNS, FeatureVector, feature_matrix
from lobkit.messages import Side
from lobkit.fill_model import HIDDEN_LAYERS
from lobkit.mlp import MLP, TrainConfig, gradient_check, train_mlp
from lobkit.replay import OrderLifecycle, Outcome
from lobkit.table import ArtifactInvalid


def _fv(vol=1.0):
    return FeatureVector(
        delta=1.0,
        spread=4.0,
        spread_after=4.0,
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
        volatility=vol,
    )


def _record(time, outcome, dp=None, oid="x"):
    return OrderLifecycle(
        order_id=oid,
        side=Side.BID,
        insert_ts=0,
        price=100,
        size=1.0,
        features=_fv(),
        outcome=outcome,
        outcome_time=time,
        dp_ask_horizon=dp,
    )


def test_collect_excludes_deaths_within_horizon():
    records = [
        _record(0.3, Outcome.FILLED, oid="fast"),
        _record(1.7, Outcome.CANCELLED, dp=2.0, oid="slow"),
        _record(0.9, Outcome.CENSORED, oid="lost"),
    ]
    samples, report = collect_cleanup_samples(records, horizon=1.0)
    assert [s.dp_ask_horizon for s in samples] == [2.0]
    assert report.died_within_horizon == 2
    assert report.kept == 1


def test_collect_hand_enumerated_scripted_day():
    spec = [
        (0.2, Outcome.FILLED, None, False),
        (1.2, Outcome.FILLED, 1.0, True),  # filled after the horizon still qualifies
        (1.5, Outcome.CANCELLED, -2.0, True),
        (2.5, Outcome.CANCELLED, None, False),  # unmeasurable ask move
        (0.8, Outcome.CANCELLED, None, False),
        (3.0, Outcome.CENSORED, 4.0, True),
        (0.99, Outcome.FILLED, None, False),
    ]
    records = [
        _record(t, o, dp=dp, oid=f"r{i}") for i, (t, o, dp, _) in enumerate(spec)
    ]
    samples, report = collect_cleanup_samples(records, horizon=1.0)
    expected = [dp for _, _, dp, keep in spec if keep]
    assert [s.dp_ask_horizon for s in samples] == expected
    assert report.unmeasurable == 1
    assert report.died_within_horizon == 3
    assert (report.read, report.kept) == (len(spec), len(expected))


def test_collect_keeps_partial_window_records_it_is_given():
    # the partial-window rule lives in build_training_matrix; clean-up collection only applies its own two
    rec = _record(2.0, Outcome.CANCELLED, dp=1.0)
    rec.features.partial_window = True
    samples, report = collect_cleanup_samples([rec], horizon=1.0)
    assert samples == [rec]
    assert (report.read, report.kept, report.died_within_horizon, report.unmeasurable) == (1, 1, 0, 0)


def test_samples_to_matrix_reads_the_records_it_keeps():
    records = []
    for i, (t, dp, partial) in enumerate([(2.0, 1.5, False), (0.5, 3.0, False), (1.8, None, False), (3.0, -2.0, True), (2.2, 4.0, False)]):
        rec = _record(t, Outcome.CANCELLED, dp=dp, oid=f"r{i}")
        rec.features = _fv(vol=0.5 + i)
        rec.features.partial_window = partial
        records.append(rec)
    # the wrapper path the records replaced: (features, ask move) pairs of the kept rows
    rows, _ = cleanup_rows([r.outcome_time for r in records], [r.dp_ask_horizon for r in records], 1.0)
    pairs = [(records[i].features, records[i].dp_ask_horizon) for i in rows]
    X_ref, y_ref = feature_matrix(f for f, _ in pairs), np.array([dp for _, dp in pairs], dtype=float)
    samples, _ = collect_cleanup_samples(records, horizon=1.0)
    X, y = samples_to_matrix(samples)
    assert len(y) == 3  # a partial window is kept: the rule applies to the training rows upstream
    assert np.array_equal(X, X_ref) and np.array_equal(y, y_ref)


def test_constant_cleanup_is_mean():
    records = [
        _record(2.0, Outcome.CANCELLED, dp=1.0, oid="a"),
        _record(2.0, Outcome.CANCELLED, dp=3.0, oid="b"),
    ]
    samples, _ = collect_cleanup_samples(records, horizon=1.0)
    assert constant_cleanup([s.dp_ask_horizon for s in samples]) == 2.0
    assert constant_cleanup([]) == 0.0  # no qualifying row: Models I and II price no clean-up


# ---------------------------------------------------------------------------
# Bucketed estimator
# ---------------------------------------------------------------------------


def test_single_bucket_equals_global_mean():
    rng = np.random.default_rng(0)
    values = rng.uniform(0, 10, 200)
    targets = rng.normal(1.5, 2.0, 200)
    curve = bucket_estimate(values, targets, edges=[0.0, 10.0], min_count=1)
    assert curve.means[0] == pytest.approx(targets.mean())
    assert curve.std_errors[0] == pytest.approx(targets.std(ddof=1) / np.sqrt(200))


def test_driftless_targets_within_two_standard_errors():
    rng = np.random.default_rng(0)
    values = rng.uniform(0, 4, 4000)
    targets = rng.normal(0.0, 3.0, 4000)
    curve = bucket_estimate(values, targets, edges=[0, 1, 2, 3, 4], min_count=10)
    for mean, se in zip(curve.means, curve.std_errors):
        assert abs(mean) <= 2 * se


def test_planted_drift_recovered():
    rng = np.random.default_rng(100)
    mu_t = 2.5
    values = rng.uniform(0, 4, 4000)
    targets = rng.normal(mu_t, 1.0, 4000)
    curve = bucket_estimate(values, targets, edges=[0, 2, 4], min_count=10)
    for mean, se in zip(curve.means, curve.std_errors):
        assert abs(mean - mu_t) <= 2 * se


def test_partition_consistency_pooled_equals_weighted_average():
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 4, 500)
    targets = rng.normal(0.5, 1.0, 500) + values
    fine = bucket_estimate(values, targets, edges=[0, 1, 2, 3, 4], min_count=1)
    coarse = bucket_estimate(values, targets, edges=[0, 2, 4], min_count=1)
    pooled_low = (
        fine.means[0] * fine.counts[0] + fine.means[1] * fine.counts[1]
    ) / (fine.counts[0] + fine.counts[1])
    assert coarse.means[0] == pytest.approx(pooled_low)


def test_sparse_buckets_omitted_and_reported():
    curve = bucket_estimate([0.5] * 40 + [3.5], np.zeros(41), edges=[0, 1, 2, 3, 4], min_count=5)
    assert curve.counts[3] == 1
    assert np.isnan(curve.means[3])
    assert curve.omitted == {3: 1}


# ---------------------------------------------------------------------------
# Regression model
# ---------------------------------------------------------------------------


def test_constant_target_learned_to_tolerance():
    # full-batch descent settles onto the constant: train_cleanup_model's network and
    # training on five inputs (a CleanupModel itself takes one per feature column)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(400, 5))
    targets = np.full(400, 2.0)
    cfg = TrainConfig(lr=0.05, batch=512, epochs=2000, seed=5, patience=10**6, val_fraction=0.1)
    mlp = MLP([5, *HIDDEN_LAYERS, 1], output="identity", seed=cfg.seed)
    train_mlp(mlp, X, winsorize(targets)[0], np.ones(len(targets)), cfg)
    preds = mlp.predict(X)
    assert np.all(np.abs(preds - 2.0) <= 1e-3)


def test_zero_initialized_regressor_predicts_zero():
    model = MLP([5, 32, 32, 32, 1], output="identity", seed=0)
    for W in model.weights:
        W[:] = 0.0
    out = model.predict(np.random.default_rng(1).normal(size=(7, 5)))
    assert np.all(out == 0.0)


def test_regression_gradient_check():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(64, 5))
    t = X[:, 0] * 2 - X[:, 3]
    model = MLP([5, 32, 32, 32, 1], output="identity", seed=7)
    model.fit_standardization(X)
    assert gradient_check(model, X, t, np.ones(64), n_checks=100, seed=8) <= 1e-4


def test_winsorize_clips_extremes():
    targets = np.concatenate([np.zeros(998), [1e9, -1e9]])
    clipped, bounds = winsorize(targets)
    assert clipped.max() < 1e9 and clipped.min() > -1e9
    assert bounds[0] <= 0 <= bounds[1]


def test_cleanup_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(200, len(FEATURE_COLUMNS)))
    t = X[:, 0] + 0.5
    model = train_cleanup_model(X, t, TrainConfig(lr=0.02, batch=32, epochs=30, seed=10))
    path = tmp_path / "cleanup.json"
    model.save(path)
    clone = CleanupModel.load(path)
    assert isinstance(clone, CleanupModel)
    np.testing.assert_array_equal(model.mlp.predict(X), clone.mlp.predict(X))
    assert clone.winsor_bounds == model.winsor_bounds


@pytest.mark.parametrize("bounds", [[2.0, 1.0], [0.0, float("inf")], [0.0], ["a", "b"], True])
def test_cleanup_model_load_rejects_bad_winsor_bounds(tmp_path, bounds):
    model = CleanupModel(MLP([len(FEATURE_COLUMNS), 3, 1], output="identity", seed=1), winsor_bounds=(0.0, 1.0))
    path = tmp_path / "cleanup.json"
    path.write_text(json.dumps({**model.envelope(), "winsor_bounds": bounds}))
    with pytest.raises(ArtifactInvalid) as err:
        CleanupModel.load(path)
    assert str(err.value).startswith(f"{path}: field 'winsor_bounds' is ")


def test_predict_cleanup_deterministic_and_finite():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(100, len(FEATURE_COLUMNS)))
    t = X[:, 1] * 3
    model = train_cleanup_model(X, t, TrainConfig(lr=0.02, batch=32, epochs=20, seed=12))
    row = X[:1]
    a = model.predict(row)
    b = model.predict(row)
    assert a.shape == (1,)
    assert a[0] == b[0] and np.isfinite(a[0])
