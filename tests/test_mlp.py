import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobkit.fill_model import HIDDEN_LAYERS
from lobkit.mlp import (
    MLP,
    INPUT_LIMIT,
    DimensionMismatch,
    NonFiniteLoss,
    TrainConfig,
    _sigmoid,
    gradient_check,
    permutation_importance,
    train_mlp,
)


def _toy_data(seed=0, n=400, d=6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] - 0.8 * X[:, 1] > 0).astype(float)
    w = np.ones(n)
    return X, y, w


def test_forward_output_in_unit_interval():
    X, _, _ = _toy_data()
    model = MLP([6, 32, 32, 32, 1], seed=1)
    model.fit_standardization(X)
    out = model.predict(X * 100)
    assert np.all((out > 0) & (out < 1))


def test_zero_network_predicts_half():
    model = MLP([4, 32, 32, 32, 1], seed=0)
    for W in model.weights:
        W[:] = 0.0
    out = model.predict(np.random.default_rng(0).normal(size=(10, 4)))
    assert np.all(out == 0.5)


def test_dimension_mismatch_raises():
    model = MLP([4, 8, 1], seed=0)
    with pytest.raises(DimensionMismatch):
        model.predict(np.zeros((3, 5)))


def test_gradient_check_classifier_and_regressor():
    X, y, w = _toy_data(seed=2)
    clf = MLP([6, 32, 32, 32, 1], output="sigmoid", seed=3)
    clf.fit_standardization(X)
    assert gradient_check(clf, X[:64], y[:64], w[:64], n_checks=100, seed=5) <= 1e-4
    reg = MLP([6, 32, 32, 32, 1], output="identity", seed=4)
    reg.fit_standardization(X)
    t = X[:, 0] * 3.0 - 1.0
    assert gradient_check(reg, X[:64], t[:64], w[:64], n_checks=100, seed=6) <= 1e-4


def test_gradient_single_linear_neuron_closed_form():
    # one sigmoid neuron, one sample: dL/dw = (p - y) x, dL/db = p - y
    model = MLP([2, 1], output="sigmoid", seed=0)
    model.set_standardization(np.zeros(2), np.ones(2))
    model.weights[0][:, 0] = [0.3, -0.7]
    model.biases[0][0] = 0.1
    x = np.array([[1.5, -2.0]])
    y = np.array([1.0])
    w = np.ones(1)
    z = 0.3 * 1.5 + 0.7 * 2.0 + 0.1
    p = 1.0 / (1.0 + np.exp(-z))
    _, gw, gb = model.loss_and_grads(x, y, w)
    np.testing.assert_allclose(gw[0][:, 0], (p - 1.0) * x[0], atol=1e-12)
    np.testing.assert_allclose(gb[0][0], p - 1.0, atol=1e-12)


def test_zero_weight_batch_zero_gradient():
    X, y, _ = _toy_data(seed=7, n=32)
    model = MLP([6, 8, 1], seed=8)
    model.fit_standardization(X)
    loss, gw, gb = model.loss_and_grads(model.standardize(X), y, np.zeros(len(X)))
    assert loss == 0.0
    assert all(np.all(g == 0) for g in gw)
    assert all(np.all(g == 0) for g in gb)


def test_training_separable_high_accuracy():
    X, y, w = _toy_data(seed=9, n=600)
    model = MLP([6, 32, 32, 32, 1], seed=10)
    train_mlp(model, X, y, w, TrainConfig(lr=0.05, batch=64, epochs=300, seed=11, patience=30))
    n_train = len(X) - int(round(0.2 * len(X)))
    preds = model.predict(X[:n_train])
    accuracy = np.mean((preds > 0.5) == y[:n_train])
    assert accuracy >= 0.99
    # on a separable set the fitted probabilities hug the labels
    assert np.mean(np.abs(preds - y[:n_train]) <= 0.05) >= 0.95


def test_weight_rescaling_leaves_trajectory_unchanged():
    X, y, w = _toy_data(seed=12, n=200)
    cfg = TrainConfig(lr=0.01, batch=64, epochs=15, seed=13)
    a = MLP([6, 16, 16, 16, 1], seed=14)
    b = MLP([6, 16, 16, 16, 1], seed=14)
    train_mlp(a, X, y, w, cfg)
    train_mlp(b, X, y, 2.0 * w, cfg)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_calibration_on_balanced_training_data():
    X, y, w = _toy_data(seed=15, n=800)
    model = MLP([6, 32, 32, 32, 1], seed=16)
    train_mlp(model, X, y, w, TrainConfig(lr=0.05, batch=64, epochs=200, seed=17, patience=25))
    n_train = len(X) - int(round(0.2 * len(X)))
    assert abs(model.predict(X[:n_train]).mean() - y[:n_train].mean()) < 0.05


def test_nonfinite_loss_detected():
    X, y, w = _toy_data(seed=18, n=64)
    model = MLP([6, 8, 1], output="identity", seed=19)
    with pytest.raises(NonFiniteLoss), np.errstate(over="ignore", invalid="ignore"):
        train_mlp(model, X, y * 1e200, w, TrainConfig(lr=1e150, batch=16, epochs=5, seed=20))


@pytest.mark.parametrize(
    "field, value",
    [("batch", 0), ("epochs", 0), ("patience", -1), ("val_fraction", 1.0), ("val_fraction", -0.1),
     ("lr", 0.0), ("lr", float("inf")), ("lr", float("nan"))],
)
def test_train_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_train_config_accepts_its_range_ends():
    TrainConfig(lr=1e150, batch=1, epochs=1, patience=0, val_fraction=0.0)
    TrainConfig(val_fraction=0.999)


def test_save_load_round_trip():
    X, y, w = _toy_data(seed=21, n=100)
    model = MLP([6, 16, 1], seed=22)
    train_mlp(model, X, y, w, TrainConfig(lr=0.01, batch=32, epochs=5, seed=23))
    clone = MLP.from_dict(json.loads(json.dumps(model.to_dict())))
    np.testing.assert_array_equal(model.predict(X), clone.predict(X))


def test_finite_inputs_past_the_input_limit_give_finite_outputs():
    """Standardized inputs beyond ``INPUT_LIMIT`` standard deviations read as the limit."""
    X, y, w = _toy_data(seed=21, n=100)
    for output in ("sigmoid", "identity"):
        model = MLP([6, 16, 1], output=output, seed=22)
        model.fit_standardization(X)
        extreme = np.array([[1e308, -1e308, 1e308, 0.0, 5e307, -3.0]])
        at_limit = model.mean + model.std * np.array([[INPUT_LIMIT, -INPUT_LIMIT, INPUT_LIMIT, 0.0, INPUT_LIMIT, 0.0]])
        at_limit[0, 3], at_limit[0, 5] = 0.0, -3.0
        assert np.isfinite(model.predict(extreme)).all()
        assert model.predict(extreme)[0] == model.predict(at_limit)[0]


def test_standardization_past_the_float_range_is_refused():
    X, _, _ = _toy_data(seed=21, n=100)
    X[7, 4] = 1e308  # squares past the float range: the standard deviation overflows
    with pytest.raises(NonFiniteLoss, match="the standard deviation of input 4 is not finite"), np.errstate(over="ignore"):
        MLP([6, 16, 1]).fit_standardization(X)


@pytest.mark.parametrize("weight", [1e308, -1e300])
def test_load_refuses_weights_that_overflow_within_the_input_limit(weight):
    blob = MLP([6, 16, 1], seed=22).to_dict()
    blob["weights"][0][2][5] = weight
    with pytest.raises(ValueError, match="weights and biases overflow on inputs within 1e\\+06 standard deviations"):
        MLP.from_dict(blob)
    blob["weights"][0][2][5] = 1e3  # a large weight whose activations stay finite
    MLP.from_dict(blob)


# ---------------------------------------------------------------------------
# Predict's bits: the in-place forward against the allocating one
# ---------------------------------------------------------------------------


def _reference_sigmoid(z):
    """The masked two-``exp`` sigmoid predict and training used before the one-``exp`` form."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_predict(model, X):
    """``standardize`` -> ``_forward`` -> ``np.clip`` as predict ran them with a temporary per op."""
    Xs = np.clip((np.atleast_2d(np.asarray(X, dtype=float)) - model.mean) / model.std, -INPUT_LIMIT, INPUT_LIMIT)
    h = Xs
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.maximum(h @ W + b, 0.0)
    z = (h @ model.weights[-1] + model.biases[-1])[:, 0]
    if model.output == "identity":
        return z
    return np.clip(_reference_sigmoid(z), 1e-12, 1.0 - 1e-12)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


BITS = settings(max_examples=200, deadline=None, database=None, derandomize=True)
TINY = 5e-324  # the smallest subnormal
SIGMOID_INPUTS = (
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, TINY, -TINY, 2.2e-308, -2.2e-308, 709.78, -745.13])
    | st.floats(700.0, 750.0)
    | st.floats(-750.0, -700.0)
    | st.floats(-1e-300, 1e-300)
    | st.floats(-40.0, 40.0)
    | st.floats(allow_nan=False)
)


@BITS
@given(st.lists(SIGMOID_INPUTS, max_size=64))
def test_sigmoid_equals_masked_reference_bit_for_bit(values):
    z = np.array(values, dtype=float)
    got, ref = _sigmoid(z), _reference_sigmoid(z)
    # a NaN input keeps NaN but may flip its sign bit, so NaN is compared only as NaN
    nan = np.isnan(z)
    assert np.array_equal(np.isnan(got), nan) and np.array_equal(np.isnan(ref), nan)
    assert _same_bits(got[~nan], ref[~nan])


@BITS
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.sampled_from([1, 3, 17, 103]),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 1e6]),
)
def test_predict_equals_allocating_reference_bit_for_bit(seed, rows, scale):
    rng = np.random.default_rng(seed)
    width = 17
    X = rng.normal(size=(rows, width)) * scale
    before = X.copy()
    for output in ("sigmoid", "identity"):
        model = MLP([width, *HIDDEN_LAYERS, 1], output=output, seed=seed)
        model.fit_standardization(rng.normal(size=(50, width)) * rng.uniform(0.1, 10.0, size=width))
        got = model.predict(X)
        assert _same_bits(got, _reference_predict(model, X))
        assert _same_bits(X, before)  # predict never writes its input


# ---------------------------------------------------------------------------
# Permutation importance
# ---------------------------------------------------------------------------


def _names(X):
    return [f"f{i}" for i in range(X.shape[1])]


def test_ignored_feature_scores_zero():
    X, y, w = _toy_data(seed=24, n=300)
    model = MLP([6, 16, 16, 16, 1], seed=25)
    model.fit_standardization(X)
    model.weights[0][3, :] = 0.0  # model ignores feature 3
    scores = dict(permutation_importance(model, X, y, w, _names(X), seed=26))
    assert scores["f3"] == 0.0


def test_duplicate_features_score_similarly():
    rng = np.random.default_rng(27)
    X = rng.normal(size=(400, 4))
    X[:, 1] = X[:, 0]
    y = (X[:, 0] + X[:, 2] > 0).astype(float)
    w = np.ones(400)
    model = MLP([4, 16, 16, 16, 1], seed=28)
    model.fit_standardization(X)
    # symmetric first layer in the duplicated pair
    model.weights[0][1, :] = model.weights[0][0, :]
    scores = dict(permutation_importance(model, X, y, w, _names(X), seed=29))
    assert scores["f0"] == pytest.approx(scores["f1"], rel=0.5, abs=0.02)


def test_planted_relevant_feature_ranks_first():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(1500, 5))
    logits = 2.5 * X[:, 2]
    y = (rng.random(1500) < 1 / (1 + np.exp(-logits))).astype(float)
    w = np.ones(1500)
    model = MLP([5, 32, 32, 32, 1], seed=31)
    train_mlp(model, X, y, w, TrainConfig(lr=0.05, batch=128, epochs=120, seed=32, patience=20))
    ranked = permutation_importance(model, X, y, w, _names(X), seed=33)
    assert ranked[0][0] == "f2"
