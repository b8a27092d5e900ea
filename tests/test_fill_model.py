import json
import math

import numpy as np
import pytest

from lobkit.features import FEATURE_COLUMNS, FeatureVector
from lobkit.fill_model import (
    OMEGA_EDGES,
    CensoringModel,
    FillModel,
    build_training_matrix,
    censoring_survival,
    ipcw_weights,
    stratified_censoring_survival,
    train_fill_model,
)
from lobkit.messages import Side
from lobkit.mlp import MLP, SingleClass, TrainConfig
from lobkit.replay import OrderLifecycle, Outcome
from lobkit.survival import Observation, fill_probability_at, post_and_wait_fill
from lobkit.table import ArtifactInvalid


def _fv(delta=1.0, spread=4.0, omega=None):
    return FeatureVector(
        delta=delta,
        spread=spread,
        spread_after=spread if delta >= 0 else spread + delta,
        best_imbalance=0.0,
        add_imbalance=0.0,
        aggressiveness=omega,
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


def _record(time, outcome, delta=1.0, oid="x", omega=None):
    return OrderLifecycle(
        order_id=oid,
        side=Side.BID,
        insert_ts=0,
        price=100,
        size=1.0,
        features=_fv(delta=delta, omega=omega),
        outcome=outcome,
        outcome_time=time,
    )


# ---------------------------------------------------------------------------
# Censoring survival (roles swapped)
# ---------------------------------------------------------------------------


def test_censoring_curve_flat_without_censoring():
    observations = [Observation(t, 1) for t in (0.5, 1.0, 2.0)]
    curve = censoring_survival(observations)
    assert curve.at(10.0) == 1.0


def test_censoring_curve_hand_product_limit():
    # swap roles on {exec@1, cancel@2, exec@3, censor@4}: deaths at 2 and 4
    observations = [
        Observation(1.0, 1),
        Observation(2.0, 2),
        Observation(3.0, 1),
        Observation(4.0, 0),
    ]
    curve = censoring_survival(observations)
    # risk sets: t=2 -> n=3 (exec@1 censored for G), death -> 2/3
    # t=4 -> n=1, death -> 0
    assert curve.at(2.0) == 1.0
    assert curve.at(2.5) == pytest.approx(2 / 3)
    assert curve.at(4.5) == pytest.approx(0.0)


def test_unseen_stratum_falls_back_to_pooled_curve():
    # fitted on passive orders only; an aggressive query uses the pooled curve
    records = [
        _record(t, Outcome(c), delta=2.0, oid=f"p{i}")
        for i, (t, c) in enumerate([(0.4, 1), (0.9, 2), (1.5, 2), (2.5, 0)])
    ]
    model = stratified_censoring_survival(records, min_count=1)
    pooled = censoring_survival([Observation(r.outcome_time, int(r.outcome)) for r in records])
    assert model.curve_of(model.stratum_of(-1.0, 0.5)).at(1.2) == pytest.approx(pooled.at(1.2))


def test_stratified_matches_unstratified_on_identical_populations():
    times = [0.4, 0.9, 1.5, 2.5]
    causes = [1, 2, 2, 0]
    records = []
    for i, (t, c) in enumerate(zip(times, causes)):
        records.append(_record(t, Outcome(c), delta=1.0, oid=f"p{i}"))  # passive stratum
        records.append(_record(t, Outcome(c), delta=0.0, oid=f"b{i}"))  # at-best stratum
    model = stratified_censoring_survival(records, min_count=1)
    pooled = censoring_survival([Observation(t, c) for t, c in zip(times, causes)])
    for t in (0.5, 1.0, 2.0, 3.0):
        assert model.curve_of(model.stratum_of(1.0, None)).at(t) == pytest.approx(pooled.at(t))
        assert model.curve_of(model.stratum_of(0.0, None)).at(t) == pytest.approx(pooled.at(t))


def test_thin_stratum_is_named_in_pooled_strata():
    """Three at-best records fall under ``min_count``: that stratum alone reads the pooled curve and is named."""
    times = [0.4, 0.9, 1.5, 2.5, 0.7, 1.1]
    records = [_record(t, Outcome((i % 3)), delta=1.0, oid=f"p{i}") for i, t in enumerate(times)]
    records += [_record(t, Outcome(2), delta=0.0, oid=f"b{i}") for i, t in enumerate(times[:3])]
    model = stratified_censoring_survival(records, min_count=4)
    assert model.pooled_strata == ["at_best"]
    assert model.curves["at_best"] is model.curves["pooled"]
    assert model.curves["passive_0"] is not model.curves["pooled"]
    assert stratified_censoring_survival(records, min_count=3).pooled_strata == []


def test_stratum_of_matches_sorted_search_reference():
    """A stratum is the last edge at or below the value, clamped to the first
    and last bucket; NaN sorts last.  The reference is the sorted-search lookup."""

    def reference(edges, x):
        return int(np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(edges) - 2))

    deciles = [0.0, 1.0, 2.0, 2.0, 3.5, 7.0, 20.0]
    values = [-np.inf, -1.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 2.0, 3.49, 3.5, 6.99, 7.0, 19.99, 20.0, 1e9, np.inf, np.nan]
    for delta_edges in (deciles, [0.0, float("inf")]):
        model = CensoringModel(delta_edges=delta_edges)
        for delta in values:
            if delta == 0:
                expected = "at_best"
            elif delta < 0:
                expected = f"aggressive_{reference(OMEGA_EDGES, 0.0)}"
            else:
                expected = f"passive_{reference(delta_edges, delta)}"
            assert model.stratum_of(delta, None) == expected, (delta_edges, delta)
        for omega in [None, *values, 1.0 / 3.0, 2.0 / 3.0, 1.0 + 1e-9]:
            expected = f"aggressive_{reference(OMEGA_EDGES, 0.0 if omega is None else omega)}"
            assert model.stratum_of(-1.0, omega) == expected, omega


# ---------------------------------------------------------------------------
# IPCW weights
# ---------------------------------------------------------------------------


def _pooled(records):
    """A censoring model whose every stratum reads the one pooled curve."""
    return stratified_censoring_survival(records, min_count=math.inf)


def test_weights_all_one_without_censoring():
    records = [
        _record(0.2, Outcome.FILLED, oid="a"),
        _record(0.7, Outcome.FILLED, oid="b"),
        _record(1.8, Outcome.FILLED, oid="c"),  # survives the horizon
    ]
    res = ipcw_weights(records, 1.0, _pooled(records))
    np.testing.assert_allclose(res.weights, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(res.labels, [1.0, 1.0, 0.0])


def test_survivor_weight_is_reciprocal_of_censoring_survival():
    # cancels at 0.5 (half the risk set) push G(T)=0.5 -> survivor weight 2
    records = [
        _record(0.5, Outcome.CANCELLED, oid="a"),
        _record(0.5, Outcome.CANCELLED, oid="b"),
        _record(1.5, Outcome.FILLED, oid="c"),
        _record(1.5, Outcome.FILLED, oid="d"),
    ]
    res = ipcw_weights(records, 1.0, _pooled(records))
    curve = censoring_survival([Observation(r.outcome_time, int(r.outcome)) for r in records])
    assert curve.at(1.0) == pytest.approx(0.5)
    np.testing.assert_allclose(res.weights, [0.0, 0.0, 2.0, 2.0])
    np.testing.assert_allclose(res.labels, [0.0, 0.0, 0.0, 0.0])


def test_six_record_equivalence_oracle():
    # frozen toy set: weighted execution frequency equals 1 - S_pw(T)
    records = [
        _record(0.30, Outcome.FILLED, oid="a"),
        _record(0.50, Outcome.CANCELLED, oid="b"),
        _record(0.80, Outcome.FILLED, oid="c"),
        _record(0.90, Outcome.CENSORED, oid="d"),
        _record(1.40, Outcome.FILLED, oid="e"),
        _record(2.00, Outcome.CANCELLED, oid="f"),
    ]
    horizon = 1.0
    res = ipcw_weights(records, horizon, _pooled(records))
    ipcw_fill = float(np.sum(res.weights * res.labels)) / len(records)
    obs = [Observation(r.outcome_time, int(r.outcome)) for r in records]
    km_fill = fill_probability_at(post_and_wait_fill(obs), horizon)
    assert ipcw_fill == pytest.approx(km_fill, abs=1e-12)
    # hand product-limit: exec@0.3 (n=6) and exec@0.8 (n=4): S = (5/6)(3/4)
    assert km_fill == pytest.approx(1 - (5 / 6) * (3 / 4), abs=1e-12)


@pytest.mark.parametrize("seed", range(60))
def test_random_instances_equivalence(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 21))
    records = []
    for i in range(n):
        # coarse grid creates heavy ties between observations
        t = float(max(0.05, np.round(rng.exponential(0.8) * 4) / 4 + 0.05))
        outcome = Outcome(int(rng.choice([0, 1, 2], p=[0.2, 0.4, 0.4])))
        records.append(_record(t, outcome, oid=f"r{i}"))
    horizon = 1.005  # never collides with the event grid
    res = ipcw_weights(records, horizon, _pooled(records))
    ipcw_fill = float(np.sum(res.weights * res.labels)) / n
    obs = [Observation(r.outcome_time, int(r.outcome)) for r in records]
    km_fill = fill_probability_at(post_and_wait_fill(obs), horizon)
    assert ipcw_fill == pytest.approx(km_fill, abs=1e-9)


def test_weight_floor_flagged():
    records = [
        _record(0.2, Outcome.CANCELLED, oid=f"c{i}") for i in range(99)
    ] + [_record(1.5, Outcome.FILLED, oid="s")]
    res = ipcw_weights(records, 1.0, _pooled(records), floor=0.05)
    assert res.floored == 1
    assert res.weights[-1] == pytest.approx(1 / 0.05)


def _ipcw_reference(records, horizon, censoring, floor):
    """(weights, floored) one record at a time, each ``G`` a scalar curve evaluation."""
    weights, floored = [], 0
    for rec in records:
        filled = rec.outcome is Outcome.FILLED
        if filled and rec.outcome_time <= horizon:
            t_eval = rec.outcome_time
        elif rec.outcome_time > horizon or filled:
            t_eval = horizon
        else:
            weights.append(0.0)
            continue
        g = censoring.curve_of(censoring.stratum_of(rec.features.delta, rec.features.aggressiveness)).at(t_eval)
        if g < floor:
            g = floor
            floored += 1
        weights.append(1.0 / g)
    return weights, floored


@pytest.mark.parametrize("seed", range(20))
def test_ipcw_per_stratum_equals_per_record_reference(seed):
    """Weights and the floored count equal a per-record evaluation bit for bit:
    fitted strata, thin strata on the pooled curve, strata unseen when fitting,
    and the pooled curve in every stratum."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(int(rng.integers(1, 120))):
        delta = float(rng.choice([-3.0, -1.0, 0.0, 1.0, 2.0, 5.0, 9.0]))
        omega = float(rng.uniform(0.0, 1.0)) if delta < 0 and rng.random() < 0.8 else None
        t = float(np.round(rng.exponential(0.8) * 8) / 8 + 0.05)
        outcome = Outcome(int(rng.choice([0, 1, 2], p=[0.2, 0.4, 0.4])))
        records.append(_record(t, outcome, delta=delta, oid=f"r{i}", omega=omega))
    horizon = float(rng.choice([0.5, 1.0, 1.05]))
    floor = float(rng.choice([0.01, 0.3, 0.6]))
    fitted_on = records[: max(1, len(records) // 2)]  # the rest may fall in strata unseen when fitting
    models = [
        stratified_censoring_survival(fitted_on, min_count=int(rng.integers(1, 12))),
        _pooled(fitted_on),
    ]
    for censoring in models:
        res = ipcw_weights(records, horizon, censoring, floor=floor)
        weights, floored = _ipcw_reference(records, horizon, censoring, floor)
        assert res.weights.tobytes() == np.asarray(weights).tobytes()
        assert res.floored == floored


def test_ipcw_without_a_curve_for_a_stratum_raises_key_error():
    records = [_record(0.4, Outcome.FILLED, delta=2.0, oid="p"), _record(0.3, Outcome.FILLED, delta=0.0, oid="b")]
    model = stratified_censoring_survival(records[:1], min_count=1)
    del model.curves["pooled"]
    with pytest.raises(KeyError, match="'at_best' and no pooled fallback"):
        ipcw_weights(records, horizon=1.0, censoring=model)


# ---------------------------------------------------------------------------
# Training wrapper
# ---------------------------------------------------------------------------


def test_single_class_rejected():
    X = np.random.default_rng(0).normal(size=(50, 3))
    y = np.ones(50)
    w = np.ones(50)
    with pytest.raises(SingleClass):
        train_fill_model(X, y, w, TrainConfig(epochs=2, seed=0))


def test_zero_weight_rows_do_not_count_for_classes():
    X = np.random.default_rng(1).normal(size=(50, 3))
    y = np.concatenate([np.zeros(25), np.ones(25)])
    w = np.concatenate([np.zeros(25), np.ones(25)])  # only one class has weight
    with pytest.raises(SingleClass):
        train_fill_model(X, y, w, TrainConfig(epochs=2, seed=0))


def test_fill_model_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(300, len(FEATURE_COLUMNS)))
    y = (X[:, 0] > 0).astype(float)
    w = np.ones(300)
    model = train_fill_model(X, y, w, TrainConfig(lr=0.05, batch=64, epochs=40, seed=3))
    path = tmp_path / "fill.json"
    model.save(path)
    clone = FillModel.load(path)
    assert isinstance(clone, FillModel)
    np.testing.assert_array_equal(model.mlp.predict(X), clone.mlp.predict(X))
    assert json.loads(path.read_text())["columns"] == list(FEATURE_COLUMNS)


def _fill_file(tmp_path, **fields):
    """A fill model file, with ``fields`` written over the model's own."""
    model = FillModel(MLP([len(FEATURE_COLUMNS), 3, 1], seed=1), trained_span=(1, 2))
    blob = {**model.envelope(), **fields}
    path = tmp_path / "fill.json"
    path.write_text(json.dumps(blob))
    return path


@pytest.mark.parametrize(
    "fields,named",
    [
        ({"columns": ["a", "b", "c"]}, "'columns'"),
        ({"horizon": 0}, "'horizon'"),
        ({"horizon": None}, "'horizon'"),
        ({"horizon": 10**400}, "'horizon'"),  # an int past the float range
        ({"trained_span": [1, 2, 3]}, "'trained_span'"),
        ({"trained_span": [1.5, 2]}, "'trained_span'"),
        ({"kind": "cleanup"}, "'kind'"),
        ({"columns": list(reversed(FEATURE_COLUMNS))}, "'columns'"),  # one name per input, in another order
        ({"columns": None}, "'columns'"),
    ],
)
def test_fill_model_load_rejects_a_field_the_model_rejects(tmp_path, fields, named):
    path = _fill_file(tmp_path, **fields)
    with pytest.raises(ArtifactInvalid) as err:
        FillModel.load(path)
    assert str(err.value).startswith(f"{path}: ") and named in str(err.value)


def test_net_model_needs_one_input_per_feature_column():
    with pytest.raises(ValueError, match=f"field 'mlp' has 4 inputs, not one per feature column \\({len(FEATURE_COLUMNS)}\\)"):
        FillModel(MLP([4, 3, 1], seed=1))
    with pytest.raises(ValueError, match="field 'mlp' has 4 inputs"):
        train_fill_model(np.eye(4), np.array([0.0, 1.0, 0.0, 1.0]), np.ones(4), TrainConfig(epochs=1, val_fraction=0.0))


def test_fill_model_file_is_its_fields(tmp_path):
    path = _fill_file(tmp_path)
    blob = json.loads(path.read_text())
    assert sorted(blob) == ["columns", "horizon", "kind", "mlp", "trained_span"]
    assert FillModel.load(path).trained_span == (1, 2)
    for name in ("trained_span", "columns"):
        path.write_text(json.dumps({key: value for key, value in blob.items() if key != name}))
        with pytest.raises(ArtifactInvalid, match=f"required field '{name}' is missing"):
            FillModel.load(path)


def test_build_training_matrix_drops_partial_windows():
    records = [
        _record(0.2, Outcome.FILLED, oid="a"),
        _record(0.4, Outcome.FILLED, oid="b"),
    ]
    records[1].features.partial_window = True
    X, y, w, kept, _ = build_training_matrix(records, 1.0, _pooled(records))
    assert len(kept) == 1 and kept[0].order_id == "a"
    assert X.shape[0] == len(y) == len(w) == 1
