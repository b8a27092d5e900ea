import copy
import math
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from lobkit.features import FeatureVector
from lobkit.messages import Side
from lobkit import survival
from lobkit.fill_model import censoring_survival
from lobkit.replay import OrderLifecycle, Outcome
from lobkit.survival import (
    CAUSE_CANCELLATION,
    CAUSE_CENSORED,
    CAUSE_EXECUTION,
    EmptyInput,
    Observation,
    aalen_johansen,
    conditional_curves,
    fill_probability_at,
    gray_variance,
    kaplan_meier,
    log_log_ci,
    post_and_wait_fill,
)


def obs(*pairs):
    return [Observation(t, c) for t, c in pairs]


# ---------------------------------------------------------------------------
# Step lookups
# ---------------------------------------------------------------------------


def _reference_step(times, start, values, t):
    """The lookup each curve method once carried its own copy of."""
    idx = np.searchsorted(times, np.asarray(t), side="left")
    padded = np.concatenate(([start], values))
    out = padded[idx]
    return float(out) if np.isscalar(t) or np.asarray(t).ndim == 0 else out


@st.composite
def curve_queries(draw):
    """Observations on a coarse grid (so times tie), and query times at,
    between, before and after the event times, as a scalar or an array."""
    pairs = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(0, 2)), min_size=1, max_size=25))
    observations = obs(*((k / 4.0, cause) for k, cause in pairs))
    times = sorted({o.time for o in observations})
    candidates = [0.1, *times, *((a + b) / 2.0 for a, b in zip(times, times[1:])), times[-1] + 1.0]
    queries = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=8))
    t = draw(st.sampled_from([queries[0], np.float64(queries[0]), np.asarray(queries[0]), np.array(queries)]))
    return observations, t


def _same(got, expected):
    assert type(got) is type(expected)
    assert np.array_equal(got, expected)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(case=curve_queries())
def test_every_curve_lookup_equals_the_reference_step(case):
    observations, t = case
    km = kaplan_meier(observations)
    _same(km.at(t), _reference_step(km.times, 1.0, km.values, t))
    aj = aalen_johansen(observations)
    _same(aj.survival_at(t), _reference_step(aj.times, 1.0, aj.survival, t))
    for cause in (CAUSE_EXECUTION, CAUSE_CANCELLATION):
        _same(aj.incidence_at(cause, t), _reference_step(aj.times, 0.0, aj.cif[cause], t))
        _same(aj.variance_at(cause, t), _reference_step(aj.times, 0.0, gray_variance(aj, cause), t))


# ---------------------------------------------------------------------------
# Kaplan-Meier
# ---------------------------------------------------------------------------


def test_km_all_censored_is_flat_one():
    curve = kaplan_meier(obs((1.0, 0), (2.0, 0)))
    assert curve.at(10.0) == 1.0


def test_km_uncensored_equals_empirical_survivor():
    curve = kaplan_meier([Observation(t, 1) for t in (1.0, 2.0, 3.0)])
    assert curve.at(1.5) == pytest.approx(2 / 3)
    assert curve.at(2.5) == pytest.approx(1 / 3)
    assert curve.at(3.0 + 1e-9) == pytest.approx(0.0)
    # pre-jump evaluation at an event time
    assert curve.at(3.0) == pytest.approx(1 / 3)


def test_km_hand_product_limit_with_censoring():
    curve = kaplan_meier(obs((1.0, 1), (2.0, 0), (3.0, 1)))
    assert curve.at(1.0 + 1e-9) == pytest.approx(2 / 3)
    assert curve.at(3.0 + 1e-9) == pytest.approx(0.0)


def test_km_risk_set_recursion():
    curve = kaplan_meier(obs((1.0, 1), (1.0, 0), (2.0, 2), (3.0, 0)))
    for k in range(len(curve.times) - 1):
        assert curve.at_risk[k + 1] == pytest.approx(
            curve.at_risk[k] - curve.deaths[k] - curve.censored[k]
        )


def test_km_empty_input():
    with pytest.raises(EmptyInput):
        kaplan_meier([])


def test_km_order_invariance():
    rng = np.random.default_rng(7)
    base = [Observation(float(t), int(c)) for t, c in zip(rng.exponential(1, 50), rng.integers(0, 3, 50))]
    reference = kaplan_meier(base)
    for seed in range(5):
        shuffled = list(base)
        np.random.default_rng(seed).shuffle(shuffled)
        curve = kaplan_meier(shuffled)
        np.testing.assert_array_equal(curve.times, reference.times)
        np.testing.assert_allclose(curve.values, reference.values, rtol=0, atol=0)


def _weighted_tabulate(obs, weights):
    """The tabulation the curves were built on while an observation carried a
    weight: stable-sorted weighted ``bincount`` sums per unique time."""
    times = np.array([o.time for o in obs])
    causes = np.array([o.cause for o in obs])
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(times, kind="stable")
    times, causes, weights = times[order], causes[order], weights[order]
    uniq, inverse = np.unique(times, return_inverse=True)
    k = len(uniq)
    w1 = np.bincount(inverse, weights=weights * (causes == CAUSE_EXECUTION), minlength=k)
    w2 = np.bincount(inverse, weights=weights * (causes == CAUSE_CANCELLATION), minlength=k)
    wc = np.bincount(inverse, weights=weights * (causes == CAUSE_CENSORED), minlength=k)
    total = w1 + w2 + wc
    n = np.concatenate(([weights.sum()], weights.sum() - np.cumsum(total)[:-1]))
    return uniq, n, w1, w2, wc


def _unit_weight_tabulate(obs):
    uniq, n, w1, w2, wc = _weighted_tabulate(obs, np.ones(len(obs)))
    return uniq, n, {CAUSE_EXECUTION: w1, CAUSE_CANCELLATION: w2, CAUSE_CENSORED: wc}


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _curve_bits(observations):
    """Every array the curves built from ``observations`` hold, as dtype, shape and bytes."""
    out = []
    for curve in (
        kaplan_meier(observations),
        post_and_wait_fill(observations),
        censoring_survival(observations),
    ):
        out += [_bits(a) for a in (curve.times, curve.values, curve.at_risk, curve.deaths, curve.censored)]
    aj = aalen_johansen(observations)
    out += [_bits(aj.times), _bits(aj.survival), _bits(aj.at_risk), _bits(aj.censored), aj.skipped_terms]
    for cause in (CAUSE_EXECUTION, CAUSE_CANCELLATION):
        out += [_bits(aj.cif[cause]), _bits(aj.deaths[cause]), _bits(gray_variance(aj, cause))]
    return out


# every tie pattern of three causes on a six-point grid
TIED_OBSERVATIONS = st.lists(st.tuples(st.integers(1, 6), st.integers(0, 2)), min_size=3, max_size=40).filter(
    lambda pairs: {c for _, c in pairs} == {0, 1, 2}
).map(lambda pairs: obs(*((k / 4.0, cause) for k, cause in pairs)))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(observations=TIED_OBSERVATIONS)
def test_count_tabulation_equals_the_weighted_one_at_unit_weights(observations):
    uniq, n, counts = survival._tabulate(observations)
    reference = _unit_weight_tabulate(observations)
    assert [_bits(uniq), _bits(n)] == [_bits(reference[0]), _bits(reference[1])]
    assert list(counts) == list(reference[2])
    assert [_bits(c) for c in counts.values()] == [_bits(c) for c in reference[2].values()]
    counted = _curve_bits(observations)
    with mock.patch.object(survival, "_tabulate", _unit_weight_tabulate):
        weighted = _curve_bits(observations)
    assert counted == weighted


def test_km_exponential_consistency_small():
    rng = np.random.default_rng(3)
    n = 4000
    lifetimes = rng.exponential(1.0, n)
    censoring = rng.exponential(2.0, n)
    observations = [
        Observation(min(l, c), 1 if l <= c else 0) for l, c in zip(lifetimes, censoring)
    ]
    curve = kaplan_meier(observations)
    grid = np.linspace(0.05, 3.0, 60)
    gap = np.max(np.abs(np.asarray(curve.at(grid)) - np.exp(-grid)))
    assert gap < 0.04


# ---------------------------------------------------------------------------
# Aalen-Johansen
# ---------------------------------------------------------------------------


def test_aj_single_cause_degenerates_to_km():
    observations = obs((1.0, 1), (2.0, 1), (2.5, 0), (3.0, 1))
    curve = aalen_johansen(observations)
    km = kaplan_meier(observations)
    np.testing.assert_allclose(curve.cif[CAUSE_EXECUTION], 1.0 - km.values, atol=1e-12)
    assert np.all(curve.cif[CAUSE_CANCELLATION] == 0.0)


def test_aj_hand_computation_and_identity():
    curve = aalen_johansen(obs((1.0, 1), (2.0, 2), (3.0, 1)))
    assert curve.incidence_at(CAUSE_EXECUTION, 99.0) == pytest.approx(2 / 3)
    assert curve.incidence_at(CAUSE_CANCELLATION, 99.0) == pytest.approx(1 / 3)
    total = curve.cif[CAUSE_EXECUTION] + curve.cif[CAUSE_CANCELLATION] + curve.survival
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_aj_all_censored_zero_incidence():
    curve = aalen_johansen(obs((1.0, 0), (2.0, 0)))
    assert curve.incidence_at(CAUSE_EXECUTION, 10.0) == 0.0
    assert curve.incidence_at(CAUSE_CANCELLATION, 10.0) == 0.0


def test_aj_two_cause_exponential_consistency_small():
    rng = np.random.default_rng(5)
    n = 4000
    lam1, lam2 = 2.0, 1.0
    t1 = rng.exponential(1 / lam1, n)
    t2 = rng.exponential(1 / lam2, n)
    observations = [
        Observation(min(a, b), 1 if a <= b else 2) for a, b in zip(t1, t2)
    ]
    curve = aalen_johansen(observations)
    truth = lam1 / (lam1 + lam2) * (1 - math.exp(-(lam1 + lam2) * 1.0))
    assert curve.incidence_at(CAUSE_EXECUTION, 1.0) == pytest.approx(truth, abs=0.04)


# ---------------------------------------------------------------------------
# Gray variance
# ---------------------------------------------------------------------------


def _gray_oracle(table, cause_key, horizon_index):
    """Direct summation of the three-term variance with explicit loops.

    ``table`` rows: (n, d_total, d_cause, f_post, s_prev); the incidence at
    an event time includes that time's jump.
    """
    f_t = table[horizon_index][3]
    total = 0.0
    for k in range(horizon_index + 1):
        n, d, di, fk, s_prev = table[k]
        if n <= 1:
            continue
        m = (n - di) / n
        diff = f_t - fk
        if n - d > 0:
            total += diff**2 * d / ((n - 1) * (n - d))
            total += -2.0 * diff * s_prev * di * m / ((n - d) * (n - 1))
        total += s_prev**2 * di * m / ((n - 1) * n)
    return total


def _toy_curve():
    # 3 deaths (cause1@1, cause2@3, cause1@4) and one censor at 2
    return aalen_johansen(obs((1.0, 1), (2.0, 0), (3.0, 2), (4.0, 1)))


def test_gray_variance_matches_independent_summation():
    curve = _toy_curve()
    var = gray_variance(curve, CAUSE_EXECUTION)
    # literal tabulation of the toy set: (n, d, d_cause1, F1 post-jump, S pre-jump)
    table = [
        (4, 1, 1, 0.25, 1.0),
        (3, 0, 0, 0.25, 0.75),
        (2, 1, 0, 0.25, 0.75),
        (1, 1, 1, 0.625, 0.375),
    ]
    for horizon_index in range(4):
        assert var[horizon_index] == pytest.approx(_gray_oracle(table, 1, horizon_index), abs=1e-12)
    assert var[-1] == pytest.approx(0.15625, abs=1e-12)
    assert curve.skipped_terms == 1  # the n=1 terminal term


def test_gray_variance_leaves_the_curve_as_it_was():
    curve = _toy_curve()
    skipped = curve.skipped_terms
    before = copy.deepcopy(vars(curve))
    gray_variance(curve, CAUSE_EXECUTION)
    gray_variance(curve, CAUSE_CANCELLATION)
    curve.variance_at(CAUSE_EXECUTION, 2.5)
    curve.confidence_interval(CAUSE_CANCELLATION, 3.5)
    assert skipped == 1 and curve.skipped_terms == skipped
    after = vars(curve)
    assert after.keys() == before.keys()
    for name, value in before.items():
        if isinstance(value, dict):
            assert value.keys() == after[name].keys()
            assert all(np.array_equal(value[k], after[name][k]) for k in value)
        else:
            assert np.array_equal(value, after[name])


def test_gray_variance_no_deaths_is_zero():
    curve = aalen_johansen(obs((1.0, 0), (2.0, 0), (3.0, 0)))
    assert np.all(gray_variance(curve, CAUSE_EXECUTION) == 0.0)


def test_gray_variance_zero_before_first_death():
    curve = _toy_curve()
    assert curve.variance_at(CAUSE_EXECUTION, 0.5) == 0.0


def test_gray_variance_nonnegative_random():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(3, 40))
        observations = [
            Observation(float(t), int(c))
            for t, c in zip(rng.exponential(1, n), rng.integers(0, 3, n))
        ]
        if all(o.cause == 0 for o in observations):
            continue
        curve = aalen_johansen(observations)
        for cause in (CAUSE_EXECUTION, CAUSE_CANCELLATION):
            assert np.all(gray_variance(curve, cause) >= 0.0)


def test_gray_variance_prefix_sums_match_direct_loop():
    # the production path expands the squares into prefix sums; this re-codes
    # the three sums with explicit loops over larger random curves
    rng = np.random.default_rng(31)
    for trial in range(5):
        n_obs = 300
        observations = [
            Observation(float(t), int(c))
            for t, c in zip(
                np.round(rng.exponential(1, n_obs), 2) + 0.01, rng.integers(0, 3, n_obs)
            )
        ]
        curve = aalen_johansen(observations)
        fast = gray_variance(curve, CAUSE_EXECUTION)
        n = curve.at_risk
        d = curve.deaths[CAUSE_EXECUTION] + curve.deaths[CAUSE_CANCELLATION]
        di = curve.deaths[CAUSE_EXECUTION]
        fi = curve.cif[CAUSE_EXECUTION]
        s_prev = np.concatenate(([1.0], curve.survival[:-1]))
        slow = np.zeros(len(n))
        for j in range(len(n)):
            total = 0.0
            for k in range(j + 1):
                if n[k] <= 1:
                    continue
                mk = (n[k] - di[k]) / n[k]
                diff = fi[j] - fi[k]
                if n[k] - d[k] > 0:
                    total += diff**2 * d[k] / ((n[k] - 1) * (n[k] - d[k]))
                    total += -2 * diff * s_prev[k] * di[k] * mk / ((n[k] - d[k]) * (n[k] - 1))
                total += s_prev[k] ** 2 * di[k] * mk / ((n[k] - 1) * n[k])
            slow[j] = max(total, 0.0)
        np.testing.assert_allclose(fast, slow, atol=1e-12)


# ---------------------------------------------------------------------------
# Log-log confidence intervals
# ---------------------------------------------------------------------------


def test_loglog_zero_variance_point_interval():
    assert log_log_ci(0.4, 0.0, 0.05) == (0.4, 0.4)


def test_loglog_direct_formula_evaluation():
    # independent evaluation with q = 1.959964
    f, var = 0.5, 0.01
    c = 1.959964 * math.sqrt(var) / (f * math.log(f))
    lo = f ** math.exp(-c)
    hi = f ** math.exp(c)
    expected = (min(lo, hi), max(lo, hi))
    got = log_log_ci(f, var, 0.05)
    assert got[0] == pytest.approx(expected[0], abs=1e-7)
    assert got[1] == pytest.approx(expected[1], abs=1e-7)
    assert got[0] <= f <= got[1]


def test_loglog_bounds_stay_in_unit_interval():
    rng = np.random.default_rng(17)
    for _ in range(200):
        f = float(rng.uniform(1e-6, 1 - 1e-6))
        var = float(rng.uniform(0, 0.3))
        lo, hi = log_log_ci(f, var, 0.05)
        assert 0.0 <= lo <= f <= hi <= 1.0


def test_loglog_degenerate_values():
    assert log_log_ci(0.0, 0.1) == (0.0, 0.0)
    assert log_log_ci(1.0, 0.1) == (1.0, 1.0)


def _log_log_reference(f, var, alpha):
    """``f ** exp(+-c)`` with scipy's normal quantile, clipped to [0, 1]."""
    c = scipy.special.ndtri(1.0 - alpha / 2.0) * math.sqrt(var) / (f * math.log(f))
    lo, hi = sorted((f ** math.exp(-c), f ** math.exp(c)))
    return max(lo, 0.0), min(hi, 1.0)


@pytest.mark.parametrize("f, var, alpha", [(0.5, 0.01, 0.05), (0.2, 0.003, 0.1), (0.9, 0.001, 0.01), (0.05, 1e-4, 0.05)])
def test_loglog_against_scipy_quantile(f, var, alpha):
    lo, hi = log_log_ci(f, var, alpha)
    ref_lo, ref_hi = _log_log_reference(f, var, alpha)
    assert lo == pytest.approx(ref_lo, rel=1e-12)
    assert hi == pytest.approx(ref_hi, rel=1e-12)


# ---------------------------------------------------------------------------
# Post-and-wait
# ---------------------------------------------------------------------------


def test_post_and_wait_no_cancellations_matches_all_cause():
    observations = obs((0.5, 1), (1.5, 1), (2.0, 0))
    pw = post_and_wait_fill(observations)
    km = kaplan_meier(observations)
    np.testing.assert_allclose(pw.values, km.values, atol=1e-12)


def test_post_and_wait_all_cancelled_zero_fill():
    observations = obs((0.2, 2), (0.4, 2), (0.6, 2))
    pw = post_and_wait_fill(observations)
    assert fill_probability_at(pw, 1.0) == 0.0
    # shrinking risk set: censored counts recorded at each time
    assert pw.censored.sum() == 3


def test_post_and_wait_hand_product_limit():
    # exec@0.3 (n=5), cancel@0.5, exec@0.8 (n=3), censor@0.9, exec@1.2 (n=1)
    observations = obs((0.3, 1), (0.5, 2), (0.8, 1), (0.9, 0), (1.2, 1))
    pw = post_and_wait_fill(observations)
    # hand product-limit with cancellation treated as censoring:
    # S(1.0) = (1 - 1/5)(1 - 1/3) = 8/15
    assert pw.at(1.0) == pytest.approx(8 / 15)
    assert fill_probability_at(pw, 1.0) == pytest.approx(1 - 8 / 15)


# ---------------------------------------------------------------------------
# Conditional curves
# ---------------------------------------------------------------------------


def _record(delta, cause, time, order_id="x"):
    fv = FeatureVector(
        delta=delta,
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
        time_since_trade=0.0,
        median_trade_duration=0.0,
        volatility=0.0,
    )
    return OrderLifecycle(
        order_id=order_id,
        side=Side.BID,
        insert_ts=0,
        price=100,
        size=1.0,
        features=fv,
        outcome=Outcome(cause),
        outcome_time=time,
    )


def test_conditional_single_bucket_equals_unconditional():
    rng = np.random.default_rng(23)
    records = [
        _record(float(rng.integers(0, 5)), int(rng.integers(0, 3)), float(rng.exponential(1)))
        for _ in range(50)
    ]
    curves, report = conditional_curves(records, [("delta", [0.0, 10.0])], min_count=1)
    assert list(curves) == [(0,)]
    reference = aalen_johansen(
        [Observation(r.outcome_time, int(r.outcome)) for r in records]
    )
    np.testing.assert_allclose(curves[(0,)].cif[CAUSE_EXECUTION], reference.cif[CAUSE_EXECUTION])


def test_conditional_partition_property():
    rng = np.random.default_rng(29)
    records = [
        _record(float(rng.integers(0, 6)), int(rng.integers(0, 3)), float(rng.exponential(1)))
        for _ in range(80)
    ]
    curves, _ = conditional_curves(records, [("delta", [0.0, 3.0, 10.0])], min_count=1)
    lo = [r for r in records if 0 <= r.features.delta < 3]
    hi = [r for r in records if 3 <= r.features.delta < 10]
    for key, group in (((0,), lo), ((1,), hi)):
        reference = aalen_johansen([Observation(r.outcome_time, int(r.outcome)) for r in group])
        np.testing.assert_allclose(curves[key].cif[CAUSE_EXECUTION], reference.cif[CAUSE_EXECUTION])


def test_conditional_underpopulated_buckets_reported():
    records = [_record(0.0, 1, 1.0)] * 5 + [_record(5.0, 1, 1.0)] * 2
    curves, report = conditional_curves(records, [("delta", [0.0, 3.0, 10.0])], min_count=3)
    assert (0,) in curves
    assert report.omitted == {(1,): 2}
    assert report.outside == 0


def test_conditional_counts_records_outside_every_bucket():
    """Below the first edge, at or above the last, or outside either edge list of a 2-D grid."""
    records = [_record(d, 1, 1.0) for d in (-1.0, 0.0, 2.0, 3.0, 9.99, 10.0, 12.0)]
    curves, report = conditional_curves(records, [("delta", [0.0, 3.0, 10.0])], min_count=1)
    assert report.kept == {(0,): 2, (1,): 2} and report.omitted == {}
    assert report.outside == 3
    _, grid = conditional_curves(records, [("delta", [0.0, 3.0, 10.0]), ("spread", [0.0, 1.0])], min_count=1)
    assert grid.outside == len(records)  # every spread lies above the last spread edge
