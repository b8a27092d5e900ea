import math
import warnings

import numpy as np
import pytest

from lobkit.features import FEATURE_COLUMNS, FeatureVector
from lobkit.placement import (
    FEE_TABLE,
    ZERO_FEES,
    ConditionViolated,
    FeePolicy,
    InadmissibleDistance,
    InsufficientBuckets,
    MarketSnapshot,
    NonpositiveDenominator,
    ToyModel,
    break_even_fill,
    candidate_matrix,
    decision_map,
    fit_toy_model,
    immediate_cost,
    latency_saved_cost,
    optimal_distance,
    point_mass_move,
    saved_cost,
)
from lobkit.placement import _check_quotes

# the practical example: best bid 19,999.50, one-dollar spread, clean-up 2.00 USD
EXAMPLE = MarketSnapshot(best_bid=19_999.50, best_ask=20_000.50, tick_size=0.01)
EXAMPLE_V_TICKS = 200.0


def _root_oracle(snapshot, delta, fees, v_ticks):
    """Independent break-even: bisection on the affine saved cost."""
    lo, hi = 0.0, 1.0
    f_lo = saved_cost(snapshot, delta, fees, lo, v_ticks)
    f_hi = saved_cost(snapshot, delta, fees, hi, v_ticks)
    assert f_lo < 0 < f_hi
    for _ in range(200):
        mid = (lo + hi) / 2
        if saved_cost(snapshot, delta, fees, mid, v_ticks) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_fee_table_levels():
    assert FEE_TABLE[1].taker == 0.006 and FEE_TABLE[1].maker == 0.004
    assert FEE_TABLE[9].taker == 0.0005 and FEE_TABLE[9].maker == 0.0
    for level in range(1, 9):
        assert FEE_TABLE[level].taker >= FEE_TABLE[level + 1].taker
        assert FEE_TABLE[level].taker >= FEE_TABLE[level].maker


@pytest.mark.parametrize("tick_size", [0.0, -0.01, math.nan])
def test_snapshot_tick_size_must_be_positive(tick_size):
    with pytest.raises(ValueError, match=f"tick_size must be positive, got {tick_size}"):
        MarketSnapshot(best_bid=100.00, best_ask=100.02, tick_size=tick_size)


def test_immediate_cost_zero_fee_half_spread():
    snap = MarketSnapshot(best_bid=100.00, best_ask=100.02, tick_size=0.01)
    assert immediate_cost(snap, ZERO_FEES) == pytest.approx(0.01)


def test_immediate_cost_worked_example():
    cost = immediate_cost(EXAMPLE, FEE_TABLE[9])
    assert cost == pytest.approx(1.0005 * 20_000.50 - 20_000.00, abs=1e-9)


def test_saved_cost_full_fill_zero_fees_saves_spread():
    snap = MarketSnapshot(best_bid=100.00, best_ask=100.04, tick_size=0.01)
    assert saved_cost(snap, 0, ZERO_FEES, 1.0, 50.0) == pytest.approx(0.04)


def test_saved_cost_no_fill_pays_cleanup():
    s = saved_cost(EXAMPLE, 0, FEE_TABLE[9], 0.0, EXAMPLE_V_TICKS)
    assert s == pytest.approx(-1.0005 * 0.01 * 200.0)


def test_saved_cost_worked_example_affine_form():
    fees = FEE_TABLE[9]
    for f in (0.0, 0.25, 0.5, 0.75, 1.0):
        expected = f * 11.00025 - (1 - f) * 2.001
        assert saved_cost(EXAMPLE, 0, fees, f, EXAMPLE_V_TICKS) == pytest.approx(expected, abs=1e-9)


def test_inadmissible_distance_rejected():
    with pytest.raises(InadmissibleDistance):
        saved_cost(EXAMPLE, -EXAMPLE.spread_ticks, FEE_TABLE[9], 0.5, 10.0)


def _scalar_rejection(best_bid, best_ask, tick_size, delta):
    """The exception type ``MarketSnapshot`` and ``saved_cost`` raise, or None."""
    try:
        saved_cost(MarketSnapshot(best_bid, best_ask, tick_size), delta, ZERO_FEES, 0.5, 0.0)
    except ValueError as exc:
        return type(exc)
    return None


SPREAD_OFFSETS = [0.0, 5e-7, -5e-7, 1e-6, 2e-6, -2e-6, 0.5, 1.5, 2.5, math.nan]  # the scalar raises OverflowError on inf


@pytest.mark.parametrize("tick_size", [0.01, 0.5, 1.0])
@pytest.mark.parametrize("offset", SPREAD_OFFSETS)
def test_array_quote_check_rejects_what_the_scalar_path_rejects(tick_size, offset):
    """``_check_quotes`` and the scalar snapshot and distance rules raise the same type on each entry."""
    cases = [
        (bid, (bid + spread + offset) * tick_size, delta)
        for bid in (0, 7, 12_345)
        for spread in (-1, 0, 1, 2, 5)
        for delta in (-6, -5, -2, -1, 0, 1, 3, 1.5)
    ]
    for bid, ask, delta in cases:
        expected = _scalar_rejection(bid * tick_size, ask, tick_size, delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                _check_quotes(
                    np.array([5.0, bid]) * tick_size, np.array([7.0 * tick_size, ask]), tick_size,
                    np.array([0.0, delta]), lambda i: f"entry {i}",
                )
            except ValueError as exc:
                assert type(exc) is expected and str(exc).startswith("entry 1: ")
            else:
                assert expected is None


def test_break_even_matches_independent_root():
    for level in (1, 9):
        fees = FEE_TABLE[level]
        got = break_even_fill(EXAMPLE, 0, fees, EXAMPLE_V_TICKS)
        oracle = _root_oracle(EXAMPLE, 0, fees, EXAMPLE_V_TICKS)
        assert got == pytest.approx(oracle, abs=1e-6)
        assert abs(saved_cost(EXAMPLE, 0, fees, got, EXAMPLE_V_TICKS)) <= 1e-12


def test_break_even_worked_example_values():
    # independent hand arithmetic of the affine root:
    # level 1: 2.012 / (41.005 + 2.012); level 9: 2.001 / (11.00025 + 2.001)
    assert break_even_fill(EXAMPLE, 0, FEE_TABLE[1], EXAMPLE_V_TICKS) == pytest.approx(
        2.012 / 43.017, abs=1e-12
    )
    assert break_even_fill(EXAMPLE, 0, FEE_TABLE[9], EXAMPLE_V_TICKS) == pytest.approx(
        2.001 / 13.00125, abs=1e-12
    )
    assert break_even_fill(EXAMPLE, 0, FEE_TABLE[1], EXAMPLE_V_TICKS) == pytest.approx(0.04677, abs=5e-5)
    assert break_even_fill(EXAMPLE, 0, FEE_TABLE[9], EXAMPLE_V_TICKS) == pytest.approx(0.15392, abs=2e-5)


def test_break_even_zero_cleanup_is_zero():
    assert break_even_fill(EXAMPLE, 0, FEE_TABLE[9], 0.0) == 0.0


def test_break_even_nonpositive_denominator():
    # deep negative clean-up makes posting dominate; the root is undefined
    snap = MarketSnapshot(best_bid=100.00, best_ask=100.02, tick_size=0.01)
    with pytest.raises(NonpositiveDenominator):
        break_even_fill(snap, 1, ZERO_FEES, -1000.0)


def test_saved_cost_affine_increasing_when_gain_positive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        spread = int(rng.integers(1, 30))
        bid = float(rng.integers(5_000, 50_000))
        snap = MarketSnapshot(best_bid=bid, best_ask=bid + spread * 0.01, tick_size=0.01)
        level = int(rng.integers(1, 10))
        delta = int(rng.integers(-spread + 1, 3 * spread))
        v = float(rng.uniform(0, 300))
        fees = FEE_TABLE[level]
        f_grid = np.linspace(0, 1, 7)
        costs = [saved_cost(snap, delta, fees, f, v) for f in f_grid]
        diffs = np.diff(costs)
        assert np.allclose(diffs, diffs[0], atol=1e-9)  # affine
        gain = fees.f_minus * snap.best_ask - fees.f_plus * (snap.best_bid - 0.01 * delta)
        if gain + fees.f_minus * 0.01 * v > 0:
            assert diffs[0] > 0


# ---------------------------------------------------------------------------
# Toy model
# ---------------------------------------------------------------------------


def test_toy_model_closed_form_examples():
    model = ToyModel(amplitude=0.9, decay=0.2, cleanup=2.0)
    assert model.interior_condition  # 0.2 * 3 = 0.6 <= 1
    assert model.optimal_distance() == pytest.approx(3.0)
    zero_v = ToyModel(amplitude=0.7, decay=1.0, cleanup=0.0)
    assert zero_v.optimal_distance() == pytest.approx(1.0)
    assert zero_v.optimal_saved_cost() == pytest.approx(0.7 / math.e)


def test_toy_model_peak_value_formula():
    model = ToyModel(amplitude=0.8, decay=0.25, cleanup=1.5)
    d_star = model.optimal_distance()
    expected = (0.8 / 0.25) * math.exp(0.25 * 1.5 - 1.0) - 1.5
    assert model.optimal_saved_cost() == pytest.approx(expected)
    assert model.saved_cost(d_star) == pytest.approx(expected)


def test_toy_model_grid_argmax_matches_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = float(rng.uniform(0.05, 0.9))
        v_max = max(0.0, 1.0 / k - 1.0)
        v = float(rng.uniform(0.0, v_max))
        a = float(rng.uniform(0.1, 1.0))
        model = ToyModel(a, k, v)
        grid = np.arange(1.0, 1.0 / k - v + 25.0, 1e-3)
        argmax = grid[int(np.argmax(model.saved_cost(grid)))]
        assert abs(argmax - model.optimal_distance()) <= 1e-3


def test_toy_model_condition_violated():
    model = ToyModel(amplitude=0.5, decay=0.9, cleanup=2.0)  # k (1 + V) = 2.7 > 1
    with pytest.raises(ConditionViolated):
        model.optimal_distance()


def test_fit_toy_model_recovers_planted_parameters():
    a_true, k_true = 0.85, 0.3
    distances = np.arange(1, 15)
    probs = a_true * np.exp(-k_true * distances)
    model, flat = fit_toy_model(distances, probs, cleanup=1.0)
    assert not flat
    assert model.amplitude == pytest.approx(a_true, rel=0.05)
    assert model.decay == pytest.approx(k_true, rel=0.05)


def test_fit_toy_model_flat_flagged():
    model, flat = fit_toy_model([1, 2, 3, 4], [0.4, 0.4, 0.4, 0.4], cleanup=1.0)
    assert flat


def test_fit_toy_model_needs_three_buckets():
    with pytest.raises(InsufficientBuckets):
        fit_toy_model([1, 2], [0.5, 0.3], cleanup=1.0)


# ---------------------------------------------------------------------------
# Optimal distance sweep
# ---------------------------------------------------------------------------


class _ConstantModel:
    def __init__(self, value):
        self.value = value

    def predict(self, X):
        return np.full(len(X), self.value)


class _ToyFillModel:
    def __init__(self, toy, spread):
        self.toy = toy
        self.spread = spread

    def predict(self, X):
        deltas = X[:, FEATURE_COLUMNS.index("delta")]
        return np.array([min(1.0, self.toy.fill_probability(self.spread + d)) for d in deltas])


def _snapshot(spread=10, bid=10_000):
    fv = FeatureVector(
        delta=1.0,
        spread=float(spread),
        spread_after=float(spread),
        best_imbalance=0.0,
        add_imbalance=0.0,
        aggressiveness=None,
        prior_volume=3.0,
        size=1.0,
        signed_flow=0.0,
        flow_imbalance=0.0,
        signed_traded=0.0,
        traded_imbalance=0.0,
        time_since_trade=0.1,
        median_trade_duration=0.1,
        volatility=1.0,
    )
    return MarketSnapshot(
        best_bid=bid * 0.01, best_ask=(bid + spread) * 0.01, tick_size=0.01, features=fv
    )


def test_constant_models_prefer_largest_distance():
    snap = _snapshot(spread=6)
    fees = FeePolicy(0, 0.001, 0.0)  # zero maker fee
    decision = optimal_distance(snap, 1.0, fees, _ConstantModel(0.6), _ConstantModel(1.0), (-5, 12))
    assert decision.action == "limit"
    assert decision.distance == 12  # saved cost increases in the distance


def test_all_negative_costs_choose_market():
    snap = _snapshot(spread=2)
    decision = optimal_distance(
        snap, 1.0, FEE_TABLE[9], _ConstantModel(0.0), _ConstantModel(500.0), (-1, 5)
    )
    assert decision.action == "market"
    assert decision.saved_cost <= 0
    assert decision.distance is None


def test_grid_argmax_tracks_toy_model():
    spread = 12
    snap = _snapshot(spread=spread)
    toy = ToyModel(amplitude=0.95, decay=0.12, cleanup=2.0)
    fill = _ToyFillModel(toy, spread)
    cleanup = _ConstantModel(2.0)
    decision = optimal_distance(snap, 1.0, ZERO_FEES, fill, cleanup, (-spread + 1, 40))
    # unit fee factors and clean-up in ticks reproduce the toy cost, so the
    # integer sweep must land within one tick of the continuous maximizer
    continuous = toy.optimal_distance() - spread  # convert ask distance to bid distance
    assert abs(decision.distance - continuous) <= 1.0


def test_distance_sweep_updates_delta_dependent_features():
    snap = _snapshot(spread=8)
    X = candidate_matrix(snap, 2.5, np.array([-3, 0, 4]))
    z, at_best, z2 = (dict(zip(FEATURE_COLUMNS, row)) for row in X)
    assert z["delta"] == -3.0
    assert z["spread"] == 8.0
    assert z["spread_after"] == 5.0
    assert z["aggressiveness"] == pytest.approx(-3 / (1 - 8))
    assert z["prior_volume"] == 0.0
    assert z["size"] == 2.5
    assert (z["is_at_best"], z["is_aggressive"]) == (0.0, 1.0)
    assert (at_best["is_at_best"], at_best["is_aggressive"], at_best["aggressiveness"]) == (1.0, 0.0, 0.0)
    assert z2["aggressiveness"] == 0.0
    assert z2["prior_volume"] == 3.0  # frozen book state for passive candidates
    assert z2["spread_after"] == 8.0
    assert z2["volatility"] == snap.features.volatility  # book-level columns are the snapshot's
    # at a one-tick spread no candidate is inside the spread, and the masked division stays silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X = candidate_matrix(_snapshot(spread=1), 1.0, np.arange(0, 5))
    assert np.all(X[:, FEATURE_COLUMNS.index("aggressiveness")] == 0.0)
    assert np.all(X[:, FEATURE_COLUMNS.index("spread_after")] == 1.0)


def test_empty_distance_range_is_inadmissible():
    snap = _snapshot(spread=4)
    with pytest.raises(InadmissibleDistance, match=r"\(5, 3\)"):
        optimal_distance(snap, 1.0, FEE_TABLE[9], _ConstantModel(0.5), _ConstantModel(1.0), (5, 3))


@pytest.mark.parametrize(
    ("fill", "cleanup", "message"),
    [
        (0.5, math.nan, "clean-up cost must be finite"),
        (0.5, math.inf, "clean-up cost must be finite"),
        (math.nan, 1.0, r"fill probability must be in \[0, 1\]"),
        (-0.1, 1.0, r"fill probability must be in \[0, 1\]"),
        (1.5, 1.0, r"fill probability must be in \[0, 1\]"),
    ],
)
def test_invalid_predictions_are_rejected(fill, cleanup, message):
    with pytest.raises(ValueError, match=message):
        optimal_distance(_snapshot(spread=4), 1.0, FEE_TABLE[9], _ConstantModel(fill), _ConstantModel(cleanup), (-3, 5))


# ---------------------------------------------------------------------------
# Latency correction
# ---------------------------------------------------------------------------


def test_latency_degenerates_to_saved_cost():
    rng = np.random.default_rng(2)
    for _ in range(30):
        spread = int(rng.integers(2, 40))
        bid = float(rng.integers(1_000, 30_000))
        snap = MarketSnapshot(best_bid=bid * 0.01, best_ask=(bid + spread) * 0.01, tick_size=0.01)
        delta = int(rng.integers(-spread + 1, 2 * spread))
        f = float(rng.uniform(0, 1))
        v = float(rng.uniform(-5, 50))
        fees = FEE_TABLE[int(rng.integers(1, 10))]
        s = saved_cost(snap, delta, fees, f, v)
        cdf, tail = point_mass_move(-(spread + delta) - 1, 0.0)  # zero-probability mass
        s_ell = latency_saved_cost(snap, delta, fees, f, v, cdf, tail, 1e-3, 1.0)
        assert s_ell == s


def test_latency_point_mass_direct_substitution():
    spread, delta, rho = 7, 2, 0.35
    snap = MarketSnapshot(best_bid=100.00, best_ask=100.07, tick_size=0.01)
    fees = FEE_TABLE[9]
    f, v = 0.4, 3.0
    s = saved_cost(snap, delta, fees, f, v)
    cdf, tail = point_mass_move(-(spread + delta + 1), rho)
    got = latency_saved_cost(snap, delta, fees, f, v, cdf, tail, 1e-3, 1.0)
    expected = (1 - rho) * s + rho * fees.f_minus * (spread + delta + 1) * 0.01
    assert got == pytest.approx(expected, abs=1e-12)


def test_latency_deep_posting_correction_vanishes():
    snap = MarketSnapshot(best_bid=100.00, best_ask=100.03, tick_size=0.01)
    cdf, tail = point_mass_move(-2.0, 0.25)  # ask never improves by 40 ticks
    s = saved_cost(snap, 37, FEE_TABLE[9], 0.2, 1.0)
    assert latency_saved_cost(snap, 37, FEE_TABLE[9], 0.2, 1.0, cdf, tail, 1e-3, 1.0) == s


def test_latency_ratio_guard():
    snap = MarketSnapshot(best_bid=100.00, best_ask=100.03, tick_size=0.01)
    cdf, tail = point_mass_move(-5, 0.1)
    from lobkit.placement import LatencyTooLarge

    with pytest.raises(LatencyTooLarge):
        latency_saved_cost(snap, 1, FEE_TABLE[9], 0.5, 1.0, cdf, tail, 0.5, 1.0)


# ---------------------------------------------------------------------------
# Decision map
# ---------------------------------------------------------------------------


def test_decision_map_flips_exactly_at_break_even():
    cells = decision_map(EXAMPLE, EXAMPLE_V_TICKS, fill_grid=(0.02, 0.2, 1.0))
    by_key = {(c["level"], c["fill_probability"]): c for c in cells}
    assert by_key[(9, 0.2)]["action"] == "limit"  # 0.2 > 0.1539
    assert by_key[(1, 0.02)]["action"] == "market"  # 0.02 < 0.0468
    for level in range(1, 10):
        assert by_key[(level, 1.0)]["action"] == "limit"
        boundary = by_key[(level, 0.2)]["break_even"]
        eps = 1e-9
        assert saved_cost(EXAMPLE, 0, FEE_TABLE[level], boundary + eps, EXAMPLE_V_TICKS) > 0
        assert saved_cost(EXAMPLE, 0, FEE_TABLE[level], boundary - eps, EXAMPLE_V_TICKS) < 0


def test_decision_map_boundary_monotone_in_level():
    # each level's break-even computed independently, then compared; levels
    # 3..6 share the same taker-maker gap, so their boundaries coincide to
    # ~1e-4 with tiny reversals from the taker factor scaling the clean-up
    # term, and the trend is monotone only at that resolution
    boundaries = [break_even_fill(EXAMPLE, 0, FEE_TABLE[lv], EXAMPLE_V_TICKS) for lv in range(1, 10)]
    assert all(b >= a - 1e-4 for a, b in zip(boundaries, boundaries[1:]))
    assert boundaries[0] < boundaries[1] < boundaries[2]
    assert boundaries[5] < boundaries[6] < boundaries[7] < boundaries[8]
