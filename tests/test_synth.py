import math

import numpy as np
import pytest

from lobkit.messages import InstrumentConfig, MessageKind
from lobkit.replay import Outcome, track_lifecycles
from lobkit.survival import CAUSE_EXECUTION, conditional_curves
from lobkit.synth import (
    FLAT,
    GroundTruthConfig,
    PiecewiseMultiplier,
    RegimeSpec,
    generate_flow,
    true_fill_probability,
)


def _inst(**kw):
    defaults = dict(tick_size=0.01, horizon=1.0, depth_mode="bps", depth_value=50.0)
    defaults.update(kw)
    return InstrumentConfig(**defaults)


def test_fixed_seed_reproduces_stream_exactly():
    cfg = GroundTruthConfig(seed=7, censor_rate=0.05)
    a_msgs, a_truth = generate_flow(cfg, 20.0)
    b_msgs, b_truth = generate_flow(GroundTruthConfig(seed=7, censor_rate=0.05), 20.0)
    assert a_msgs == b_msgs
    assert a_truth == b_truth
    c_msgs, _ = generate_flow(GroundTruthConfig(seed=8, censor_rate=0.05), 20.0)
    assert c_msgs != a_msgs


def test_zero_cancellation_hazard_no_cancel_messages():
    cfg = GroundTruthConfig(
        seed=1,
        regimes=[RegimeSpec(duration=60.0, exec_base=1.0, cancel_base=0.0, move_rate=0.0, trade_rate=0.0)],
        noise_rate=0.0,
        subject_rate=5.0,
    )
    msgs, truth = generate_flow(cfg, 30.0)
    assert truth
    assert all(m.kind is not MessageKind.CANCEL for m in msgs)


def test_streams_replay_without_validity_errors():
    cfg = GroundTruthConfig(
        seed=3,
        censor_rate=0.1,
        subject_rate=8.0,
        delta_choices=(-2, -1, 0, 1, 2, 3, 4, 5),
        regimes=[
            RegimeSpec(duration=10.0, exec_base=1.2, cancel_base=2.0, move_rate=4.0, up_probability=0.7, spread=5),
            RegimeSpec(duration=10.0, exec_base=0.5, cancel_base=1.0, move_rate=4.0, up_probability=0.3, spread=3),
        ],
    )
    msgs, truth = generate_flow(cfg, 45.0)
    result = track_lifecycles(msgs, _inst())
    d = result.diagnostics
    assert d.crossed_rejected == 0
    assert d.unknown_rejected == 0
    assert d.invalid_rejected == 0
    assert d.gaps > 0
    tracked = {r.order_id for r in result.records}
    assert all(t.order_id in tracked for t in truth)


def test_mean_lifetime_matches_planted_rate():
    lam = 2.0
    cfg = GroundTruthConfig(
        seed=11,
        regimes=[RegimeSpec(duration=10_000.0, exec_base=lam, cancel_base=0.0, move_rate=0.0, trade_rate=0.0)],
        noise_rate=0.0,
        subject_rate=60.0,
        delta_choices=tuple(range(1, 37)),
    )
    msgs, truth = generate_flow(cfg, 260.0)
    result = track_lifecycles(msgs, _inst(depth_value=200.0))
    truth_ids = {t.order_id for t in truth}
    lifetimes = [
        r.outcome_time
        for r in result.records
        if r.order_id in truth_ids and r.outcome is Outcome.FILLED
    ]
    assert len(lifetimes) >= 9000
    assert np.mean(lifetimes) == pytest.approx(1 / lam, rel=0.02)


def test_true_fill_probability_closed_forms():
    cfg = GroundTruthConfig(seed=0, regimes=[RegimeSpec(duration=1.0, exec_base=2.0, cancel_base=1.0)])
    got = true_fill_probability(cfg, delta=1, spread=4, imbalance=0.0, horizon=1.0)
    assert got == pytest.approx((2 / 3) * (1 - math.exp(-3.0)))
    no_cancel = GroundTruthConfig(seed=0, regimes=[RegimeSpec(duration=1.0, exec_base=2.0, cancel_base=0.0)])
    assert true_fill_probability(no_cancel, 1, 4, 0.0, 1.0) == pytest.approx(1 - math.exp(-2.0))
    symmetric = GroundTruthConfig(seed=0, regimes=[RegimeSpec(duration=1.0, exec_base=1.0, cancel_base=1.0)])
    assert true_fill_probability(symmetric, 1, 4, 0.0, horizon=1e9) == pytest.approx(0.5)
    pw = true_fill_probability(cfg, 1, 4, 0.0, 1.0, mode="post_and_wait")
    assert pw == pytest.approx(1 - math.exp(-2.0))


def test_hazard_multipliers_clamp_outside_edges():
    mult = PiecewiseMultiplier((-np.inf, 1.0, 3.0, np.inf), (2.0, 1.0, 0.5))
    assert mult.at(-10) == 2.0
    assert mult.at(1.5) == 1.0
    assert mult.at(100) == 0.5
    assert FLAT.at(123.0) == 1.0


def test_estimates_track_sidecar_truth_per_delta_bucket():
    cfg = GroundTruthConfig(
        seed=21,
        regimes=[RegimeSpec(duration=10_000.0, exec_base=1.4, cancel_base=1.2, move_rate=1.0, trade_rate=3.0)],
        exec_delta_mult=PiecewiseMultiplier((-np.inf, 1, 2, 3, np.inf), (2.0, 1.4, 0.9, 0.5)),
        subject_rate=25.0,
        delta_choices=(0, 1, 2, 3, 4, 5),
    )
    msgs, truth = generate_flow(cfg, 420.0)
    result = track_lifecycles(msgs, _inst())
    truth_by_id = {t.order_id: t for t in truth}
    subjects = [r for r in result.records if r.order_id in truth_by_id]
    curves, _ = conditional_curves(subjects, [("delta", [0, 1, 2, 3, 6])], min_count=200)
    for key, curve in curves.items():
        group = [truth_by_id[r.order_id].cif_exec for r in subjects
                 if key == tuple(int(np.searchsorted([0, 1, 2, 3, 6], r.features.delta, side="right")) - 1 for _ in [0])]
        estimated = curve.incidence_at(CAUSE_EXECUTION, 1.0)
        assert estimated == pytest.approx(np.mean(group), abs=0.05)


def test_drift_sign_follows_regime():
    up = GroundTruthConfig(
        seed=31,
        regimes=[RegimeSpec(duration=10_000.0, exec_base=0.1, cancel_base=0.3, move_rate=6.0, up_probability=0.8)],
        subject_rate=0.5,
        delta_choices=(1, 2),
    )
    msgs, _ = generate_flow(up, 120.0)
    asks = [m.price for m in msgs if m.kind is MessageKind.ADD and m.order_id.startswith("w") and m.side.value == "ask"]
    assert asks[-1] - asks[0] > 100  # strong upward drift over two minutes


def test_piecewise_multiplier_matches_sorted_search_reference():
    """``at`` picks the last edge at or below x, clamped to the first and last values."""
    mult = PiecewiseMultiplier((-np.inf, 1, 2, 3.5, np.inf), (2.4, 1.6, 1.0, 0.6))
    bounded = PiecewiseMultiplier((0.0, 1.0, 2.0), (3.0, 5.0))
    for m in (mult, bounded, FLAT):
        for x in (-np.inf, -5, -0.0, 0.0, 0.5, 1, 1.0, 1.5, 2, 3.5, 3.49, 4, 1e9, np.inf, np.nan):
            idx = int(np.clip(np.searchsorted(m.edges, x, side="right") - 1, 0, len(m.values) - 1))
            assert m.at(x) == m.values[idx], (m, x)
