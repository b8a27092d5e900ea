import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobkit.messages import InstrumentConfig, MessageKind, write_messages
from lobkit.replay import Outcome, track_lifecycles
from lobkit.survival import CAUSE_EXECUTION, conditional_curves
from lobkit.synth import (
    FLAT,
    GroundTruthConfig,
    PiecewiseMultiplier,
    RegimeSpec,
    delta_draw,
    generate_flow,
    true_fill_probability,
    uniform_draw,
    write_truth,
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


WEIGHTS = st.one_of(st.just(0.0), st.floats(1e-3, 100.0))
RANGES = st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 1e3)).map(lambda pair: (pair[0], pair[0] + pair[1]))


@st.composite
def draw_plans(draw):
    choices = tuple(draw(st.lists(st.integers(-5, 40), min_size=1, max_size=8)))
    weights = draw(
        st.none() | st.lists(WEIGHTS, min_size=len(choices), max_size=len(choices)).filter(any).map(tuple)
    )
    steps = st.lists(st.sampled_from(("delta", "size", "exp", "depth")), min_size=100, max_size=300)
    return choices, weights, draw(RANGES), draw(steps)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), plan=draw_plans())
def test_direct_draws_equal_numpy_draws(seed, plan):
    """Twin generators stay in step: numpy's ``choice``/``uniform`` on one, the direct draws on the other."""
    choices, weights, (lo, hi), steps = plan
    ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    p = None if weights is None else np.asarray(weights) / np.sum(weights)
    delta, size = delta_draw(rng, choices, weights), uniform_draw(rng, lo, hi)
    for step in steps:
        if step == "delta":
            assert delta() == int(ref.choice(choices, p=p))
        elif step == "size":
            assert size() == float(ref.uniform(lo, hi))
        elif step == "exp":  # drawn through numpy on both sides, as synth does
            assert rng.exponential(0.7) == ref.exponential(0.7)
        else:
            assert rng.integers(6, 31) == ref.integers(6, 31)
    assert rng.random() == ref.random()


# sha256 of the messages CSV followed by the truth CSV of a 30 s stream, recorded with
# numpy 2.4.6 (a numpy release may change its Generator's streams) before synth drew
# without numpy's choice/uniform wrappers
STREAM_DIGESTS = {
    "default": (GroundTruthConfig(seed=11), "98eb629d08595270dfefd32c36f4275512639f615e395b66b75b5191d06f1a5a"),
    "weights_with_gaps": (
        GroundTruthConfig(seed=12, delta_weights=(3.0, 0.0, 1.0, 0.0, 0.5, 2.0)),
        "bc8edf7620373e89485f91a0139c5c21410489b1008b270b7b8014f67202bb3e",
    ),
    "noise_two_regimes": (
        GroundTruthConfig(
            seed=13,
            censor_rate=0.2,
            noise_rate=8.0,
            noise_depth_range=(3, 40),
            regimes=[
                RegimeSpec(duration=10.0, spread=3),
                RegimeSpec(duration=10.0, spread=6, trade_rate=6.0, up_probability=0.7),
            ],
        ),
        "2b5001f9fef183298b85488cca1303be734d353a5f00261bec1515d6a8d34fdb",
    ),
}


@pytest.mark.parametrize("name", STREAM_DIGESTS)
def test_short_streams_keep_their_recorded_bytes(tmp_path, name):
    config, digest = STREAM_DIGESTS[name]
    msgs, truth = generate_flow(config, 30.0)
    write_messages(tmp_path / "m.csv", msgs)
    write_truth(tmp_path / "t.csv", truth)
    data = (tmp_path / "m.csv").read_bytes() + (tmp_path / "t.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest, f"recorded with numpy 2.4.6, running {np.__version__}"


@pytest.mark.parametrize(
    ("overrides", "field"),
    [
        ({"delta_choices": ()}, "delta_choices"),
        ({"delta_weights": (1.0, 2.0)}, "delta_weights"),  # six choices
        ({"delta_weights": (1.0, -0.5, 1.0, 1.0, 1.0, 1.0)}, "delta_weights"),
        ({"delta_weights": (1.0, math.nan, 1.0, 1.0, 1.0, 1.0)}, "delta_weights"),
        ({"delta_weights": (1.0, math.inf, 1.0, 1.0, 1.0, 1.0)}, "delta_weights"),
        ({"delta_weights": (0.0,) * 6}, "delta_weights"),
        ({"size_range": (2.0, 0.5)}, "size_range"),
        ({"size_range": (0.5, math.inf)}, "size_range"),
        ({"size_range": (math.nan, 2.0)}, "size_range"),
        ({"trade_size_range": (1.6, 0.4)}, "trade_size_range"),
        ({"trade_size_range": (-math.inf, 1.6)}, "trade_size_range"),
        ({"noise_depth_range": (30, 6)}, "noise_depth_range"),
        ({"noise_depth_range": (6.5, 30)}, "noise_depth_range"),
    ],
)
def test_bad_draw_config_fails_at_start_naming_the_field(overrides, field):
    config = GroundTruthConfig(seed=1, noise_rate=0.0, subject_rate=0.0, **overrides)
    with pytest.raises(ValueError, match=f"^{field} "):
        generate_flow(config, 1.0)
