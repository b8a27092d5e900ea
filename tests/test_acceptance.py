"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line; tolerances are fixed here and match the
statements they verify.
"""

import filecmp
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from lobkit.backtest import (
    MODEL_I,
    MODEL_II,
    MODEL_III,
    EligibilityConfig,
    fit_router_models,
    record_columns,
    run_backtest,
    select_eligible,
)
from lobkit.cleanup import bucket_estimate, collect_cleanup_samples, samples_to_matrix, train_cleanup_model
from lobkit.cli import main as cli_main
from lobkit.features import FEATURE_COLUMNS
from lobkit.fill_model import build_training_matrix, ipcw_weights, stratified_censoring_survival, train_fill_model
from lobkit.messages import InstrumentConfig
from lobkit.mlp import MLP, TrainConfig, gradient_check
from lobkit.placement import (
    FEE_TABLE,
    MarketSnapshot,
    ToyModel,
    break_even_fill,
    decision_map,
    latency_saved_cost,
    point_mass_move,
    saved_cost,
)
from lobkit.replay import Outcome, track_lifecycles
from lobkit.survival import (
    CAUSE_EXECUTION,
    Observation,
    aalen_johansen,
    conditional_curves,
    fill_probability_at,
    kaplan_meier,
    post_and_wait_fill,
)
from lobkit.synth import GroundTruthConfig, PiecewiseMultiplier, RegimeSpec, generate_flow

from test_fill_model import _record as make_record  # shared lifecycle factory


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:>2} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {num:>2} PASS  {description}")


# ---------------------------------------------------------------------------
# 1. Kaplan-Meier consistency
# ---------------------------------------------------------------------------


def test_criterion_1_km_consistency():
    with criterion(1, "KM sup-error <= 0.02 on exponential lifetimes, N=10,000, < 5 s"):
        start = time.monotonic()
        rng = np.random.default_rng(12345)
        n = 10_000
        lifetimes = rng.exponential(1.0, n)
        censoring = rng.exponential(1.0 / 0.5, n)
        obs = [Observation(min(l, c), 1 if l <= c else 0) for l, c in zip(lifetimes, censoring)]
        curve = kaplan_meier(obs)
        mask = curve.times <= 3.0
        times = curve.times[mask]
        post = curve.values[mask]
        pre = np.concatenate(([1.0], post[:-1]))
        target = np.exp(-times)
        sup = max(
            float(np.max(np.abs(pre - target))),
            float(np.max(np.abs(post - target))),
            abs(curve.at(3.0) - math.exp(-3.0)),
        )
        elapsed = time.monotonic() - start
        assert sup <= 0.02, f"sup error {sup:.4f}"
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# 2. Aalen-Johansen consistency and identity
# ---------------------------------------------------------------------------


def test_criterion_2_aj_consistency():
    with criterion(2, "AJ F1(1) within 0.02 of closed form; F1+F2+S identity exact"):
        rng = np.random.default_rng(2024)
        n = 10_000
        lam1, lam2 = 2.0, 1.0
        t1 = rng.exponential(1 / lam1, n)
        t2 = rng.exponential(1 / lam2, n)
        obs = [Observation(min(a, b), 1 if a <= b else 2) for a, b in zip(t1, t2)]
        curve = aalen_johansen(obs)
        truth = lam1 / (lam1 + lam2) * (1 - math.exp(-(lam1 + lam2)))
        assert abs(curve.incidence_at(CAUSE_EXECUTION, 1.0) - truth) <= 0.02
        identity = curve.cif[1] + curve.cif[2] + curve.survival
        assert float(np.max(np.abs(identity - 1.0))) <= 1e-9


# ---------------------------------------------------------------------------
# 3. IPCW / Kaplan-Meier equivalence
# ---------------------------------------------------------------------------


def test_criterion_3_ipcw_km_equivalence():
    with criterion(3, "IPC-weighted execution frequency == 1 - S_pw(T) to 1e-9, 1000 seeds"):
        horizon = 1.005
        worst = 0.0
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 21))
            records = []
            for i in range(n):
                t = float(max(0.05, np.round(rng.exponential(0.8) * 4) / 4 + 0.05))
                outcome = Outcome(int(rng.choice([0, 1, 2], p=[0.2, 0.4, 0.4])))
                records.append(make_record(t, outcome, oid=f"r{i}"))
            # every stratum reads the one pooled censoring curve
            res = ipcw_weights(records, horizon, stratified_censoring_survival(records, min_count=math.inf))
            ipcw_fill = float(np.sum(res.weights * res.labels)) / n
            obs = [Observation(r.outcome_time, int(r.outcome)) for r in records]
            km_fill = fill_probability_at(post_and_wait_fill(obs), horizon)
            worst = max(worst, abs(ipcw_fill - km_fill))
        assert worst <= 1e-9, f"worst gap {worst:.2e}"


# ---------------------------------------------------------------------------
# 4. Gradient checks
# ---------------------------------------------------------------------------


def test_criterion_4_gradient_checks():
    with criterion(4, "fill and clean-up backprop vs central differences <= 1e-4, 100 draws each"):
        worst = 0.0
        for head, target_fn in (("sigmoid", lambda X, r: (X[:, 0] > 0).astype(float)),
                                ("identity", lambda X, r: X[:, 1] * 2.0 - X[:, 0])):
            for draw in range(10):
                rng = np.random.default_rng(100 + draw)
                X = rng.normal(size=(48, len(FEATURE_COLUMNS)))
                y = target_fn(X, rng)
                w = rng.uniform(0.5, 2.0, 48)
                model = MLP([X.shape[1], 32, 32, 32, 1], output=head, seed=draw)
                model.fit_standardization(X)
                worst = max(worst, gradient_check(model, X, y, w, n_checks=10, seed=draw))
        assert worst <= 1e-4, f"max relative error {worst:.2e}"


# ---------------------------------------------------------------------------
# 5. Toy-model closed form
# ---------------------------------------------------------------------------


def test_criterion_5_toy_model_grid_matches_closed_form():
    with criterion(5, "grid argmax of the exponential cost matches 1/k - V to 1e-3, 50 draws"):
        rng = np.random.default_rng(55)
        for _ in range(50):
            k = float(rng.uniform(0.05, 0.95))
            v = float(rng.uniform(0.0, max(0.0, 1.0 / k - 1.0)))
            a = float(rng.uniform(0.05, 1.0))
            model = ToyModel(a, k, v)
            assert model.decay * (1 + model.cleanup) <= 1.0 + 1e-12
            d_star = model.optimal_distance()
            grid = np.arange(1.0, d_star + 30.0, 1e-3)
            argmax = float(grid[int(np.argmax(model.saved_cost(grid)))])
            assert abs(argmax - d_star) <= 1e-3


# ---------------------------------------------------------------------------
# 6. Worked fee example
# ---------------------------------------------------------------------------


def _bisect_break_even(snapshot, delta, fees, v_ticks):
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if saved_cost(snapshot, delta, fees, mid, v_ticks) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_criterion_6_worked_fee_example():
    with criterion(6, "break-even fills at levels 1 and 9 match hand arithmetic to 1e-6; map flips there"):
        snapshot = MarketSnapshot(best_bid=19_999.50, best_ask=20_000.50, tick_size=0.01)
        v_ticks = 200.0  # clean-up cost of 2.00 USD
        anchors = {1: 0.04677, 9: 0.15392}
        for level, anchor in anchors.items():
            fees = FEE_TABLE[level]
            got = break_even_fill(snapshot, 0, fees, v_ticks)
            oracle = _bisect_break_even(snapshot, 0, fees, v_ticks)
            assert abs(got - oracle) <= 1e-6
            assert abs(saved_cost(snapshot, 0, fees, got, v_ticks)) <= 1e-12
            assert abs(got - anchor) <= 2e-5 if level == 9 else abs(got - anchor) <= 5e-5
            eps = 1e-9
            cells = decision_map(snapshot, v_ticks, fill_grid=(got - eps, got + eps), levels=(level,))
            below, above = cells[0], cells[1]
            assert below["action"] == "market" and above["action"] == "limit"
            assert abs(below["break_even"] - got) <= 1e-12


# ---------------------------------------------------------------------------
# 7. Estimated-probability monotonicity in distance
# ---------------------------------------------------------------------------


def test_criterion_7_fill_probability_monotone_in_distance():
    with criterion(7, "conditional fill probability non-increasing across distance buckets"):
        cfg = GroundTruthConfig(
            seed=42,
            regimes=[RegimeSpec(duration=10_000.0, exec_base=1.6, cancel_base=1.0, move_rate=2.0, trade_rate=4.0)],
            exec_delta_mult=PiecewiseMultiplier(
                (-np.inf, 1, 2, 3, 4, 5, np.inf), (2.2, 1.5, 1.0, 0.65, 0.4, 0.25)
            ),
            subject_rate=16.0,
            delta_choices=(0, 1, 2, 3, 4, 5),
            horizon=1.0,
        )
        msgs, truth = generate_flow(cfg, 320.0)
        inst = InstrumentConfig(tick_size=0.01, horizon=1.0, depth_mode="bps", depth_value=40.0)
        result = track_lifecycles(msgs, inst)
        truth_ids = {t.order_id for t in truth}
        subjects = [r for r in result.records if r.order_id in truth_ids]
        curves, report = conditional_curves(subjects, [("delta", [0, 1, 2, 3, 4, 5, 6])], min_count=200)
        assert len(curves) == 6, f"buckets kept: {report.kept}"
        probs, ses = [], []
        for key in sorted(curves):
            c = curves[key]
            probs.append(c.incidence_at(CAUSE_EXECUTION, 1.0))
            ses.append(math.sqrt(c.variance_at(CAUSE_EXECUTION, 1.0)))
        inversions = 0
        for i in range(len(probs) - 1):
            if probs[i + 1] > probs[i]:
                inversions += 1
                combined = 2.0 * math.sqrt(ses[i] ** 2 + ses[i + 1] ** 2)
                assert probs[i + 1] - probs[i] <= combined, "inversion beyond 2 SE"
        assert inversions <= 1, f"{inversions} inversions"


# ---------------------------------------------------------------------------
# 8. Clean-up null and drift recovery
# ---------------------------------------------------------------------------


def _cleanup_run(seed: int, up_probability: float):
    move_rate = 5.0
    cfg = GroundTruthConfig(
        seed=seed,
        regimes=[
            RegimeSpec(
                duration=10_000.0,
                exec_base=0.15,
                cancel_base=0.25,
                move_rate=move_rate,
                up_probability=up_probability,
                trade_rate=2.0,
                spread=10,
            )
        ],
        subject_rate=0.9,  # sparse arrivals keep measurement windows disjoint
        delta_choices=(1, 2, 3, 4),
        noise_rate=0.0,
        horizon=1.0,
    )
    msgs, truth = generate_flow(cfg, 2400.0)
    inst = InstrumentConfig(tick_size=0.01, horizon=1.0, depth_mode="bps", depth_value=60.0)
    result = track_lifecycles(msgs, inst)
    truth_ids = {t.order_id for t in truth}
    subjects = [r for r in result.records if r.order_id in truth_ids]
    samples, _ = collect_cleanup_samples(subjects, 1.0)
    curve = bucket_estimate(
        [s.features.delta for s in samples],
        [s.dp_ask_horizon for s in samples],
        edges=[0.5, 2.5, 4.5],
        min_count=50,
    )
    drift = move_rate * (2.0 * up_probability - 1.0)
    return curve, drift


def test_criterion_8_cleanup_null_and_drift():
    with criterion(8, "bucketed clean-up within 2 SE of 0 (driftless) and of mu*T (drifted)"):
        null_curve, _ = _cleanup_run(22, up_probability=0.5)
        for mean, se in zip(null_curve.means, null_curve.std_errors):
            assert abs(mean) <= 2 * se, f"null bucket {mean:.3f} vs 2SE {2 * se:.3f}"
        drift_curve, mu = _cleanup_run(522, up_probability=0.8)
        for mean, se in zip(drift_curve.means, drift_curve.std_errors):
            assert abs(mean - mu) <= 2 * se, f"drift bucket {mean:.3f} vs {mu} +- {2 * se:.3f}"


# ---------------------------------------------------------------------------
# 9. Backtest model ordering
# ---------------------------------------------------------------------------

HORIZON = 1.0
TICK = 0.01


def _planted_regime_config(seed: int, start_ts: int) -> GroundTruthConfig:
    # A: adverse (rare fills, strong up-drift), B: favorable (busy fills,
    # down-drift), D: trap (middling fills, strong up-drift) where only a
    # state-dependent clean-up cost routes to the market order
    regimes = [
        RegimeSpec(duration=7.0, exec_base=0.10, cancel_base=0.35, move_rate=11.0,
                   up_probability=0.955, trade_rate=2.0, taker_buy_fraction=0.9, spread=6),
        RegimeSpec(duration=20.0, exec_base=0.85, cancel_base=0.35, move_rate=12.5,
                   up_probability=0.02, trade_rate=6.0, taker_buy_fraction=0.1, spread=6),
        RegimeSpec(duration=7.0, exec_base=0.32, cancel_base=0.35, move_rate=13.0,
                   up_probability=1.0, trade_rate=12.0, taker_buy_fraction=0.85, spread=6),
    ]
    return GroundTruthConfig(
        seed=seed,
        regimes=regimes,
        subject_rate=14.0,
        delta_choices=(0, 1, 2, 3, 4),
        delta_weights=(4, 4, 3, 2, 1),
        size_range=(0.5, 2.0),
        exec_delta_mult=PiecewiseMultiplier((-np.inf, 1, 2, 3, np.inf), (1.3, 1.1, 0.9, 0.7)),
        censor_rate=0.01,
        noise_rate=2.0,
        trade_size_range=(0.4, 1.6),
        wall_size=12.0,
        initial_bid=5_000,
        horizon=HORIZON,
        start_ts=start_ts,
    )


def _ordering_pipeline(seed: int):
    inst = InstrumentConfig(tick_size=TICK, horizon=HORIZON, depth_mode="bps", depth_value=30.0, trade_window=30)
    train_msgs, train_truth = generate_flow(_planted_regime_config(seed, 1_700_000_000_000_000_000), 240.0)
    test_msgs, test_truth = generate_flow(_planted_regime_config(seed + 1000, 1_700_001_000_000_000_000), 240.0)
    train_ids = {t.order_id for t in train_truth}
    test_ids = {t.order_id for t in test_truth}
    train_res = track_lifecycles(train_msgs, inst)
    test_res = track_lifecycles(test_msgs, inst)
    train_records = [r for r in train_res.records if r.order_id in train_ids]
    test_records = [r for r in test_res.records if r.order_id in test_ids]

    censoring = stratified_censoring_survival(train_records)
    X, y, w, kept, _ = build_training_matrix(train_records, HORIZON, censoring)
    span = (min(r.insert_ts for r in kept), max(r.insert_ts for r in kept))
    fill = train_fill_model(
        X, y, w, TrainConfig(lr=5e-3, batch=256, epochs=60, seed=seed, patience=8),
        horizon=HORIZON, trained_span=span,
    )
    samples, _ = collect_cleanup_samples(kept, HORIZON)
    Xc, targets = samples_to_matrix(samples)
    cleanup = train_cleanup_model(
        Xc, targets, TrainConfig(lr=5e-3, batch=256, epochs=60, seed=seed, patience=8), horizon=HORIZON
    )
    models, _ = fit_router_models(*record_columns(kept), fill, cleanup, HORIZON)
    eligible = select_eligible(
        test_records, HORIZON, test_res.diagnostics.average_trade_size,
        EligibilityConfig(max_size_ats_multiple=5.0),
    )
    return run_backtest(eligible, [MODEL_I, MODEL_II, MODEL_III], models, FEE_TABLE[9], HORIZON, TICK)


def test_criterion_9_backtest_model_ordering():
    with criterion(9, "limit-action F-score: model III >= II >= I over 5 seeds"):
        for seed in range(1, 6):
            report = _ordering_pipeline(seed)
            f = {mid: report.per_model[mid]["limit"].f_score for mid in ("I", "II", "III")}
            assert f["III"] >= f["II"] >= f["I"], f"seed {seed}: {f}"


# ---------------------------------------------------------------------------
# 10. Latency degeneracy
# ---------------------------------------------------------------------------


def test_criterion_10_latency_degeneracy():
    with criterion(10, "latency-adjusted saved cost equals plain saved cost under zero crossing mass"):
        rng = np.random.default_rng(77)
        for _ in range(100):
            spread = int(rng.integers(2, 60))
            bid_ticks = int(rng.integers(500, 40_000))
            snap = MarketSnapshot(
                best_bid=bid_ticks * 0.01, best_ask=(bid_ticks + spread) * 0.01, tick_size=0.01
            )
            delta = int(rng.integers(-spread + 1, 2 * spread + 1))
            fees = FEE_TABLE[int(rng.integers(1, 10))]
            f = float(rng.uniform(0, 1))
            v = float(rng.uniform(-20, 200))
            cdf, tail = point_mass_move(-(spread + delta) - int(rng.integers(1, 5)), 0.0)
            s = saved_cost(snap, delta, fees, f, v)
            s_ell = latency_saved_cost(snap, delta, fees, f, v, cdf, tail, 1e-3, 1.0)
            assert s_ell == s


# ---------------------------------------------------------------------------
# 11. Pipeline determinism
# ---------------------------------------------------------------------------


def _run_cli_pipeline(out: Path) -> None:
    out.mkdir()
    base = ["--set", "trade_window=20", "--set", "epochs=12", "--set", "min_bucket_count=10"]

    def run(args):
        assert cli_main(base + args) == 0

    run(["synth", "--preset", "monotone-delta", "--seed", "5", "--duration", "90",
         "--out", str(out / "train_messages.csv"), "--truth", str(out / "train_truth.csv")])
    run(["replay", "--messages", str(out / "train_messages.csv"),
         "--out", str(out / "train_lifecycles.csv"), "--fill-ratio-out", str(out / "icdf.csv"),
         "--diagnostics-out", str(out / "train_diag.json")])
    run(["features", "--lifecycles", str(out / "train_lifecycles.csv"),
         "--truth", str(out / "train_truth.csv"), "--out", str(out / "matrix.csv")])
    run(["train-fill", "--matrix", str(out / "matrix.csv"), "--seed", "7",
         "--out", str(out / "fill.json"), "--report", str(out / "fill_report.json"), "--importance"])
    run(["train-cleanup", "--matrix", str(out / "matrix.csv"), "--seed", "7",
         "--out", str(out / "cleanup.json"), "--report", str(out / "cleanup_report.json")])
    run(["synth", "--preset", "monotone-delta", "--seed", "6", "--duration", "90",
         "--synth-set", "start_ts=1700000200000000000",
         "--out", str(out / "test_messages.csv"), "--truth", str(out / "test_truth.csv")])
    run(["replay", "--messages", str(out / "test_messages.csv"), "--out", str(out / "test_lifecycles.csv")])
    run(["backtest", "--lifecycles", str(out / "test_lifecycles.csv"), "--truth", str(out / "test_truth.csv"),
         "--train-matrix", str(out / "matrix.csv"), "--fill-model", str(out / "fill.json"),
         "--cleanup-model", str(out / "cleanup.json"), "--average-trade-size", "1.0",
         "--out", str(out / "metrics.json"), "--decisions-out", str(out / "decisions.csv")])


def test_criterion_11_pipeline_determinism(tmp_path):
    with criterion(11, "synth -> replay -> features -> train -> backtest byte-identical across runs"):
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        _run_cli_pipeline(run_a)
        _run_cli_pipeline(run_b)
        names = sorted(p.name for p in run_a.iterdir())
        assert names == sorted(p.name for p in run_b.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(run_a, run_b, names, shallow=False)
        assert not mismatch and not errors, f"differing files: {mismatch or errors}"
        assert len(match) == len(names)
