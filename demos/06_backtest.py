"""Score the three router variants on planted regime-switching flow.

Model I uses an exponential fill curve and a constant clean-up cost, model
II swaps in the network fill model, model III makes both components state
dependent; the labels come from realized outcomes at the horizon.
"""

import numpy as np

from lobkit import (
    FEE_TABLE,
    InstrumentConfig,
    TrainConfig,
    build_training_matrix,
    collect_cleanup_samples,
    fit_router_models,
    generate_flow,
    record_columns,
    stratified_censoring_survival,
    track_lifecycles,
    train_cleanup_model,
    train_fill_model,
)
from lobkit.backtest import MODEL_I, MODEL_II, MODEL_III, EligibilityConfig, run_backtest, select_eligible
from lobkit.cleanup import samples_to_matrix
from lobkit.synth import GroundTruthConfig, PiecewiseMultiplier, RegimeSpec

HORIZON, TICK = 1.0, 0.01


def planted_config(seed, start_ts):
    regimes = [
        RegimeSpec(duration=7.0, exec_base=0.10, cancel_base=0.35, move_rate=11.0,
                   up_probability=0.955, trade_rate=2.0, taker_buy_fraction=0.9, spread=6),
        RegimeSpec(duration=20.0, exec_base=0.85, cancel_base=0.35, move_rate=12.5,
                   up_probability=0.02, trade_rate=6.0, taker_buy_fraction=0.1, spread=6),
        RegimeSpec(duration=7.0, exec_base=0.32, cancel_base=0.35, move_rate=13.0,
                   up_probability=1.0, trade_rate=12.0, taker_buy_fraction=0.85, spread=6),
    ]
    return GroundTruthConfig(
        seed=seed, regimes=regimes, subject_rate=14.0, delta_choices=(0, 1, 2, 3, 4),
        delta_weights=(4, 4, 3, 2, 1),
        exec_delta_mult=PiecewiseMultiplier((-np.inf, 1, 2, 3, np.inf), (1.3, 1.1, 0.9, 0.7)),
        censor_rate=0.01, noise_rate=2.0, wall_size=12.0, initial_bid=5_000,
        horizon=HORIZON, start_ts=start_ts,
    )


instrument = InstrumentConfig(tick_size=TICK, horizon=HORIZON, depth_value=30.0, trade_window=30)
train_msgs, train_truth = generate_flow(planted_config(1, 1_700_000_000_000_000_000), 240.0)
test_msgs, test_truth = generate_flow(planted_config(1001, 1_700_001_000_000_000_000), 240.0)
train_ids = {t.order_id for t in train_truth}
test_ids = {t.order_id for t in test_truth}
train_res = track_lifecycles(train_msgs, instrument)
test_res = track_lifecycles(test_msgs, instrument)
train_records = [r for r in train_res.records if r.order_id in train_ids]
test_records = [r for r in test_res.records if r.order_id in test_ids]
print(f"train week: {len(train_records)} orders; test week: {len(test_records)} orders")

censoring = stratified_censoring_survival(train_records)
X, y, w, kept, _ = build_training_matrix(train_records, HORIZON, censoring)
span = (min(r.insert_ts for r in kept), max(r.insert_ts for r in kept))
fill = train_fill_model(X, y, w, TrainConfig(lr=5e-3, batch=256, epochs=60, seed=1, patience=8),
                        horizon=HORIZON, trained_span=span)
samples, _ = collect_cleanup_samples(kept, HORIZON)
Xc, targets = samples_to_matrix(samples)
cleanup = train_cleanup_model(Xc, targets, TrainConfig(lr=5e-3, batch=256, epochs=60, seed=1, patience=8))
models, _ = fit_router_models(*record_columns(kept), fill, cleanup, HORIZON)
print(f"model I components: A={models.toy.amplitude:.2f}, k={models.toy.decay:.3f}, "
      f"constant clean-up {models.constant_cleanup:+.2f} ticks")

eligible = select_eligible(test_records, HORIZON, test_res.diagnostics.average_trade_size,
                           EligibilityConfig(max_size_ats_multiple=5.0))
report = run_backtest(eligible, [MODEL_I, MODEL_II, MODEL_III], models, FEE_TABLE[9], HORIZON, TICK)

print(f"\nscored {report.evaluated} decisions ({report.excluded_ties} flat-ask ties excluded)")
print(f"{'action':<8} {'model':<6} {'precision':>9} {'recall':>7} {'f-score':>8}")
for action in ("limit", "market"):
    for mid in ("I", "II", "III"):
        m = report.per_model[mid][action]
        print(f"{action:<8} {mid:<6} {m.precision:9.2f} {m.recall:7.2f} {m.f_score:8.2f}")
