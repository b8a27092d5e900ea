"""Estimate the clean-up cost: the expected best-ask move at the horizon
conditional on non-execution.

Runs a driftless and a drifted flow, shows that the bucketed estimator
recovers zero and the planted drift respectively, and fits the regression
network on the drifted data.
"""

import numpy as np

from lobkit import (
    GroundTruthConfig,
    InstrumentConfig,
    TrainConfig,
    bucket_estimate,
    collect_cleanup_samples,
    constant_cleanup,
    generate_flow,
    track_lifecycles,
    train_cleanup_model,
)
from lobkit.cleanup import samples_to_matrix
from lobkit.synth import RegimeSpec


def survivors(seed: int, up_probability: float):
    config = GroundTruthConfig(
        seed=seed,
        regimes=[RegimeSpec(duration=2000.0, exec_base=0.15, cancel_base=0.25, move_rate=5.0,
                            up_probability=up_probability, trade_rate=2.0, spread=10)],
        subject_rate=1.2,
        delta_choices=(1, 2, 3, 4),
        noise_rate=0.0,
    )
    messages, truth = generate_flow(config, 1500.0)
    result = track_lifecycles(messages, InstrumentConfig(depth_value=60.0))
    ids = {t.order_id for t in truth}
    subjects = [r for r in result.records if r.order_id in ids]
    samples, report = collect_cleanup_samples(subjects, horizon=1.0)
    return samples, report


for up_probability, label in ((0.5, "driftless"), (0.8, "drift +3 ticks/s")):
    samples, report = survivors(9, up_probability)
    drift = 5.0 * (2 * up_probability - 1)
    print(f"\n{label}: {report.kept} qualifying orders "
          f"({report.died_within_horizon} died within the horizon, {report.unmeasurable} unmeasurable)")
    v_bar = constant_cleanup([s.dp_ask_horizon for s in samples])
    print(f"  constant baseline V-bar = {v_bar:+.3f} ticks (planted {drift:+.1f})")
    curve = bucket_estimate(
        [s.features.delta for s in samples], [s.dp_ask_horizon for s in samples],
        edges=[0.5, 1.5, 2.5, 3.5, 4.5], min_count=40,
    )
    for mid, mean, se, n in zip(curve.mids, curve.means, curve.std_errors, curve.counts):
        flag = "ok" if abs(mean - drift) <= 2 * se else "outside 2 SE"
        print(f"  delta {mid:.0f}: V-hat = {mean:+.3f} +- {2 * se:.3f} (n={n}) {flag}")

samples, _ = survivors(9, 0.8)
X, targets = samples_to_matrix(samples)
model = train_cleanup_model(X, targets, TrainConfig(lr=5e-3, batch=128, epochs=60, seed=4, patience=10))
preds = model.mlp.predict(X)
print(f"\nregression network on the drifted flow: mean prediction {float(np.mean(preds)):+.3f} ticks, "
      f"winsor bounds {model.winsor_bounds}")
