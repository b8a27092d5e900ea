"""The limit-versus-market decision and the optimal posting distance.

Walks the practical fee example (a 20,000 USD asset with a one-dollar
spread and a 2.00 USD clean-up cost), sweeps the fee schedule, solves the
exponential toy model, and applies the latency correction.
"""

import numpy as np

from lobkit import (
    FEE_TABLE,
    MarketSnapshot,
    ToyModel,
    break_even_fill,
    decision_map,
    immediate_cost,
    latency_saved_cost,
    optimal_distance,
    saved_cost,
)
from lobkit.features import FEATURE_COLUMNS, FeatureVector
from lobkit.placement import point_mass_move

snapshot = MarketSnapshot(best_bid=19_999.50, best_ask=20_000.50, tick_size=0.01)
v_ticks = 200.0  # 2.00 USD expected adverse ask move

print(f"snapshot: bid {snapshot.best_bid}, ask {snapshot.best_ask}, "
      f"spread {snapshot.spread_ticks} ticks, mid {snapshot.mid}")
print(f"immediate execution cost at fee level 9: {immediate_cost(snapshot, FEE_TABLE[9]):.5f} USD")

print("\nbreak-even fill probability by fee level (posting at the best bid):")
for level in (1, 3, 5, 9):
    be = break_even_fill(snapshot, 0, FEE_TABLE[level], v_ticks)
    print(f"  level {level}: F* = {be:.5f}")

cells = decision_map(snapshot, v_ticks, fill_grid=np.round(np.arange(0.02, 0.21, 0.02), 2), levels=(1, 9))
print("\ndecision map cells (level, fill probability -> action):")
for cell in cells:
    print(f"  level {cell['level']}, F = {cell['fill_probability']:.2f}: {cell['action']}")

toy = ToyModel(amplitude=0.9, decay=0.2, cleanup=2.0)
print(f"\ntoy model A=0.9, k=0.2, V=2: optimal ask distance {toy.optimal_distance():.1f} ticks, "
      f"peak saved cost {toy.optimal_saved_cost():.4f}")


# models score a matrix of candidate rows, one value per row
SPREAD, DELTA = FEATURE_COLUMNS.index("spread"), FEATURE_COLUMNS.index("delta")


class ToyFill:
    def predict(self, X):
        return np.array([min(1.0, toy.fill_probability(row[SPREAD] + row[DELTA])) for row in X])


class ConstantCleanup:
    def predict(self, X):
        return np.full(len(X), 2.0)


features = FeatureVector(
    delta=1.0, spread=12.0, spread_after=12.0, best_imbalance=0.1, add_imbalance=0.0,
    aggressiveness=None, prior_volume=4.0, size=1.0, signed_flow=0.0, flow_imbalance=0.0,
    signed_traded=0.0, traded_imbalance=0.0, time_since_trade=0.2, median_trade_duration=0.1,
    volatility=1.5,
)
wide = MarketSnapshot(best_bid=100.00, best_ask=100.12, tick_size=0.01, features=features)
decision = optimal_distance(wide, 1.0, FEE_TABLE[9], ToyFill(), ConstantCleanup(), (-11, 20))
print(f"\ninteger sweep on a 12-tick spread: action={decision.action}, "
      f"distance={decision.distance} ticks, saved cost {decision.saved_cost:.5f} USD, "
      f"break-even {decision.break_even_fill:.4f}")

aggressive = -9
s_plain = saved_cost(wide, aggressive, FEE_TABLE[9], 0.9, 2.0)
cdf, tail = point_mass_move(-(wide.spread_ticks + aggressive) - 1, 0.25)
s_lat = latency_saved_cost(wide, aggressive, FEE_TABLE[9], 0.9, 2.0, cdf, tail, latency=1e-3, horizon=1.0)
print(f"\naggressive posting at delta={aggressive} (3 ticks under the ask):")
print(f"  saved cost ignoring latency: {s_plain:.5f} USD")
print(f"  with a 25% chance the ask improves past the order within 1 ms: {s_lat:.5f} USD")
