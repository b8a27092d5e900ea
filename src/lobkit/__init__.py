"""Limit order book lifecycles, censoring-aware fill probabilities, and
saved-cost order placement."""

from .backtest import constant_cleanup, fit_router_models, record_columns
from .book import BookState, CrossedBook, UnknownOrderId
from .cleanup import (
    BucketCurve,
    CleanupModel,
    bucket_estimate,
    cleanup_rows,
    collect_cleanup_samples,
    train_cleanup_model,
)
from .features import FEATURE_COLUMNS, FeatureVector, RollingWindows
from .fill_model import (
    FillModel,
    build_training_matrix,
    censoring_survival,
    ipcw_weights,
    stratified_censoring_survival,
    train_fill_model,
)
from .messages import InstrumentConfig, Level3Message, MessageKind, Side, read_messages, write_messages
from .mlp import MLP, TrainConfig, gradient_check, permutation_importance, train_mlp
from .placement import (
    FEE_TABLE,
    FeePolicy,
    MarketSnapshot,
    PlacementDecision,
    ToyModel,
    break_even_fill,
    decision_map,
    distance_spread_surface,
    fit_toy_model,
    immediate_cost,
    latency_saved_cost,
    optimal_distance,
    saved_cost,
)
from .replay import OrderLifecycle, Outcome, ReplayResult, fill_ratio_icdf, track_lifecycles
from .survival import (
    CIFCurve,
    Observation,
    SurvivalCurve,
    aalen_johansen,
    conditional_curves,
    fill_probability_at,
    gray_variance,
    kaplan_meier,
    log_log_ci,
    post_and_wait_fill,
)
from .synth import GroundTruthConfig, PiecewiseMultiplier, RegimeSpec, generate_flow, true_fill_probability

__version__ = "0.1.0"
