"""Command-line pipelines over the library.

Every subcommand reads and writes the documented CSV/JSON artifacts and is
deterministic given the config and seed.  Failures print a machine-readable
JSON error to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from . import io as lio
from . import synth as lsynth
from .backtest import (
    MODEL_I,
    MODEL_II,
    MODEL_III,
    EligibilityConfig,
    constant_cleanup,
    fit_router_models,
    matrix_columns,
    run_backtest,
    select_eligible,
)
from .cleanup import CleanupModel, bucket_estimate, cleanup_rows, train_cleanup_model
from .features import FEATURE_COLUMNS, feature_matrix
from .fill_model import FillModel, build_training_matrix, stratified_censoring_survival, train_fill_model
from .messages import InstrumentConfig, read_messages, write_messages
from .mlp import NonFiniteLoss, SingleClass, TrainConfig, held_out_rows, permutation_importance
from .placement import (
    FEE_TABLE,
    ZERO_FEES,
    FeePolicy,
    InsufficientBuckets,
    decision_map,
    default_delta_range,
    distance_spread_surface,
    optimal_distance,
)
from .replay import fill_ratio_icdf, track_lifecycles
from .survival import (
    CAUSE_EXECUTION,
    EmptyInput,
    aalen_johansen,
    conditional_curves,
    fill_probability_at,
    observations_from_records,
    post_and_wait_fill,
    quantile_edges,
)
from .table import ArtifactInvalid, write_table


class ConfigInvalid(ValueError):
    pass


class InputMissing(FileNotFoundError):
    pass


@dataclass
class PipelineConfig:
    tick_size: float = 0.01
    horizon: float = 1.0
    depth_mode: str = "bps"
    depth_value: float = 20.0
    event_window: int = 50
    trade_window: int = 50
    fee_level: int = 9
    lr: float = 1e-3
    batch: int = 512
    epochs: int = 100
    patience: int = 5
    val_fraction: float = 0.2
    ipcw_floor: float = 0.01
    min_bucket_count: int = 200
    max_size_ats_multiple: float = 5.0
    max_distance: float = float("inf")

    def instrument(self) -> InstrumentConfig:
        return InstrumentConfig(
            tick_size=self.tick_size,
            horizon=self.horizon,
            depth_mode=self.depth_mode,
            depth_value=self.depth_value,
            event_window=self.event_window,
            trade_window=self.trade_window,
        )

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            lr=self.lr,
            batch=self.batch,
            epochs=self.epochs,
            seed=seed,
            patience=self.patience,
            val_fraction=self.val_fraction,
        )


def _assign(target, item: str, where: str) -> None:
    """Set the scalar dataclass field named by the ``key=value`` text ``item``.

    The value is parsed with the field's current type (int, float, str or an
    enum).  Every failure is a ``ConfigInvalid`` naming ``where`` (an option,
    or a file and line) and the key.
    """
    key, sep, raw = item.partition("=")
    key = key.strip()
    if not sep:
        raise ConfigInvalid(f"{where} {item!r}: expected key=value")
    if key not in {f.name for f in dataclasses.fields(target)}:
        raise ConfigInvalid(f"{where} {key!r}: unknown key")
    kind = type(getattr(target, key))
    if kind not in (int, float, str) and not issubclass(kind, Enum):
        raise ConfigInvalid(f"{where} {key!r}: only int, float, str and enum fields can be set from text")
    try:
        setattr(target, key, kind(raw.strip()))
    except ValueError as exc:
        raise ConfigInvalid(f"{where} {key!r}: {exc}") from exc


def load_config(path: str | None, overrides: Sequence[str]) -> PipelineConfig:
    """Plain ``key = value`` file, then ``--set key=value`` overrides."""
    cfg = PipelineConfig()
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise InputMissing(f"config file {path} does not exist")
        for line_no, line in enumerate(p.read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if line:
                _assign(cfg, line, f"{path}:{line_no}")
    for item in overrides:
        _assign(cfg, item, "--set")
    try:
        cfg.instrument()
        cfg.train_config(seed=0)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc
    if cfg.fee_level not in FEE_TABLE and cfg.fee_level != 0:
        raise ConfigInvalid(f"fee_level must be 0 (no fees) or 1..9, got {cfg.fee_level}")
    if not 0.0 < cfg.ipcw_floor < 1.0:
        raise ConfigInvalid(f"ipcw_floor must be in (0, 1), got {cfg.ipcw_floor}")
    return cfg


def _fees(cfg: PipelineConfig) -> FeePolicy:
    return ZERO_FEES if cfg.fee_level == 0 else FEE_TABLE[cfg.fee_level]


def _require(path: str, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise InputMissing(f"{what} {path} does not exist")
    return p


@contextmanager
def _naming(path: str, errors: type[Exception] | tuple[type[Exception], ...]):
    """Re-raise ``errors`` from the block with ``path``, the input at fault, before the message."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _feature_column(name: str, option: str) -> int:
    """Index of ``name`` in the model row; ``option`` names the flag in the error."""
    if name not in FEATURE_COLUMNS:
        raise ConfigInvalid(f"{option} {name!r} is not a feature column; choose from {list(FEATURE_COLUMNS)}")
    return FEATURE_COLUMNS.index(name)


def _edges(text: str) -> list[float]:
    """The bucket edges of one ``--edges`` value: two or more strictly increasing numbers."""
    try:
        edges = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigInvalid(f"--edges {text!r}: {exc}") from exc
    if len(edges) < 2 or any(not a < b for a, b in zip(edges, edges[1:])):
        raise ConfigInvalid(f"--edges {text!r}: need two or more strictly increasing edges")
    return edges


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path is None:
        print(text)
    else:
        Path(path).write_text(text + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg: PipelineConfig) -> int:
    config = lsynth_preset(args.preset, args.seed, cfg)
    for item in args.synth_set or []:
        _assign(config, item, "--synth-set")
    generator = lsynth.FlowGenerator(config, args.duration)
    messages, truth = generator.run()
    write_messages(args.out, messages)
    lsynth.write_truth(args.truth, truth)
    skipped = {name: getattr(generator, name) for name in ("skipped_subjects", "skipped_trades", "skipped_moves")}
    _write_json(None, {"messages": len(messages), "subjects": len(truth), **skipped})
    return 0


def lsynth_preset(name: str, seed: int, cfg: PipelineConfig) -> lsynth.GroundTruthConfig:
    presets = {
        "baseline": lambda: lsynth.GroundTruthConfig(seed=seed, horizon=cfg.horizon),
        "monotone-delta": lambda: lsynth.GroundTruthConfig(
            seed=seed,
            horizon=cfg.horizon,
            regimes=[lsynth.RegimeSpec(duration=3600.0, exec_base=1.4, cancel_base=1.2)],
            exec_delta_mult=lsynth.PiecewiseMultiplier(
                (-np.inf, 1, 2, 3, 4, np.inf), (2.4, 1.6, 1.0, 0.6, 0.35)
            ),
        ),
        "driftless": lambda: lsynth.GroundTruthConfig(
            seed=seed,
            horizon=cfg.horizon,
            regimes=[lsynth.RegimeSpec(duration=3600.0, exec_base=0.25, cancel_base=0.5, move_rate=3.0, up_probability=0.5)],
            delta_choices=(1, 2, 3, 4, 5, 6),
        ),
        "drift-up": lambda: lsynth.GroundTruthConfig(
            seed=seed,
            horizon=cfg.horizon,
            regimes=[lsynth.RegimeSpec(duration=3600.0, exec_base=0.25, cancel_base=0.5, move_rate=4.0, up_probability=0.75)],
            delta_choices=(1, 2, 3, 4, 5, 6),
        ),
    }
    if name not in presets:
        raise ConfigInvalid(f"unknown synth preset {name!r}; choose from {sorted(presets)}")
    return presets[name]()


def cmd_replay(args, cfg: PipelineConfig) -> int:
    _require(args.messages, "message log")
    result = track_lifecycles(read_messages(args.messages), cfg.instrument())
    lio.write_lifecycles(args.out, result.records, cfg.horizon)
    if args.fill_ratio_out:
        xs, vals = fill_ratio_icdf(result.records, cfg.horizon).support()
        write_table(args.fill_ratio_out, ("ratio", "prob_exceed"), zip(xs, vals))
    d = result.diagnostics
    _write_json(
        args.diagnostics_out,
        {**dataclasses.asdict(d), "records": len(result.records), "average_trade_size": d.average_trade_size},
    )
    return 0


def _load_records(args, cfg: PipelineConfig):
    _require(args.lifecycles, "lifecycle file")
    records = lio.read_lifecycles(args.lifecycles)
    if getattr(args, "truth", None):
        truth_ids = {t.order_id for t in lsynth.read_truth(_require(args.truth, "truth sidecar"))}
        records = [r for r in records if r.order_id in truth_ids]
    if not records:
        raise EmptyInput(f"{args.lifecycles}: no observations")
    return records


def cmd_features(args, cfg: PipelineConfig) -> int:
    records = _load_records(args, cfg)
    censoring = stratified_censoring_survival(records)
    X, y, w, kept, ipcw = build_training_matrix(records, cfg.horizon, censoring, floor=cfg.ipcw_floor)
    lio.write_matrix(args.out, kept, y, w)
    counts = {"rows": len(kept), "dropped_partial": len(records) - len(kept), "weight_floored": ipcw.floored}
    _write_json(None, {**counts, "pooled_strata": len(censoring.pooled_strata)})
    return 0


def cmd_survival(args, cfg: PipelineConfig) -> int:
    if len(args.edges) > len(args.by):
        raise ConfigInvalid(f"--edges given {len(args.edges)} times for {len(args.by)} --by")
    given_edges = [_edges(text) for text in args.edges]
    records = _load_records(args, cfg)
    obs = observations_from_records(records)
    if args.mode == "post-and-wait":
        curve = post_and_wait_fill(obs)
        lio.write_survival_curve(args.out, curve)
        _write_json(None, {"fill_probability_at_horizon": fill_probability_at(curve, cfg.horizon)})
        return 0
    if not args.by:
        curve = aalen_johansen(obs)
        lio.write_cif_curves(args.out, {(): curve}, [])
        _write_json(None, {"fill_cif_at_horizon": curve.incidence_at(CAUSE_EXECUTION, cfg.horizon)})
        return 0
    by = []
    for i, name in enumerate(args.by):
        col = _feature_column(name, "--by")
        if i < len(given_edges):
            by.append((name, given_edges[i]))
        else:
            by.append((name, quantile_edges(feature_matrix(r.features for r in records)[:, col], 5)))
    curves, report = conditional_curves(records, by, min_count=cfg.min_bucket_count)
    lio.write_cif_curves(args.out, curves, [name for name, _ in by])
    _write_json(
        None,
        {
            "buckets_kept": {"/".join(map(str, k)): v for k, v in report.kept.items()},
            "buckets_omitted": {"/".join(map(str, k)): v for k, v in report.omitted.items()},
            "outside_edges": report.outside,
        },
    )
    return 0


def cmd_train_fill(args, cfg: PipelineConfig) -> int:
    X, y, w, meta = lio.read_matrix(_require(args.matrix, "feature matrix"))
    span = (min(m["insert_ts"] for m in meta), max(m["insert_ts"] for m in meta)) if meta else None
    n_val = held_out_rows(len(X), cfg.val_fraction)
    if args.importance and n_val == 0:
        raise ConfigInvalid(f"--importance needs held-out rows, but val_fraction {cfg.val_fraction} holds out none of {len(X)}")
    with _naming(args.matrix, (NonFiniteLoss, SingleClass)):
        model = train_fill_model(X, y, w, cfg.train_config(args.seed), horizon=cfg.horizon, trained_span=span)
    model.save(args.out)
    report = dataclasses.asdict(model.report)
    if args.importance:
        scores = permutation_importance(
            model.mlp, X[-n_val:], y[-n_val:], w[-n_val:], columns=FEATURE_COLUMNS, seed=args.seed
        )
        report["permutation_importance"] = [[name, float(s)] for name, s in scores]
    _write_json(args.report, report)
    return 0


def cmd_train_cleanup(args, cfg: PipelineConfig) -> int:
    bucket_col = _feature_column(args.bucket_feature, "--bucket-feature")
    X, _, _, meta = lio.read_matrix(_require(args.matrix, "feature matrix"))
    _, outcome_times, _, ask_moves, insert_ts = matrix_columns(X, meta)
    rows, collection = cleanup_rows(outcome_times, ask_moves, cfg.horizon)
    if not rows:
        raise ConfigInvalid(f"{args.matrix}: no qualifying clean-up rows in the matrix")
    Xc = X[rows]
    targets = np.array([ask_moves[i] for i in rows])
    span = (min(insert_ts[i] for i in rows), max(insert_ts[i] for i in rows))
    with _naming(args.matrix, NonFiniteLoss):
        model = train_cleanup_model(Xc, targets, cfg.train_config(args.seed), horizon=cfg.horizon, trained_span=span)
    model.save(args.out)
    if args.bucket_curve_out:
        values = Xc[:, bucket_col]
        edges = quantile_edges(values, 6)
        curve = bucket_estimate(values, targets, edges, min_count=max(10, cfg.min_bucket_count // 10))
        write_table(
            args.bucket_curve_out,
            (args.bucket_feature + "_lo", args.bucket_feature + "_hi", "mid", "mean_ticks", "std_error", "count"),
            (
                (curve.edges[b], curve.edges[b + 1], curve.mids[b], curve.means[b], curve.std_errors[b], int(curve.counts[b]))
                for b in range(len(curve.means))
                if not np.isnan(curve.means[b])
            ),
        )
    _write_json(
        args.report,
        {
            "rows": len(rows),
            "cleanup_rows": dataclasses.asdict(collection),
            "constant_baseline": constant_cleanup(targets),
            "winsor_bounds": list(model.winsor_bounds) if model.winsor_bounds else None,
            **dataclasses.asdict(model.report),
        },
    )
    return 0


def _load_models(args, cfg: PipelineConfig) -> tuple:
    """The ``--fill-model`` and ``--cleanup-model`` files, each checked
    against the configured horizon."""
    models = []
    for model_type in (FillModel, CleanupModel):
        path = getattr(args, f"{model_type.kind}_model")
        model = model_type.load(_require(path, f"{model_type.kind} model"))
        if model.horizon != cfg.horizon:
            raise ArtifactInvalid(f"{path}: field 'horizon' is {model.horizon!r}, but the configured horizon is {cfg.horizon}")
        models.append(model)
    return tuple(models)


#: The clean-up cost, in ticks, behind every ``route --decision-map-out`` cell.
DECISION_MAP_CLEANUP_TICKS = 200.0


def cmd_route(args, cfg: PipelineConfig) -> int:
    snapshot = lio.read_snapshot(_require(args.snapshot, "snapshot"))
    fill, cleanup = _load_models(args, cfg)
    default_lo, default_hi = default_delta_range(snapshot, cfg.depth_mode, cfg.depth_value)
    delta_range = (
        default_lo if args.delta_min is None else args.delta_min,
        default_hi if args.delta_max is None else args.delta_max,
    )
    decision = optimal_distance(snapshot, args.quantity, _fees(cfg), fill, cleanup, delta_range)
    _write_json(args.out, {k: getattr(decision, k) for k in ("action", "distance", "saved_cost", "break_even_fill")})
    if args.curve_out:
        write_table(args.curve_out, ("delta", "fill_probability", "cleanup_ticks", "saved_cost"), decision.curve.rows())
    if args.decision_map_out:
        cells = decision_map(snapshot, DECISION_MAP_CLEANUP_TICKS, np.linspace(0.0, 1.0, 101))
        header = ("level", "fill_probability", "saved_cost", "action", "break_even")
        write_table(args.decision_map_out, header, ([cell[k] for k in header] for cell in cells))
    if args.surface_out:
        spreads = range(args.surface_spread_min, args.surface_spread_max + 1)
        rows = distance_spread_surface(snapshot, args.quantity, _fees(cfg), fill, cleanup, spreads)
        write_table(
            args.surface_out,
            ("spread", "delta", "saved_cost", "fill_probability", "cleanup_ticks", "is_optimum"),
            (
                (row["spread"], row["delta"], row["saved_cost"], row["fill_probability"], row["cleanup_ticks"], int(row["is_optimum"]))
                for row in rows
            ),
        )
    return 0


def cmd_backtest(args, cfg: PipelineConfig) -> int:
    # eligibility caps an order's size at a multiple of the stream's average trade size
    ats = args.average_trade_size
    if not 0.0 < ats < math.inf:
        raise ConfigInvalid(f"--average-trade-size must be a positive finite number, got {ats}")
    records = _load_records(args, cfg)
    X, _, _, meta = lio.read_matrix(_require(args.train_matrix, "training matrix"))
    fill, cleanup = _load_models(args, cfg)
    with _naming(args.train_matrix, InsufficientBuckets):
        models, fit = fit_router_models(*matrix_columns(X, meta), fill, cleanup, cfg.horizon)
    eligible = select_eligible(
        records,
        cfg.horizon,
        ats,
        EligibilityConfig(max_size_ats_multiple=cfg.max_size_ats_multiple, max_distance=cfg.max_distance),
    )
    # a scored record breaking a rule of run_backtest's (an ask move, whole-tick quotes, a span apart) raises a ValueError
    with _naming(args.lifecycles, ValueError):
        report = run_backtest(eligible, [MODEL_I, MODEL_II, MODEL_III], models, _fees(cfg), cfg.horizon, cfg.tick_size)
    payload = {
        "records": len(records),
        "eligible": len(eligible),
        "evaluated": report.evaluated,
        "excluded_ties": report.excluded_ties,
        "toy_flat_fit": fit.flat,
        "toy_distances": fit.distances,
        "toy_thin_buckets": fit.thin_buckets,
        "constant_cleanup_ticks": models.constant_cleanup,
        "metrics": {
            mid: {action: dataclasses.asdict(m) for action, m in actions.items()}
            for mid, actions in report.per_model.items()
        },
    }
    _write_json(args.out, payload)
    if args.decisions_out:
        write_table(
            args.decisions_out,
            ("label", "decision_I", "decision_II", "decision_III"),
            zip(report.labels, report.decisions["I"], report.decisions["II"], report.decisions["III"]),
        )
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lobkit", description=__doc__)
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[], help="override config keys")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic stream with ground truth")
    p.add_argument("--preset", default="baseline")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--duration", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--synth-set", action="append", help="override scalar generator fields")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("replay", help="reconstruct the book and emit lifecycles")
    p.add_argument("--messages", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fill-ratio-out")
    p.add_argument("--diagnostics-out")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("features", help="label lifecycles and attach IPC weights")
    p.add_argument("--lifecycles", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", help="restrict to subject orders from a truth sidecar")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("survival", help="estimate survival / incidence curves")
    p.add_argument("--lifecycles", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("competing", "post-and-wait"), default="competing")
    p.add_argument("--by", action="append", default=[], help="bucket feature (repeat for 2-D)")
    p.add_argument("--edges", action="append", default=[], help="comma-separated edges per --by")
    p.add_argument("--truth")
    p.set_defaults(func=cmd_survival)

    p = sub.add_parser("train-fill", help="train the fill probability classifier")
    p.add_argument("--matrix", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--importance", action="store_true")
    p.set_defaults(func=cmd_train_fill)

    p = sub.add_parser("train-cleanup", help="train the clean-up cost regressor")
    p.add_argument("--matrix", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--bucket-curve-out")
    p.add_argument("--bucket-feature", default="volatility")
    p.set_defaults(func=cmd_train_cleanup)

    p = sub.add_parser("route", help="choose limit distance or market order")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--fill-model", required=True)
    p.add_argument("--cleanup-model", required=True)
    p.add_argument("--quantity", type=float, required=True)
    p.add_argument("--out")
    p.add_argument("--curve-out")
    p.add_argument("--delta-min", type=int)
    p.add_argument("--delta-max", type=int)
    p.add_argument("--decision-map-out")
    p.add_argument("--surface-out")
    p.add_argument("--surface-spread-min", type=int, default=2)
    p.add_argument("--surface-spread-max", type=int, default=12)
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("backtest", help="score router decisions against labels")
    p.add_argument("--lifecycles", required=True)
    p.add_argument("--train-matrix", required=True)
    p.add_argument("--fill-model", required=True)
    p.add_argument("--cleanup-model", required=True)
    p.add_argument("--average-trade-size", type=float, required=True)
    p.add_argument("--truth")
    p.add_argument("--out")
    p.add_argument("--decisions-out")
    p.set_defaults(func=cmd_backtest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        return args.func(args, cfg)
    except Exception as exc:  # surface every failure as machine-readable JSON
        payload = {"error": type(exc).__name__, "message": str(exc), "traceback": traceback.format_exc()}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
