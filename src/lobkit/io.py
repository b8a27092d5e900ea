"""Artifacts exchanged between the pipeline stages: the lifecycle and
feature-matrix tables (schemas and row functions over :mod:`lobkit.table`),
survival curve tables, route snapshots and model files.
"""

from __future__ import annotations

import dataclasses
import json
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .cleanup import CleanupModel
from .features import FEATURE_COLUMNS, FeatureVector
from .fill_model import REGIMES, FillModel, RegimeFillModels
from .messages import SIDE
from .mlp import MLP
from .placement import MarketSnapshot
from .replay import OrderLifecycle, Outcome
from .survival import CAUSE_CANCELLATION, CAUSE_EXECUTION, CIFCurve, SurvivalCurve, gray_variance, log_log_ci
from .table import FLAG, INTEGER, NUMBER, TEXT, ArtifactInvalid, choice, optional_number, read_table, write_table


#: Lifecycle columns that fill a ``FeatureVector``, in field order; the
#: vector's ``size`` is the record's own column, ``partial_window`` is parsed apart.
_VECTOR_COLUMNS = tuple(f.name for f in dataclasses.fields(FeatureVector) if f.name != "partial_window")
#: Feature fields written to columns of their own.
_FEATURE_FIELDS = tuple(name for name in _VECTOR_COLUMNS if name != "size")
_SIZE_AT = _VECTOR_COLUMNS.index("size")

_OUTCOME = choice({o.name.lower(): o for o in Outcome})

LIFECYCLE_FIELDS = {
    "order_id": TEXT,
    "side": SIDE,
    "insert_ts_ns": INTEGER,
    "price_ticks": INTEGER,
    "size": NUMBER,
    "outcome": _OUTCOME,
    "outcome_time_s": NUMBER,
    "fill_ratio": NUMBER,
    "fill_ratio_horizon": optional_number(),
    "dp_ask_horizon": optional_number(),
    "partial_window": FLAG,
    "insert_best_ask": INTEGER,
    **{name: optional_number() if name == "aggressiveness" else NUMBER for name in _FEATURE_FIELDS},
}
_FEATURES = attrgetter(*_FEATURE_FIELDS)


def write_lifecycles(path: str | Path, records: Sequence[OrderLifecycle], horizon: float) -> None:
    def row(r: OrderLifecycle) -> tuple:
        f = r.features
        return (
            r.order_id, r.side, r.insert_ts, r.price, r.size, r.outcome, r.outcome_time, r.fill_ratio,
            r.fill_ratio_within(horizon), r.dp_ask_horizon, f.partial_window, r.insert_best_ask, *_FEATURES(f),
        )

    write_table(path, LIFECYCLE_FIELDS, map(row, records))


def read_lifecycles(path: str | Path) -> list[OrderLifecycle]:
    records = []
    for (
        order_id, side, insert_ts, price, size, outcome, outcome_time, fill_ratio, fill_ratio_horizon, dp_ask_horizon,
        partial_window, insert_best_ask, *features,
    ) in read_table(path, LIFECYCLE_FIELDS):
        vector = FeatureVector(*features[:_SIZE_AT], size, *features[_SIZE_AT:], partial_window=partial_window)
        records.append(
            OrderLifecycle(
                order_id, side, insert_ts, price, size, vector, outcome, outcome_time, fill_ratio,
                dp_ask_horizon=dp_ask_horizon, insert_best_ask=insert_best_ask, fill_ratio_horizon=fill_ratio_horizon
            )
        )
    return records


MATRIX_FIELDS = {
    "order_id": TEXT,
    "insert_ts_ns": INTEGER,
    "outcome": _OUTCOME,
    "outcome_time_s": NUMBER,
    "label": NUMBER,
    "weight": NUMBER,
    "dp_ask_horizon": optional_number(),
    "partial_window": FLAG,
    **dict.fromkeys(FEATURE_COLUMNS, NUMBER),
}


def write_matrix(
    path: str | Path,
    records: Sequence[OrderLifecycle],
    labels: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Feature matrix export: one row per lifecycle with label and weight."""
    rows = (
        (r.order_id, r.insert_ts, r.outcome, r.outcome_time, y, w, r.dp_ask_horizon, r.features.partial_window)
        + tuple(r.features.to_row().tolist())
        for r, y, w in zip(records, labels, weights)
    )
    write_table(path, MATRIX_FIELDS, rows)


def read_matrix(path: str | Path):
    """(X, y, w, meta) from a feature matrix CSV; meta is a list of dicts."""
    X, y, w, meta = [], [], [], []
    rows = read_table(path, MATRIX_FIELDS)
    for order_id, insert_ts, outcome, outcome_time, label, weight, dp_ask_horizon, partial, *features in rows:
        X.append(features)
        y.append(label)
        w.append(weight)
        meta.append(
            dict(order_id=order_id, insert_ts=insert_ts, outcome=outcome, outcome_time=outcome_time,
                 dp_ask_horizon=dp_ask_horizon, partial_window=partial)
        )
    return np.array(X, dtype=float).reshape(-1, len(FEATURE_COLUMNS)), np.asarray(y), np.asarray(w), meta


def write_survival_curve(path: str | Path, curve: SurvivalCurve) -> None:
    write_table(
        path,
        ("time", "survival", "at_risk", "deaths", "censored"),
        zip(curve.times, curve.values, curve.at_risk, curve.deaths, curve.censored),
    )


def write_cif_curves(path: str | Path, curves: dict[tuple, CIFCurve], by_names: Sequence[str], alpha: float = 0.05) -> None:
    """Long-format export of bucketed incidence curves with CI bands."""

    def rows():
        for key in sorted(curves):
            curve = curves[key]
            for cause, name in ((CAUSE_EXECUTION, "execution"), (CAUSE_CANCELLATION, "cancellation")):
                var = gray_variance(curve, cause)
                for t, f, v in zip(curve.times, curve.cif[cause], var):
                    yield [*key, name, t, f, v, *log_log_ci(float(f), float(v), alpha)]

    bucket_cols = [f"bucket_{name}" for name in by_names]
    write_table(path, bucket_cols + ["cause", "time", "incidence", "variance", "ci_lo", "ci_hi"], rows())


# ---------------------------------------------------------------------------
# JSON artifacts: route snapshots and model files
# ---------------------------------------------------------------------------


def _json_object(path: Path, what: str) -> dict:
    try:
        blob = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactInvalid(f"{path}: not a JSON {what} ({exc})") from exc
    if not isinstance(blob, dict):
        raise ArtifactInvalid(f"{path}: not a JSON {what} (top level is not an object)")
    return blob


def read_snapshot(path: str | Path) -> MarketSnapshot:
    """Read a ``route --snapshot`` file.

    Its fields are ``best_bid``, ``best_ask`` and ``tick_size`` in quote
    units, and ``features``: null, or an object with a number for each
    feature column of ``lifecycles.csv`` (``aggressiveness`` may be null) and
    an optional boolean ``partial_window``.
    """
    path = Path(path)
    blob = _json_object(path, "snapshot")

    def number(obj: dict, name: str, label: str) -> float | None:
        if name not in obj:
            raise ArtifactInvalid(f"{path}: required field {label!r} is missing")
        value = obj[name]
        if value is None and name == "aggressiveness":
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ArtifactInvalid(f"{path}: field {label!r} is {value!r}, not a number")
        return float(value)

    quote = {name: number(blob, name, name) for name in ("best_bid", "best_ask", "tick_size")}
    feats = blob.get("features")
    features = None
    if feats is not None:
        if not isinstance(feats, dict):
            raise ArtifactInvalid(f"{path}: field 'features' is {feats!r}, not an object")
        unknown = sorted(set(feats) - {*_VECTOR_COLUMNS, "partial_window"})
        if unknown:
            raise ArtifactInvalid(f"{path}: field 'features.{unknown[0]}' is not a feature column")
        partial = feats.get("partial_window", False)
        if not isinstance(partial, bool):
            raise ArtifactInvalid(f"{path}: field 'features.partial_window' is {partial!r}, not a boolean")
        values = [number(feats, name, f"features.{name}") for name in _VECTOR_COLUMNS]
        features = FeatureVector(*values, partial_window=partial)
    try:
        return MarketSnapshot(**quote, features=features)
    except ValueError as exc:
        raise ArtifactInvalid(f"{path}: {exc}") from exc


def load_model(path: str | Path) -> FillModel | RegimeFillModels | CleanupModel:
    """Read a model file written by ``save``, dispatching on its ``kind``.

    Every model file is one JSON envelope: ``kind``, ``columns``, ``horizon``
    and ``trained_span``, then the network under ``mlp`` (kinds ``fill`` and
    ``cleanup``, the latter with ``winsor_bounds``) or one network per regime
    under ``passive``, ``at_best`` and ``aggressive`` (kind ``fill-per-regime``).
    """
    path = Path(path)
    blob = _json_object(path, "model file")

    def field(name: str):
        if name not in blob:
            raise ArtifactInvalid(f"{path}: required field {name!r} is missing")
        return blob[name]

    def net(name: str) -> MLP:
        value = field(name)
        try:
            return MLP.from_dict(value)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ArtifactInvalid(f"{path}: field {name!r} is not a network ({exc!r})") from exc

    kind = field("kind")
    span = field("trained_span")
    common = dict(columns=tuple(field("columns")), horizon=field("horizon"), trained_span=tuple(span) if span else None)
    if kind == FillModel.kind:
        return FillModel(mlp=net("mlp"), **common)
    if kind == CleanupModel.kind:
        bounds = field("winsor_bounds")
        return CleanupModel(mlp=net("mlp"), winsor_bounds=tuple(bounds) if bounds else None, **common)
    if kind == RegimeFillModels.kind:
        parts = {name: FillModel(mlp=net(name), **common) for name in REGIMES}
        return RegimeFillModels(**parts, **common)
    kinds = (FillModel.kind, RegimeFillModels.kind, CleanupModel.kind)
    raise ArtifactInvalid(f"{path}: field 'kind' is {kind!r}, not one of {', '.join(kinds)}")
