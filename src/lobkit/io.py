"""Artifacts exchanged between the pipeline stages: the lifecycle and
feature-matrix tables (schemas and row functions over :mod:`lobkit.table`),
survival curve tables and route snapshots.  Model files are read and
written by the models themselves (``FillModel.load``, ``CleanupModel.load``).
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .features import FEATURE_COLUMNS, FeatureVector, feature_matrix
from .messages import SIDE
from .placement import MarketSnapshot
from .replay import OrderLifecycle, Outcome
from .survival import CAUSE_CANCELLATION, CAUSE_EXECUTION, CIFCurve, SurvivalCurve, gray_variance, log_log_ci
from .table import (
    FLAG, INTEGER, NON_NEGATIVE, NUMBER, POSITIVE, TEXT, ZERO_OR_ONE, ArtifactInvalid, choice, finite_number, json_object,
    optional_number, read_table, write_table,
)


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
    "size": POSITIVE,
    "outcome": _OUTCOME,
    "outcome_time_s": POSITIVE,
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
    "outcome_time_s": POSITIVE,
    "label": ZERO_OR_ONE,
    "weight": NON_NEGATIVE,
    "dp_ask_horizon": optional_number(),
    **dict.fromkeys(FEATURE_COLUMNS, NUMBER),
}


def write_matrix(
    path: str | Path,
    records: Sequence[OrderLifecycle],
    labels: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Feature matrix export: one row per lifecycle with label and weight."""
    # one matrix, converted row by row: a single tolist() would hold every cell as a Python float at once
    cells = map(np.ndarray.tolist, feature_matrix(r.features for r in records))
    rows = (
        (r.order_id, r.insert_ts, r.outcome, r.outcome_time, y, w, r.dp_ask_horizon, *row)
        for r, y, w, row in zip(records, labels, weights, cells)
    )
    write_table(path, MATRIX_FIELDS, rows)


def read_matrix(path: str | Path):
    """(X, y, w, meta) from a feature matrix CSV; meta is a list of dicts."""
    X, y, w, meta = [], [], [], []
    rows = read_table(path, MATRIX_FIELDS)
    for order_id, insert_ts, outcome, outcome_time, label, weight, dp_ask_horizon, *features in rows:
        X.append(features)
        y.append(label)
        w.append(weight)
        meta.append(dict(order_id=order_id, insert_ts=insert_ts, outcome=outcome, outcome_time=outcome_time,
                         dp_ask_horizon=dp_ask_horizon))
    return np.array(X, dtype=float).reshape(-1, len(FEATURE_COLUMNS)), np.asarray(y), np.asarray(w), meta


def write_survival_curve(path: str | Path, curve: SurvivalCurve) -> None:
    write_table(
        path,
        ("time", "survival", "at_risk", "deaths", "censored"),
        zip(curve.times, curve.values, curve.at_risk, curve.deaths, curve.censored),
    )


def write_cif_curves(path: str | Path, curves: dict[tuple, CIFCurve], by_names: Sequence[str]) -> None:
    """Long-format export of bucketed incidence curves with 95% log-log bands."""

    def rows():
        for key in sorted(curves):
            curve = curves[key]
            for cause, name in ((CAUSE_EXECUTION, "execution"), (CAUSE_CANCELLATION, "cancellation")):
                var = gray_variance(curve, cause)
                for t, f, v in zip(curve.times, curve.cif[cause], var):
                    yield [*key, name, t, f, v, *log_log_ci(float(f), float(v))]

    bucket_cols = [f"bucket_{name}" for name in by_names]
    write_table(path, bucket_cols + ["cause", "time", "incidence", "variance", "ci_lo", "ci_hi"], rows())


# ---------------------------------------------------------------------------
# Route snapshots
# ---------------------------------------------------------------------------


def read_snapshot(path: str | Path) -> MarketSnapshot:
    """Read a ``route --snapshot`` file.

    Its fields are ``best_bid``, ``best_ask`` and ``tick_size`` in quote
    units, and ``features``: null, or an object with a finite number for each
    feature column of ``lifecycles.csv`` (``aggressiveness`` may be null).
    """
    path = Path(path)
    blob = json_object(path, "snapshot")

    def number(obj: dict, name: str, label: str) -> float | None:
        if name not in obj:
            raise ArtifactInvalid(f"{path}: required field {label!r} is missing")
        value = obj[name]
        if value is None and name == "aggressiveness":
            return None
        if not finite_number(value):
            raise ArtifactInvalid(f"{path}: field {label!r} is {value!r}, not a finite number")
        return float(value)

    quote = {name: number(blob, name, name) for name in ("best_bid", "best_ask", "tick_size")}
    feats = blob.get("features")
    features = None
    if feats is not None:
        if not isinstance(feats, dict):
            raise ArtifactInvalid(f"{path}: field 'features' is {feats!r}, not an object")
        unknown = sorted(set(feats) - set(_VECTOR_COLUMNS))
        if unknown:
            raise ArtifactInvalid(f"{path}: field 'features.{unknown[0]}' is not a feature column")
        features = FeatureVector(*(number(feats, name, f"features.{name}") for name in _VECTOR_COLUMNS))
    try:
        return MarketSnapshot(**quote, features=features)
    except ValueError as exc:
        raise ArtifactInvalid(f"{path}: {exc}") from exc
